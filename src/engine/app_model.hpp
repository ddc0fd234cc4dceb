// The application model every runtime programs against: what an application
// must provide to run under any of the three coupling strategies.
//
// Mirrors Phoenix++'s design: an application supplies its input type, an
// intermediate container type (fixed array / fixed hash / regular hash), a
// splitter, and a map function that emits key/value pairs. Combining is the
// container's combiner; how combining couples to mapping is the *strategy's*
// business (see engine/emit_strategy.hpp), not the application's.
#pragma once

#include <concepts>
#include <cstddef>
#include <utility>
#include <vector>

#include "containers/container_traits.hpp"
#include "engine/result.hpp"

namespace ramr::mr {

// An application specification. `map` is templated on the emit callable so
// the exact same app code drives every runtime: the fused strategy passes an
// emitter that combines straight into the worker's container, the pipelined
// strategy one that pushes into the mapper's SPSC ring, the atomic-global
// strategy one that fetch-ops on the shared array.
//
//   struct MyApp {
//     using input_type = ...;
//     using container_type = ...;   // satisfies IntermediateContainer
//     std::size_t num_splits(const input_type&) const;
//     container_type make_container() const;
//     template <typename Emit>
//     void map(const input_type&, std::size_t split, Emit&& emit) const;
//     // Optional: a per-key reducer applied to every combined value during
//     // the reduce phase (e.g. divide a sum by a count). Detected via
//     // `requires`; apps without it get the identity.
//     void reduce(const key_type&, value_type&) const;
//   };
template <typename S>
concept AppSpec = requires(const S& app, const typename S::input_type& in) {
  typename S::input_type;
  typename S::container_type;
  requires containers::IntermediateContainer<typename S::container_type>;
  { app.num_splits(in) } -> std::convertible_to<std::size_t>;
  { app.make_container() } -> std::same_as<typename S::container_type>;
};

// The MRPhi app model: like AppSpec but with a *shared* container —
// make_global_container() is called once per run, and map's emit writes to
// it concurrently from every worker (an AtomicArrayContainer instantiation).
template <typename S>
concept GlobalAppSpec = requires(const S& app,
                                 const typename S::input_type& in) {
  typename S::input_type;
  typename S::container_type;
  { app.num_splits(in) } -> std::convertible_to<std::size_t>;
  { app.make_global_container() } -> std::same_as<typename S::container_type>;
};

// Opt-in trait `static constexpr bool kCombinesInMap = true;`: the app's
// map already combines within its task before emitting (at most one record
// per key per task), so a combiner pool would have nothing left to absorb.
// The paper's light apps are the case (Sec. IV-E, Fig. 10): their queue
// traffic outweighs the work decoupling overlaps. engine::lease_for
// (engine/strategy_select.hpp) runs such apps under FusedCombine on a
// single pool of engine::fused_width workers in every front end.
template <typename S>
concept CombinesInMap = AppSpec<S> && requires { requires S::kCombinesInMap; };

template <typename S>
using key_type_of = typename S::container_type::key_type;

template <typename S>
using value_type_of = typename S::container_type::value_type;

// One unified result type for every runtime (see engine/result.hpp).
template <typename K, typename V>
using Result = engine::RunResult<K, V>;

template <typename S>
using result_of = Result<key_type_of<S>, value_type_of<S>>;

// Whether the app supplies the optional per-key reducer over (K, V&).
template <typename S, typename K, typename V>
concept HasReducerFor = requires(const S& app, const K& k, V& v) {
  { app.reduce(k, v) };
};

template <typename S>
concept HasReducer = HasReducerFor<S, key_type_of<S>, value_type_of<S>>;

// Applies the app's reducer to every pair (no-op when absent). Called by
// the phase driver at the end of the reduce phase, after containers merged.
template <typename S, typename K, typename V>
void apply_reducer(const S& app, std::vector<std::pair<K, V>>& pairs) {
  if constexpr (HasReducerFor<S, K, V>) {
    for (auto& [key, value] : pairs) {
      app.reduce(key, value);
    }
  } else {
    (void)app;
    (void)pairs;
  }
}

}  // namespace ramr::mr
