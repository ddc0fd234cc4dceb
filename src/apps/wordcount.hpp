// Word Count (WC) — enterprise-domain suite app.
//
// Counts word occurrences in a text. The input is split into ~split_bytes
// byte ranges; ranges are snapped to word boundaries (a split that does not
// start at 0 skips its leading partial word; every split finishes the word
// it ends inside). Keys are std::string_view slices of the input text —
// zero-copy, as in Phoenix++'s pointer-based keys — so results remain valid
// only while the input string is alive.
//
// Containers: the key set is not known a priori, so the *default* container
// is a regular hash table (the paper: "except WC that uses thread-local
// hash tables"); the hash flavor is a fixed-size hash table bounded by
// `max_distinct_words`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

#include "apps/flavor.hpp"
#include "containers/combiners.hpp"
#include "containers/hash_container.hpp"
#include "simd/kernels.hpp"

namespace ramr::apps {

// Word separator class shared by the tokenizing apps and their references:
// ' ' plus \t \n \v \f \r. The scalar and SIMD scanners share this one
// predicate so they agree byte-for-byte.
using simd::is_word_separator;

struct TextInput {
  std::string text;
  std::size_t split_bytes = 64 * 1024;
};

// Normalises real-world text in place so the space-delimited scanners
// apply: every non-alphanumeric byte becomes a space and ASCII letters are
// lower-cased ("Hello, world!" counts as "hello world"). Generated suite
// inputs are already in this form; use this for files (see apps/io.hpp).
void normalize_words(std::string& text);

template <ContainerFlavor F>
struct WordCountApp {
  static constexpr const char* kName = "wc";

  using input_type = TextInput;
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::HashContainer<std::string_view, std::uint64_t,
                                containers::CountCombiner>,
      containers::FixedHashContainer<std::string_view, std::uint64_t,
                                     containers::CountCombiner>>;

  // Capacity bound for the fixed-size hash flavor (and sizing hint for the
  // regular one).
  std::size_t max_distinct_words = 4096;

  std::size_t num_splits(const input_type& in) const {
    if (in.text.empty()) return 0;
    return (in.text.size() + in.split_bytes - 1) / in.split_bytes;
  }

  container_type make_container() const {
    return container_type(max_distinct_words);
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    // Ownership rule: a split owns exactly the words that *start* inside its
    // raw byte range [begin, end) — a word crossing `end` is consumed in
    // full here, and a word crossing `begin` was already consumed by the
    // previous split (so a leading partial word is skipped).
    const std::string_view text(in.text);
    std::size_t begin = split * in.split_bytes;
    const std::size_t end = std::min(begin + in.split_bytes, text.size());
    // Tokenization through the separator-class kernels (simd/kernels.hpp).
    const simd::Kernels& k = *simd::active().kernels;
    const char* data = text.data();
    if (begin != 0 && !is_word_separator(text[begin - 1])) {
      begin = k.find_separator(data, begin, end);
    }
    std::size_t pos = begin;
    for (;;) {
      pos = k.skip_separators(data, pos, end);
      if (pos >= end) break;  // next word starts in the next split
      const std::size_t word_end = k.find_separator(data, pos, text.size());
      emit(text.substr(pos, word_end - pos), std::uint64_t{1});
      pos = word_end;
    }
  }
};

// Serial reference.
std::map<std::string_view, std::uint64_t> wordcount_reference(
    const TextInput& in);

}  // namespace ramr::apps
