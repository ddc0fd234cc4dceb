// String Match (SM) — extension app from the original Phoenix suite
// (Ranger et al., HPCA'07). Not part of the paper's six evaluation
// test-cases (Table I), but included because the original suite ships it
// and it exercises a distinct shape: a small fixed key space (one key per
// search pattern) discovered by scanning, with a workload profile similar
// to the paper's "light" apps.
//
// Counts, for each of a fixed set of patterns, how many whitespace-
// delimited words of the text match it exactly. Keys are pattern indices,
// so the default container is a fixed array sized to the pattern count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "apps/flavor.hpp"
#include "apps/wordcount.hpp"  // TextInput
#include "containers/combiners.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"

namespace ramr::apps {

struct SmInput {
  TextInput text;
  std::vector<std::string> patterns;
};

template <ContainerFlavor F>
struct StringMatchApp {
  static constexpr const char* kName = "sm";

  using input_type = SmInput;
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::FixedArrayContainer<std::uint64_t,
                                      containers::CountCombiner>,
      containers::FixedHashContainer<std::uint64_t, std::uint64_t,
                                     containers::CountCombiner>>;

  std::size_t num_patterns = 0;  // must match input.patterns.size()

  std::size_t num_splits(const input_type& in) const {
    if (in.text.text.empty()) return 0;
    return (in.text.text.size() + in.text.split_bytes - 1) /
           in.text.split_bytes;
  }

  container_type make_container() const {
    return container_type(num_patterns == 0 ? 1 : num_patterns);
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    // Same word-ownership rule as Word Count: a split owns the words that
    // start inside its raw byte range.
    const std::string_view text(in.text.text);
    std::size_t begin = split * in.text.split_bytes;
    const std::size_t end =
        std::min(begin + in.text.split_bytes, text.size());
    const simd::Kernels& k = *simd::active().kernels;
    const char* data = text.data();
    if (begin != 0 && !is_word_separator(text[begin - 1])) {
      begin = k.find_separator(data, begin, end);
    }
    // Single-pattern fast path: broadcast-compare for the pattern's first
    // byte, then verify word start, word end, and the remaining bytes —
    // the scan never tokenizes words that cannot match. Only taken for a
    // pattern that is itself a word: one containing a separator byte can
    // never equal a tokenized word, which the general path gets right.
    if (in.patterns.size() == 1 && !in.patterns[0].empty() &&
        std::none_of(in.patterns[0].begin(), in.patterns[0].end(),
                     [](char c) { return is_word_separator(c); })) {
      const std::string& pat = in.patterns[0];
      std::size_t pos = begin;
      while (pos < end) {
        const std::size_t c = k.find_byte(data, pos, end, pat[0]);
        if (c >= end) break;
        if (c == 0 || is_word_separator(text[c - 1])) {
          const std::size_t we = c + pat.size();
          if (we <= text.size() &&
              (we == text.size() || is_word_separator(text[we])) &&
              k.range_equal(data + c + 1, pat.data() + 1, pat.size() - 1)) {
            emit(std::uint64_t{0}, std::uint64_t{1});
            pos = we;
            continue;
          }
        }
        pos = c + 1;
      }
      return;
    }
    // General path: tokenize, then compare against each pattern; the first
    // match wins (a duplicated pattern only ever counts under its first
    // index, as in the serial reference).
    std::size_t pos = begin;
    for (;;) {
      pos = k.skip_separators(data, pos, end);
      if (pos >= end) break;
      const std::size_t word_end = k.find_separator(data, pos, text.size());
      const std::string_view word = text.substr(pos, word_end - pos);
      for (std::size_t p = 0; p < in.patterns.size(); ++p) {
        if (word.size() == in.patterns[p].size() &&
            k.range_equal(word.data(), in.patterns[p].data(), word.size())) {
          emit(static_cast<std::uint64_t>(p), std::uint64_t{1});
          break;
        }
      }
      pos = word_end;
    }
  }
};

// Serial reference: pattern index -> match count (only matched patterns).
std::map<std::uint64_t, std::uint64_t> string_match_reference(
    const SmInput& in);

}  // namespace ramr::apps
