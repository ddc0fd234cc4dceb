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
// Like Word Count, the app maps over any SplitSource: slurped text or an
// io::StreamInput.
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

// The text to scan plus the patterns. A copyable source (slurped
// TextInput) is held by value; a stream, whose live window table cannot be
// copied, by pointer.
template <common::SplitSource Source = TextInput>
struct BasicSmInput {
  std::conditional_t<std::is_copy_constructible_v<Source>, Source,
                     const Source*>
      text;
  std::vector<std::string> patterns;

  const Source& source() const {
    if constexpr (std::is_pointer_v<decltype(text)>) {
      return *text;
    } else {
      return text;
    }
  }
};
using SmInput = BasicSmInput<>;

template <ContainerFlavor F, common::SplitSource Source = TextInput>
struct StringMatchApp {
  static constexpr const char* kName = "sm";

  using input_type = BasicSmInput<Source>;
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::FixedArrayContainer<std::uint64_t,
                                      containers::CountCombiner>,
      containers::FixedHashContainer<std::uint64_t, std::uint64_t,
                                     containers::CountCombiner>>;

  std::size_t num_patterns = 0;  // must match input.patterns.size()
  // Lower-case and strip punctuation per split (text_split); streamed
  // sources only.
  bool fold_words = false;

  std::size_t num_splits(const input_type& in) const {
    return in.source().num_splits();
  }

  container_type make_container() const {
    return container_type(num_patterns == 0 ? 1 : num_patterns);
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    // Same word-ownership rule as Word Count: a split owns the words that
    // start inside its raw byte range.
    std::string folded;
    const common::SplitView v =
        text_split(in.source(), split, fold_words, folded);
    const std::string_view text(v.data, v.size);
    std::size_t begin = v.begin;
    const std::size_t end = v.end;
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
