// Word Count (WC) — enterprise-domain suite app.
//
// Counts word occurrences in a text. The input is split into ~split_bytes
// byte ranges; ranges are snapped to word boundaries (a split that does not
// start at 0 skips its leading partial word; every split finishes the word
// it ends inside). Over slurped text, keys are std::string_view slices of
// the input — zero-copy, as in Phoenix++'s pointer-based keys — so results
// remain valid only while the input string is alive; over a stream they
// are owned strings.
//
// Containers: the key set is not known a priori, so the *default* container
// is a regular hash table (the paper: "except WC that uses thread-local
// hash tables"); the hash flavor is a fixed-size hash table bounded by
// `max_distinct_words`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

#include "apps/flavor.hpp"
#include "common/error.hpp"
#include "common/split_view.hpp"
#include "containers/combiners.hpp"
#include "containers/hash_container.hpp"
#include "simd/kernels.hpp"

namespace ramr::apps {

// Word separator class shared by the tokenizing apps and their references:
// ' ' plus \t \n \v \f \r. The scalar and SIMD scanners share this one
// predicate so they agree byte-for-byte.
using simd::is_word_separator;

// Slurped text: one window over the whole string that outlives the run, so
// the apps key their results by zero-copy views into it.
struct TextInput {
  static constexpr bool kWindowsRetire = false;

  std::string text;
  std::size_t split_bytes = 64 * 1024;

  std::size_t num_splits() const {
    if (text.empty()) return 0;
    return (text.size() + split_bytes - 1) / split_bytes;
  }
  common::SplitView split_view(std::size_t split) const {
    const std::size_t begin = split * split_bytes;
    return {text.data(), text.size(), begin,
            std::min(begin + split_bytes, text.size()), 0};
  }
};

// Normalises real-world text in place so the space-delimited scanners
// apply: every non-alphanumeric byte becomes a space and ASCII letters are
// lower-cased ("Hello, world!" counts as "hello world"). Generated suite
// inputs are already in this form; use this for files (see apps/io.hpp).
void normalize_words(std::string& text);

// fold_words for a read-only window (a stream's mmap windows are
// PROT_READ): copies the split's bytes into `buf` — from begin-1, for the
// word-ownership peek, to the first non-alphanumeric byte at or after
// `end`, so the word crossing `end` is complete — normalizes the copy, and
// returns the split re-based onto it. Map bodies then see exactly the
// words a normalized slurp would give them.
common::SplitView fold_split(const common::SplitView& v, std::string& buf);

// The split a text app's map() scans: the source's own view, or with
// `fold` its folded copy in `buf`. Folding is for owned-key sources only:
// a view key into `buf` would dangle, so slurped text is folded once at
// load time instead (load_text_file).
template <common::SplitSource Source>
common::SplitView text_split(const Source& in, std::size_t split, bool fold,
                             std::string& buf) {
  const common::SplitView v = in.split_view(split);
  if (!fold) return v;
  if constexpr (!Source::kWindowsRetire) {
    throw ConfigError(
        "fold_words needs a streamed source; fold slurped text at load "
        "time (load_text_file)");
  }
  return fold_split(v, buf);
}

// Source: a SplitSource (TextInput, or io::StreamInput for out-of-core
// runs). Sources whose windows retire under the run get owned std::string
// keys; the others keep zero-copy string_view keys.
template <ContainerFlavor F, common::SplitSource Source = TextInput>
struct WordCountApp {
  static constexpr const char* kName = "wc";

  using input_type = Source;
  using key_type = std::conditional_t<Source::kWindowsRetire, std::string,
                                      std::string_view>;
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::HashContainer<key_type, std::uint64_t,
                                containers::CountCombiner>,
      containers::FixedHashContainer<key_type, std::uint64_t,
                                     containers::CountCombiner>>;

  // Capacity bound for the fixed-size hash flavor (and sizing hint for the
  // regular one).
  std::size_t max_distinct_words = 4096;
  // Lower-case and strip punctuation per split (text_split); owned-key
  // sources only.
  bool fold_words = false;

  std::size_t num_splits(const input_type& in) const {
    return in.num_splits();
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
    std::string folded;
    const common::SplitView v = text_split(in, split, fold_words, folded);
    const std::string_view text(v.data, v.size);
    std::size_t begin = v.begin;
    const std::size_t end = v.end;
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
      emit(key_type(text.substr(pos, word_end - pos)), std::uint64_t{1});
      pos = word_end;
    }
  }
};

// Serial reference.
std::map<std::string_view, std::uint64_t> wordcount_reference(
    const TextInput& in);

}  // namespace ramr::apps
