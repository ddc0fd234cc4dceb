// Streaming (out-of-core) variants of the text/byte suite apps — the app
// side of the RAMR_IO subsystem (src/io/).
//
// The materialized apps scan one big normalized string; these scan bounded
// io::StreamInput windows instead, with two deliberate differences:
//
//   * keys are OWNED (std::string, not std::string_view): window memory
//     retires as soon as its tasks complete, so no emitted key may point
//     into it;
//   * normalization happens per character during the scan (classify) —
//     the window is read-only (mmap PROT_READ), so the in-place rewriting
//     load_text_file does is impossible. The classification is the same
//     function, so streaming and slurped runs produce identical pairs.
//
// The word-ownership rule is unchanged *within* a window (a split owns the
// words that start inside its byte range, finishing a word that crosses
// its end), and window edges need no rule at all: the chunk source snaps
// every cut to a record break, so a window always starts at a word start.
//
// The run_*_stream helpers at the bottom wire a whole streaming run:
// source → feeder → core::Runtime::run_stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "common/config.hpp"
#include "containers/combiners.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "engine/result.hpp"
#include "io/io_config.hpp"
#include "io/stream_input.hpp"

namespace ramr::apps {

// Per-character normalization matching load_text_file: fold = false maps
// whitespace to ' ' and keeps everything else (case, punctuation) as word
// bytes; fold = true (normalize_words) lower-cases letters and maps every
// non-alphanumeric byte to ' '.
inline char stream_classify(char c, bool fold) {
  const unsigned char u = static_cast<unsigned char>(c);
  if (fold) {
    if (u >= 'A' && u <= 'Z') return static_cast<char>(u - 'A' + 'a');
    if ((u >= 'a' && u <= 'z') || (u >= '0' && u <= '9')) return c;
    return ' ';
  }
  if (c == '\n' || c == '\r' || c == '\t' || c == '\v' || c == '\f') {
    return ' ';
  }
  return c;
}

// Word Count over a stream. Container: regular hash (unknown key set),
// owned string keys.
struct StreamWordCountApp {
  static constexpr const char* kName = "wc-stream";

  using input_type = io::StreamInput;
  using container_type =
      containers::HashContainer<std::string, std::uint64_t,
                                containers::CountCombiner>;

  std::size_t max_distinct_words = 4096;
  bool fold_words = false;

  // Streaming runs never distribute a precomputed split count; this is
  // the AppSpec surface only (and the count so far, for diagnostics).
  std::size_t num_splits(const input_type& in) const {
    return in.published_splits();
  }

  container_type make_container() const {
    return container_type(max_distinct_words);
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const io::StreamInput::SplitView v = in.split_view(split);
    const char* text = v.window_data;
    const auto cls = [&](std::size_t i) {
      return stream_classify(text[i], fold_words);
    };
    std::size_t begin = v.begin;
    const std::size_t end = v.end;
    // Word-ownership rule within the window; begin == 0 is a true word
    // start because the source snapped the window cut to a record break.
    if (begin != 0 && cls(begin - 1) != ' ') {
      while (begin < end && cls(begin) != ' ') ++begin;
    }
    std::string word;
    std::size_t pos = begin;
    for (;;) {
      while (pos < end && cls(pos) == ' ') ++pos;
      if (pos >= end) break;  // next word starts in the next split
      word.clear();
      while (pos < v.window_size) {
        const char c = cls(pos);
        if (c == ' ') break;
        word.push_back(c);
        ++pos;
      }
      emit(word, std::uint64_t{1});
    }
  }
};

// String Match over a stream: the pattern list rides along with the
// stream pointer (the engine sees one input_type value).
struct StreamSmInput {
  const io::StreamInput* stream = nullptr;
  std::vector<std::string> patterns;
};

struct StreamStringMatchApp {
  static constexpr const char* kName = "sm-stream";

  using input_type = StreamSmInput;
  using container_type =
      containers::FixedArrayContainer<std::uint64_t,
                                      containers::CountCombiner>;

  std::size_t num_patterns = 0;  // must match input.patterns.size()
  bool fold_words = false;

  std::size_t num_splits(const input_type& in) const {
    return in.stream->published_splits();
  }

  container_type make_container() const {
    return container_type(num_patterns == 0 ? 1 : num_patterns);
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const io::StreamInput::SplitView v = in.stream->split_view(split);
    const char* text = v.window_data;
    const auto cls = [&](std::size_t i) {
      return stream_classify(text[i], fold_words);
    };
    std::size_t begin = v.begin;
    const std::size_t end = v.end;
    if (begin != 0 && cls(begin - 1) != ' ') {
      while (begin < end && cls(begin) != ' ') ++begin;
    }
    std::string word;
    std::size_t pos = begin;
    for (;;) {
      while (pos < end && cls(pos) == ' ') ++pos;
      if (pos >= end) break;
      word.clear();
      while (pos < v.window_size) {
        const char c = cls(pos);
        if (c == ' ') break;
        word.push_back(c);
        ++pos;
      }
      for (std::size_t p = 0; p < in.patterns.size(); ++p) {
        if (word == in.patterns[p]) {
          emit(static_cast<std::uint64_t>(p), std::uint64_t{1});
          break;
        }
      }
    }
  }
};

// Histogram over a byte stream, through the same emit_histogram as
// HistogramApp. The channel of a byte is its *absolute* stream position
// mod 3 — SplitView::window_base keeps the rotation correct across windows
// (binary streams cut anywhere: the source gets a null RecordBreak).
struct StreamHistogramApp {
  static constexpr const char* kName = "hg-stream";

  using input_type = io::StreamInput;
  using container_type =
      containers::FixedArrayContainer<std::uint64_t,
                                      containers::CountCombiner>;

  std::size_t num_splits(const input_type& in) const {
    return in.published_splits();
  }

  container_type make_container() const {
    return container_type(kHistogramBins);
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const io::StreamInput::SplitView v = in.split_view(split);
    emit_histogram(
        reinterpret_cast<const std::uint8_t*>(v.window_data) + v.begin,
        v.end - v.begin, (v.window_base + v.begin) % 3, emit);
  }
};

// ---- whole-run helpers ------------------------------------------------------

// Knobs for one streaming invocation. `io.mode` must not be kOff
// (open_chunk_source throws ConfigError otherwise); IoConfig::from_env()
// resolves the RAMR_IO* knobs.
struct StreamOptions {
  RuntimeConfig config;               // engine knobs (resolved by Runtime)
  io::IoConfig io;                    // mode, window, depth
  std::size_t split_bytes = 64 * 1024;
  bool fold_words = false;
  std::size_t max_distinct_words = 64 * 1024;  // wc hash sizing
};

using StreamWordCountResult = engine::RunResult<std::string, std::uint64_t>;
using StreamMatchResult = engine::RunResult<std::uint64_t, std::uint64_t>;
using StreamHistogramResult = engine::RunResult<std::uint64_t, std::uint64_t>;

// Each helper builds source → StreamInput → StreamFeeder → Runtime and
// runs once on the host topology. Throws ramr::Error / ConfigError on
// unreadable input or bad RAMR_IO* knobs.
StreamWordCountResult run_wordcount_stream(const std::string& path,
                                           const StreamOptions& opts);
StreamMatchResult run_string_match_stream(
    const std::string& path, const std::vector<std::string>& patterns,
    const StreamOptions& opts);
StreamHistogramResult run_histogram_stream(const std::string& path,
                                           const StreamOptions& opts);

}  // namespace ramr::apps
