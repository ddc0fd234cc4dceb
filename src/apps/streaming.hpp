// Out-of-core runs of the text/byte suite apps — the app side of the
// RAMR_IO subsystem (src/io/).
//
// There are no streaming apps: WordCountApp, StringMatchApp and
// HistogramApp map over any SplitSource (common/split_view.hpp), and an
// io::StreamInput is one. Instantiated over a stream they emit owned keys
// (window memory retires under the run) and, with fold_words, normalize a
// private copy of each split inside map() (mmap windows are read-only).
// The word-ownership rule holds within a window, and window edges need no
// rule at all: the chunk source snaps every cut to a record break, so a
// window always starts at a word start.
//
// The run_*_stream helpers below wire a whole streaming run:
// source → feeder → core::Runtime::run_stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/string_match.hpp"
#include "apps/wordcount.hpp"
#include "common/config.hpp"
#include "engine/result.hpp"
#include "io/io_config.hpp"
#include "io/stream_input.hpp"

namespace ramr::apps {

// Knobs for one streaming invocation. `io.mode` must not be kOff
// (open_chunk_source throws ConfigError otherwise); the RAMR_IO* knobs
// arrive as RuntimeConfig::from_env().io.
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
