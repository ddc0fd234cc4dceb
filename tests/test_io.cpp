// Tests for the out-of-core streaming input subsystem (src/io/): window
// chunking invariants (record-aligned cuts, carry-over, EOF probe), the
// RAMR_IO* knob validation, streaming-vs-slurped result parity for the
// text/byte suite apps instantiated over io::StreamInput (a seeded sweep
// over window/split shapes, both window sources, fold on and off, WC, SM
// single- and multi-pattern, HG), gzip round-trip,
// IO-lane fault injection, and streaming through the service scheduler.
// Time bounds are generous — this suite runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "apps/io.hpp"
#include "apps/streaming.hpp"
#include "apps/string_match.hpp"
#include "apps/suite.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_fused.hpp"
#include "io/chunk_source.hpp"
#include "io/gzip.hpp"
#include "io/io_config.hpp"
#include "io/stream_feeder.hpp"
#include "io/stream_input.hpp"
#include "pipelined.hpp"
#include "service/scheduler.hpp"
#include "topology/topology.hpp"

namespace ramr {
namespace {

using apps::StreamOptions;
using WcOverStream =
    apps::WordCountApp<apps::ContainerFlavor::kDefault, io::StreamInput>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ramr_io_" + name;
}

std::string write_temp(const std::string& name, std::string_view content) {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  EXPECT_TRUE(out.good()) << path;
  return path;
}

// Engine knobs shared by the streaming runs: small worker counts and
// advisory pinning so the suite runs on any host.
RuntimeConfig stream_config() {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 512;
  cfg.batch_size = 32;
  return cfg;
}

StreamOptions stream_options(io::IoMode mode,
                             std::size_t window = 4096,
                             std::size_t split = 1024) {
  StreamOptions opts;
  opts.config = stream_config();
  opts.io.mode = mode;
  opts.io.window_bytes = window;
  opts.io.depth = 3;
  opts.split_bytes = split;
  return opts;
}

template <typename K, typename V>
std::map<std::string, V> as_map(const std::vector<std::pair<K, V>>& pairs) {
  std::map<std::string, V> m;
  for (const auto& [k, v] : pairs) m[std::string(k)] += v;
  return m;
}

// std::string-keyed view of a reference map (whose keys are views into
// the slurped input).
template <typename K, typename V>
std::map<std::string, V> as_map(const std::map<K, V>& ref) {
  std::map<std::string, V> m;
  for (const auto& [k, v] : ref) m[std::string(k)] += v;
  return m;
}

// ---------- RAMR_IO* knob validation ----------------------------------------

TEST(IoConfig, DefaultIsOffAndFactoryRefusesOff) {
  const io::IoConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  const std::string path = write_temp("off.txt", "hello world");
  EXPECT_THROW(io::open_chunk_source(path, cfg, io::text_record_break),
               ConfigError);
}

// ---------- window chunking invariants --------------------------------------

// Reassemble the stream from windows and check every cut landed on a
// record break; shared by the copy and mmap source tests.
void expect_windowed_exactly(io::ChunkSource& source, std::size_t window,
                             const std::string& expected) {
  std::vector<char> scratch(window);
  std::string reassembled;
  std::uint64_t next_offset = 0;
  for (;;) {
    const io::WindowData w = source.next(scratch.data(), window);
    if (w.size == 0) break;
    EXPECT_LE(w.size, window);
    EXPECT_EQ(w.base_offset, next_offset);
    next_offset += w.size;
    reassembled.append(w.data, w.size);
    const bool final_window = reassembled.size() == expected.size();
    if (!final_window) {
      EXPECT_TRUE(io::text_record_break(w.data[w.size - 1]))
          << "window cut mid-word at offset " << next_offset;
    }
    source.retire(w);
  }
  EXPECT_EQ(reassembled, expected);
  EXPECT_EQ(source.bytes_read(), expected.size());
}

TEST(ChunkSource, CopySourceCutsOnlyAtRecordBreaks) {
  const std::string text = apps::make_text(20000, 120, 5);
  const std::string path = write_temp("copy_cuts.txt", text);
  io::CopyChunkSource source(io::open_buffered_reader(path),
                             io::text_record_break, 96);
  expect_windowed_exactly(source, 96, text);
  EXPECT_GT(source.carry_bytes(), 0u);  // words straddled window edges
}

TEST(ChunkSource, MmapSourceCutsOnlyAtRecordBreaks) {
  const std::string text = apps::make_text(20000, 120, 6);
  const std::string path = write_temp("mmap_cuts.txt", text);
  io::MmapChunkSource source(path, 96, io::text_record_break);
  EXPECT_TRUE(source.zero_copy());
  expect_windowed_exactly(source, 96, text);
}

TEST(ChunkSource, EmptyFileYieldsNoWindows) {
  const std::string path = write_temp("empty.txt", "");
  std::vector<char> scratch(64);
  io::CopyChunkSource copy(io::open_buffered_reader(path),
                           io::text_record_break, 64);
  EXPECT_EQ(copy.next(scratch.data(), 64).size, 0u);
  io::MmapChunkSource mapped(path, 64, io::text_record_break);
  EXPECT_EQ(mapped.next(nullptr, 64).size, 0u);
}

TEST(ChunkSource, RecordLargerThanWindowNamesTheKnob) {
  const std::string giant(300, 'x');  // one record, no break
  const std::string path = write_temp("giant.txt", giant + " tail");
  std::vector<char> scratch(64);
  io::CopyChunkSource copy(io::open_buffered_reader(path),
                           io::text_record_break, 64);
  try {
    copy.next(scratch.data(), 64);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("RAMR_IO_WINDOW"),
              std::string::npos);
  }
  io::MmapChunkSource mapped(path, 64, io::text_record_break);
  EXPECT_THROW(mapped.next(nullptr, 64), ConfigError);
}

TEST(ChunkSource, ExactlyWindowSizedFinalRecordIsNotTooBig) {
  // 64 bytes, no whitespace, EOF right at the window edge: the one-byte
  // probe must discover EOF instead of reporting the record too big.
  const std::string record(64, 'y');
  const std::string path = write_temp("exact.txt", record);
  std::vector<char> scratch(64);
  io::CopyChunkSource source(io::open_buffered_reader(path),
                             io::text_record_break, 64);
  const io::WindowData w = source.next(scratch.data(), 64);
  EXPECT_EQ(w.size, 64u);
  EXPECT_EQ(std::string(w.data, w.size), record);
  EXPECT_EQ(source.next(scratch.data(), 64).size, 0u);
}

// The mmap source reads the file size once, at open; a file that shrinks
// before the next window must give a clean Error, not a SIGBUS on the pages
// past its new end.
TEST(ChunkSource, MmapSourceFailsCleanlyWhenTheFileShrinks) {
  const std::size_t window = 64 * 1024;
  const std::string text = apps::make_text(400000, 300, 11);
  ASSERT_GT(text.size(), 2 * window);
  const std::string path = write_temp("shrink.txt", text);
  io::MmapChunkSource source(path, window, io::text_record_break);
  const io::WindowData first = source.next(nullptr, window);
  ASSERT_GT(first.size, 0u);
  std::filesystem::resize_file(path, 100);
  try {
    source.next(nullptr, window);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("offset " + std::to_string(first.size)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("now has 100"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(text.size())), std::string::npos)
        << what;
  }
  source.retire(first);
}

TEST(ChunkSource, BinaryStreamCutsAnywhere) {
  const std::string blob(1000, 'z');  // no record breaks at all
  const std::string path = write_temp("binary.bin", blob);
  std::vector<char> scratch(256);
  io::CopyChunkSource source(io::open_buffered_reader(path), nullptr, 256);
  std::size_t total = 0;
  for (;;) {
    const io::WindowData w = source.next(scratch.data(), 256);
    if (w.size == 0) break;
    total += w.size;
  }
  EXPECT_EQ(total, blob.size());
}

// ---------- streaming vs slurped parity -------------------------------------

TEST(StreamingParity, WordCountMatchesSlurpedUnderBothSources) {
  const std::string text = apps::make_text(200000, 300, 7);
  const std::string path = write_temp("wc_parity.txt", text);
  const apps::TextInput slurped = apps::load_text_file(path, 1024);
  const auto ref = apps::wordcount_reference(slurped);

  for (const io::IoMode mode : {io::IoMode::kMmap, io::IoMode::kDirect}) {
    const auto result =
        apps::run_wordcount_stream(path, stream_options(mode));
    EXPECT_EQ(as_map(result.pairs), as_map(ref))
        << "mode " << io::to_string(mode);
    EXPECT_TRUE(result.io.enabled());
    EXPECT_EQ(result.io.mode, io::to_string(mode));
    EXPECT_EQ(result.io.bytes_read, text.size());
    EXPECT_GE(result.io.windows,
              text.size() / stream_options(mode).io.window_bytes);
    EXPECT_EQ(result.io.window_bytes, 4096u);
    EXPECT_EQ(result.io.depth, 3u);
    EXPECT_GT(result.peak_rss_bytes, 0u);
  }
}

TEST(StreamingParity, FoldedWordCountMatchesNormalizedSlurp) {
  const std::string prose =
      "The quick brown Fox, the QUICK fox; jumps!\nOver the lazy dog. "
      "fox Fox FOX?";
  const std::string path = write_temp("wc_fold.txt", prose);
  const apps::TextInput slurped = apps::load_text_file(path, 16, true);
  const auto ref = apps::wordcount_reference(slurped);

  StreamOptions opts = stream_options(io::IoMode::kMmap, 4096, 16);
  opts.fold_words = true;
  const auto result = apps::run_wordcount_stream(path, opts);
  EXPECT_EQ(as_map(result.pairs), as_map(ref));
  EXPECT_EQ(as_map(result.pairs).at("fox"), 5u);
}

TEST(StreamingParity, HistogramRotationSurvivesWindowCuts) {
  // Windows of a binary stream cut anywhere; the channel of a byte is its
  // absolute offset mod 3, so any base_offset bug shifts whole windows
  // into the wrong channel.
  const std::vector<std::uint8_t> pixels = apps::make_pixels(100000, 9);
  const std::string path = write_temp(
      "hg_parity.bin",
      std::string_view(reinterpret_cast<const char*>(pixels.data()),
                       pixels.size()));
  const auto ref = apps::histogram_reference({pixels, 1024});

  // 1000-byte window: not a multiple of 3, so the rotation is exercised.
  const StreamOptions opts = stream_options(io::IoMode::kMmap, 1000, 300);
  const auto binned = [](const auto& pairs) {
    std::map<std::uint64_t, std::uint64_t> got;
    for (const auto& [k, v] : pairs) {
      if (v != 0) got[k] += v;
    }
    return got;
  };
  EXPECT_EQ(binned(apps::run_histogram_stream(path, opts).pairs), ref);

  // The same stream through the decoupled pipeline (core::Runtime runs HG
  // fused by its trait).
  io::StreamInput input(opts.io, opts.split_bytes);
  io::StreamFeeder feeder(io::open_chunk_source(path, opts.io, nullptr),
                          input, opts.io);
  const apps::HistogramApp<apps::ContainerFlavor::kDefault, io::StreamInput>
      app;
  const auto piped =
      testing::run_pipelined_stream(app, input, feeder, opts.config);
  EXPECT_GT(piped.queue_pushes, 0u);
  EXPECT_EQ(binned(piped.pairs), ref);
}

// Seeded prose for the sweep: mixed-case words, some with punctuation
// attached (or joining two words with no space), separated by runs drawn
// from the whole whitespace class — so split and window edges land inside
// words, inside punctuation and inside separator runs.
std::string make_prose(std::size_t approx_bytes, std::uint64_t seed) {
  static const char* const kWords[] = {"the", "The", "THE",   "fox",
                                       "Fox", "FOX", "quick", "brown",
                                       "dog", "x-ray", "it's", "2020",
                                       "a",   "jumps"};
  static const char* const kPunct[] = {"", "", "", ",", ".", ";", "!", "'"};
  static const char* const kSeps[] = {" ", " ",   "  ", "\t", "\n",
                                      "\r\n", "\v", "\f", ""};
  Xoshiro256 rng(seed);
  std::string out;
  while (out.size() < approx_bytes) {
    out += kWords[rng.below(std::size(kWords))];
    const char* punct = kPunct[rng.below(std::size(kPunct))];
    out += punct;
    const char* sep = kSeps[rng.below(std::size(kSeps))];
    out += (*sep == '\0' && *punct == '\0') ? " " : sep;
  }
  return out;
}

// Every cell of the sweep — (window, split) x source x fold x app — against
// the serial reference over the slurped file.
TEST(StreamingParity, SweepMatchesSlurpedReference) {
  const std::string path = write_temp("sweep.txt", make_prose(6000, 21));
  const apps::PixelInput pixels = apps::load_binary_file(path, 1024);
  const auto hg_ref = apps::histogram_reference(pixels);
  const std::vector<std::string> one = {"fox"};
  const std::vector<std::string> many = {"the", "Fox",  "fox", "x-ray",
                                         "dog.", "2020", "fox", "absent"};

  // Fixed corner pairs (1-byte splits, windows not a multiple of the split)
  // plus seeded random ones.
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {64, 1}, {100, 7}, {1000, 300}, {4096, 4096}};
  Xoshiro256 rng(22);
  for (int i = 0; i < 4; ++i) {
    const std::size_t window = 64 + rng.below(2000);
    shapes.emplace_back(window, 1 + rng.below(window + 64));
  }

  for (const bool fold : {false, true}) {
    const apps::TextInput slurped = apps::load_text_file(path, 1024, fold);
    const auto wc_ref = as_map(apps::wordcount_reference(slurped));
    const auto sm_one_ref =
        apps::string_match_reference(apps::SmInput{slurped, one});
    const auto sm_many_ref =
        apps::string_match_reference(apps::SmInput{slurped, many});
    ASSERT_FALSE(sm_one_ref.empty());
    ASSERT_GT(sm_many_ref.size(), 2u);
    for (const auto& [window, split] : shapes) {
      for (const io::IoMode mode : {io::IoMode::kMmap, io::IoMode::kDirect}) {
        SCOPED_TRACE(::testing::Message()
                     << "window " << window << " split " << split << " "
                     << io::to_string(mode) << " fold " << fold);
        StreamOptions opts = stream_options(mode, window, split);
        opts.fold_words = fold;
        EXPECT_EQ(as_map(apps::run_wordcount_stream(path, opts).pairs),
                  wc_ref);
        const auto sm_one = apps::run_string_match_stream(path, one, opts);
        EXPECT_EQ((std::map<std::uint64_t, std::uint64_t>(
                      sm_one.pairs.begin(), sm_one.pairs.end())),
                  sm_one_ref);
        const auto sm_many = apps::run_string_match_stream(path, many, opts);
        EXPECT_EQ((std::map<std::uint64_t, std::uint64_t>(
                      sm_many.pairs.begin(), sm_many.pairs.end())),
                  sm_many_ref);
        if (fold) continue;  // histograms bin raw bytes
        std::map<std::uint64_t, std::uint64_t> hg;
        for (const auto& [k, v] : apps::run_histogram_stream(path, opts).pairs) {
          if (v != 0) hg[k] += v;
        }
        EXPECT_EQ(hg, hg_ref);
      }
    }
  }
}

TEST(StreamingParity, EmptyInputProducesEmptyResult) {
  const std::string path = write_temp("empty_run.txt", "");
  const auto result =
      apps::run_wordcount_stream(path, stream_options(io::IoMode::kMmap));
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.io.windows, 0u);
  EXPECT_EQ(result.io.bytes_read, 0u);
}

TEST(StreamingParity, GzipRoundTripMatchesPlainText) {
  if (!io::gzip_supported()) {
    GTEST_SKIP() << "built without zlib";
  }
  const std::string text = apps::make_text(80000, 150, 10);
  const std::string plain = write_temp("gz_ref.txt", text);
  const std::string gz = temp_path("gz_input.txt.gz");
  io::write_gzip_file(gz, text);

  const apps::TextInput slurped = apps::load_text_file(plain, 1024);
  const auto ref = apps::wordcount_reference(slurped);
  const auto result =
      apps::run_wordcount_stream(gz, stream_options(io::IoMode::kMmap));
  EXPECT_EQ(as_map(result.pairs), as_map(ref));
  EXPECT_EQ(result.io.source, "gzip");  // .gz routes through inflate
  EXPECT_EQ(result.io.bytes_read, text.size());  // decompressed bytes
}

TEST(Streaming, MissingFileCarriesErrnoDetail) {
  try {
    apps::run_wordcount_stream(temp_path("does_not_exist.txt"),
                               stream_options(io::IoMode::kMmap));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("errno"), std::string::npos);
  }
}

// ---------- IO-lane fault injection ----------------------------------------

TEST(StreamingFaults, PermanentReadFaultAbortsNamingTheIoLane) {
  const std::string text = apps::make_text(60000, 100, 11);
  const std::string path = write_temp("fault_perm.txt", text);
  StreamOptions opts = stream_options(io::IoMode::kMmap);
  opts.config.fault_spec = "io_read=1,io_fires=1";
  try {
    apps::run_wordcount_stream(path, opts);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("io-lane"), std::string::npos);
  }
}

TEST(StreamingFaults, TransientReadFaultIsRetriedWithParity) {
  const std::string text = apps::make_text(60000, 100, 12);
  const std::string path = write_temp("fault_transient.txt", text);
  const apps::TextInput slurped = apps::load_text_file(path, 1024);
  const auto ref = apps::wordcount_reference(slurped);

  StreamOptions opts = stream_options(io::IoMode::kMmap);
  opts.config.fault_spec = "io_read=1,io_fires=1,io_transient=1";
  opts.config.max_task_retries = 2;
  const auto result = apps::run_wordcount_stream(path, opts);
  EXPECT_EQ(result.io.io_retries, 1u);
  EXPECT_EQ(as_map(result.pairs), as_map(ref));
}

// ---------- strategy and service coverage -----------------------------------

TEST(Streaming, FusedStrategyMatchesPipelined) {
  const std::string text = apps::make_text(100000, 200, 13);
  const std::string path = write_temp("fused.txt", text);
  const apps::TextInput slurped = apps::load_text_file(path, 1024);
  const auto ref = apps::wordcount_reference(slurped);

  const StreamOptions opts = stream_options(io::IoMode::kMmap);
  io::StreamInput input(opts.io, opts.split_bytes);
  io::StreamFeeder feeder(
      io::open_chunk_source(path, opts.io, io::text_record_break), input,
      opts.io);
  const WcOverStream app;
  engine::PoolSet pools(topo::host(), 2, PinPolicy::kOsDefault);
  engine::PhaseDriver driver(pools);
  engine::FusedCombine<WcOverStream> strategy;
  const auto result = driver.run_stream(strategy, app, input, feeder);
  EXPECT_EQ(as_map(result.pairs), as_map(ref));
  EXPECT_EQ(result.io.source, "mmap");
}

TEST(Streaming, ServiceJobRunsStreamThroughScheduler) {
  const std::string text = apps::make_text(100000, 200, 14);
  const std::string path = write_temp("service.txt", text);
  const apps::TextInput slurped = apps::load_text_file(path, 1024);
  const auto ref = apps::wordcount_reference(slurped);

  service::Scheduler sched(topo::make_server("io-test", 1, 4, 2));
  service::JobSpec spec;
  spec.cores = 4;
  spec.config = stream_config();
  spec.name = "wc-stream";
  std::map<std::string, std::uint64_t> got;
  const service::JobId id =
      sched.submit(spec, [&](service::JobContext& ctx) {
        const StreamOptions opts = stream_options(io::IoMode::kMmap);
        io::StreamInput input(opts.io, opts.split_bytes);
        io::StreamFeeder feeder(
            io::open_chunk_source(path, opts.io, io::text_record_break),
            input, opts.io);
        const WcOverStream app;
        got = as_map(ctx.run_stream(app, input, feeder).pairs);
      });
  const service::JobReport report = sched.wait(id);
  EXPECT_EQ(report.status, service::JobStatus::kDone) << report.error;
  EXPECT_EQ(got, as_map(ref));
}

}  // namespace
}  // namespace ramr
