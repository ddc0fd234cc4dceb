// File-driven word count: point the runtime at a real text file and write
// the counts to CSV — the I/O path a downstream user takes first.
//
//   $ ./file_wordcount INPUT.txt [OUTPUT.csv]
//   $ RAMR_IO=mmap ./file_wordcount INPUT.txt       # out-of-core streaming
//   $ ./file_wordcount --make-corpus=BYTES PATH     # write a corpus, exit
//
// With RAMR_IO unset the whole file is slurped into memory (the original
// path). RAMR_IO=mmap|direct switches to the streaming subsystem
// (src/io/): bounded windows fed to the mappers by an IO lane, so inputs
// far larger than RAM — or than a ulimit -v cap — still run with a flat
// memory high-water (the run report's peak_rss_bytes shows it).
// --make-corpus generates a deterministic text corpus of the given size in
// bounded slices; CI's streaming smoke uses it to build multi-hundred-MB
// inputs without a multi-hundred-MB process.
//
// Without arguments it generates a sample file in the system temp
// directory first, so the example is runnable out of the box.
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "apps/inputs.hpp"
#include "apps/io.hpp"
#include "apps/streaming.hpp"
#include "core/runtime.hpp"
#include "io/io_config.hpp"

using namespace ramr;

namespace {

int make_corpus(const std::string& arg, const std::string& path) {
  const std::uint64_t bytes = std::stoull(arg);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot open '" << path << "' for writing\n";
    return 1;
  }
  // 1 MiB deterministic slices: corpus size is unbounded, process RSS not.
  constexpr std::uint64_t kSlice = 1 << 20;
  std::uint64_t written = 0;
  for (std::uint32_t i = 0; written < bytes; ++i) {
    const std::string slice = apps::make_text(
        static_cast<std::size_t>(std::min(kSlice, bytes - written)), 5000,
        i + 1);
    out.write(slice.data(), static_cast<std::streamsize>(slice.size()));
    written += slice.size();
  }
  std::cout << "wrote " << written << " bytes to " << path << '\n';
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kCorpus = "--make-corpus=";
  if (argc >= 2 && std::string(argv[1]).rfind(kCorpus, 0) == 0) {
    if (argc < 3) {
      std::cerr << "usage: file_wordcount --make-corpus=BYTES PATH\n";
      return 1;
    }
    return make_corpus(std::string(argv[1]).substr(kCorpus.size()),
                       argv[2]);
  }

  std::string in_path;
  std::string out_path = "wordcount.csv";
  if (argc >= 2) {
    in_path = argv[1];
    if (argc >= 3) out_path = argv[2];
  } else {
    // Self-contained mode: synthesise a sample input file.
    in_path =
        (std::filesystem::temp_directory_path() / "ramr_sample.txt").string();
    std::ofstream sample(in_path);
    sample << apps::make_text(256 * 1024, 300, 123);
    std::cout << "(no input given; wrote sample text to " << in_path << ")\n";
  }

  try {
    RuntimeConfig base;
    base.mapper_combiner_ratio = 2;
    base.pin_policy = PinPolicy::kOsDefault;
    const RuntimeConfig config = RuntimeConfig::from_env(base);
    const io::IoConfig& io_cfg = config.io;

    if (io_cfg.enabled()) {
      // Streaming path: the file is never fully resident.
      std::cout << "streaming words from " << in_path << " ("
                << config.summary() << ")\n";
      apps::StreamOptions opts;
      opts.config = config;
      opts.io = io_cfg;
      opts.fold_words = true;
      const auto result = apps::run_wordcount_stream(in_path, opts);
      apps::save_pairs_csv(out_path, result.pairs);
      std::cout << result.pairs.size() << " distinct words -> " << out_path
                << '\n'
                << "phases: " << result.timers.summary() << '\n'
                << result.io.summary() << '\n'
                << "peak_rss_bytes: " << result.peak_rss_bytes << '\n';
      return 0;
    }

    const apps::TextInput input =
        apps::load_text_file(in_path, 32 * 1024, /*fold_words=*/true);
    std::cout << "counting words in " << in_path << " ("
              << input.text.size() << " bytes)\n";

    const apps::WordCountApp<apps::ContainerFlavor::kDefault> app;
    const auto result = core::run_once(app, input, config);

    apps::save_pairs_csv(out_path, result.pairs);
    std::cout << result.pairs.size() << " distinct words -> " << out_path
              << '\n'
              << "phases: " << result.timers.summary() << '\n'
              << "peak_rss_bytes: " << result.peak_rss_bytes << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
