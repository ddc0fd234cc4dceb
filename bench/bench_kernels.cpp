// Hot-path microbench: the SIMD map kernels, measured as real wall-clock on
// the host it runs on.
//
// Times each map-side kernel primitive through the scalar table and through
// the table simd::active() dispatches to (the widest the CPU supports) over
// suite-shaped inputs, and reports the speedup. The "wc key hash" row times
// the combine side of WC instead: std::hash<std::string_view> (scalar
// column) against containers::KeyHash (native column) over every token of
// the same text. The "wc key sort" row times WC's merge-phase key sort:
// std::sort (scalar column) against containers::sort_by_key (native
// column) over the text's distinct (word, count) pairs in container order.
//
// Inputs scale with RAMR_BENCH_SCALE (default 4; larger = smaller inputs)
// and each cell is the best of RAMR_BENCH_REPS timed repetitions (default
// 5) to suppress scheduler noise.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/inputs.hpp"
#include "apps/wordcount.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/timing.hpp"
#include "containers/container_traits.hpp"
#include "containers/key_hash.hpp"
#include "containers/key_sort.hpp"
#include "simd/kernels.hpp"
#include "stats/table.hpp"
#include "topology/topology.hpp"

using namespace ramr;

namespace {

// Defeats dead-code elimination of the measured loops.
volatile std::uint64_t g_sink = 0;
void sink(std::uint64_t v) { g_sink = g_sink + v; }

template <typename F>
double best_seconds(std::size_t reps, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = now();
    body();
    best = std::min(best, seconds_between(t0, now()));
  }
  return best;
}

void report_kernel(stats::Table& table, const char* name, std::size_t bytes,
                   double scalar_s, double native_s, const char* path) {
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  table.add_row({name, stats::Table::fmt(mb, 1),
                 stats::Table::fmt(scalar_s * 1e3, 3),
                 stats::Table::fmt(native_s * 1e3, 3), path,
                 stats::Table::fmt(scalar_s / native_s, 2)});
}

// One full tokenize pass (the WC/SM inner loop shape); returns word count.
std::uint64_t tokenize_pass(const simd::Kernels& k, const std::string& text) {
  std::uint64_t words = 0;
  const char* d = text.data();
  const std::size_t n = text.size();
  std::size_t pos = 0;
  for (;;) {
    pos = k.skip_separators(d, pos, n);
    if (pos >= n) break;
    pos = k.find_separator(d, pos, n);
    ++words;
  }
  return words;
}

// Every word of `text`, as the WC map emits them.
std::vector<std::string_view> tokenize(const simd::Kernels& k,
                                       const std::string& text) {
  std::vector<std::string_view> words;
  const char* d = text.data();
  const std::size_t n = text.size();
  std::size_t pos = 0;
  for (;;) {
    pos = k.skip_separators(d, pos, n);
    if (pos >= n) break;
    const std::size_t end = k.find_separator(d, pos, n);
    words.emplace_back(d + pos, end - pos);
    pos = end;
  }
  return words;
}

using WordPairs = std::vector<std::pair<std::string_view, std::uint64_t>>;

// Best time of `sort` over a fresh copy of `pairs` (the copy is untimed).
template <typename Sort>
double best_sort_seconds(std::size_t reps, const WordPairs& pairs,
                         Sort&& sort) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    WordPairs work = pairs;
    const auto t0 = now();
    sort(work);
    best = std::min(best, seconds_between(t0, now()));
    sink(work.front().second);
  }
  return best;
}

template <typename Hash>
std::uint64_t hash_pass(const std::vector<std::string_view>& words) {
  std::uint64_t acc = 0;
  for (std::string_view w : words) acc += Hash{}(w);
  return acc;
}

// The SM single-pattern scan: first-byte probe + boundary + tail compare.
std::uint64_t match_pass(const simd::Kernels& k, const std::string& text,
                         const std::string& pat) {
  std::uint64_t hits = 0;
  const char* d = text.data();
  const std::size_t n = text.size();
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t c = k.find_byte(d, pos, n, pat[0]);
    if (c >= n) break;
    if (c == 0 || simd::is_word_separator(text[c - 1])) {
      const std::size_t we = c + pat.size();
      if (we <= n && (we == n || simd::is_word_separator(text[we])) &&
          k.range_equal(d + c + 1, pat.data() + 1, pat.size() - 1)) {
        ++hits;
        pos = we;
        continue;
      }
    }
    pos = c + 1;
  }
  return hits;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "kernels");
  const std::uint64_t scale = env::get_uint("RAMR_BENCH_SCALE", 4);
  const std::size_t reps =
      static_cast<std::size_t>(env::get_uint("RAMR_BENCH_REPS", 5));

  const simd::Active& native = simd::active();
  const simd::Kernels& ks = simd::scalar_kernels();
  const simd::Kernels& kn = *native.kernels;

  bench::banner(
      "Map kernel throughput: scalar table vs native (" +
          std::string(native.path) + ") on this host",
      "the dispatched map-kernel path; methodology of the native benches");
  std::cout << "host: " << topo::host().summary()
            << "  probed isa: " << common::to_string(native.isa) << "\n\n";

  stats::Table table({"kernel", "input (MiB)", "scalar (ms)", "native (ms)",
                      "path", "speedup"});

  {
    const std::string text =
        apps::make_text(16 * 1024 * 1024 / scale, 4096, 7);
    const double ts =
        best_seconds(reps, [&] { sink(tokenize_pass(ks, text)); });
    const double tn =
        best_seconds(reps, [&] { sink(tokenize_pass(kn, text)); });
    report_kernel(table, "wc tokenize", text.size(), ts, tn, native.path);

    // Pattern: a mid-frequency vocabulary word pulled from the text.
    const std::size_t w0 = text.find_first_not_of(' ');
    const std::string pat =
        text.substr(w0, text.find(' ', w0) - w0);
    const double ss =
        best_seconds(reps, [&] { sink(match_pass(ks, text, pat)); });
    const double sn =
        best_seconds(reps, [&] { sink(match_pass(kn, text, pat)); });
    report_kernel(table, "sm scan", text.size(), ss, sn, native.path);

    const std::vector<std::string_view> words = tokenize(kn, text);
    const double hs = best_seconds(reps, [&] {
      sink(hash_pass<std::hash<std::string_view>>(words));
    });
    const double hk = best_seconds(reps, [&] {
      sink(hash_pass<containers::KeyHash<std::string_view>>(words));
    });
    report_kernel(table, "wc key hash", text.size(), hs, hk, "KeyHash");

    auto counts = apps::WordCountApp<apps::ContainerFlavor::kDefault>{}
                      .make_container();
    for (std::string_view w : words) counts.emit(w, 1);
    const WordPairs pairs = containers::to_pairs(counts);
    const double ss_sort = best_sort_seconds(reps, pairs, [](WordPairs& p) {
      std::sort(p.begin(), p.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
    });
    const double sk_sort = best_sort_seconds(
        reps, pairs, [](WordPairs& p) { containers::sort_by_key(p); });
    report_kernel(table, "wc key sort", text.size(), ss_sort, sk_sort,
                  "sort_by_key");
  }
  {
    const std::vector<std::uint8_t> pixels =
        apps::make_pixels(24 * 1024 * 1024 / scale, 11);
    std::vector<std::uint64_t> bins(apps::kHistogramBins);
    const auto run = [&](const simd::Kernels& k) {
      std::memset(bins.data(), 0, bins.size() * sizeof(bins[0]));
      k.histogram_channels(pixels.data(), pixels.size(), 0, bins.data());
      sink(bins[0]);
    };
    const double hs = best_seconds(reps, [&] { run(ks); });
    const double hn = best_seconds(reps, [&] { run(kn); });
    report_kernel(table, "hg bin", pixels.size(), hs, hn, native.path);
  }
  {
    const std::vector<apps::LrPoint> pts =
        apps::make_lr_points(8 * 1024 * 1024 / scale, 13);
    const auto run = [&](const simd::Kernels& k) {
      std::int64_t m[5] = {};
      k.lr_moments(reinterpret_cast<const std::int16_t*>(pts.data()),
                   pts.size(), m);
      sink(static_cast<std::uint64_t>(m[4]));
    };
    const double ls = best_seconds(reps, [&] { run(ks); });
    const double ln = best_seconds(reps, [&] { run(kn); });
    report_kernel(table, "lr moments", pts.size() * sizeof(apps::LrPoint),
                  ls, ln, native.path);
  }
  {
    const apps::Matrix m = apps::make_matrix(2, 1024 * 1024 / scale, 17);
    const double* a = m.data.data();
    const double* b = a + m.cols;
    const auto run = [&](const simd::Kernels& k) {
      sink(static_cast<std::uint64_t>(
          k.dot_centered_f64(a, b, 0.01, -0.02, m.cols)));
      sink(static_cast<std::uint64_t>(k.sum_f64(a, m.cols)));
    };
    const double ps = best_seconds(reps, [&] { run(ks); });
    const double pn = best_seconds(reps, [&] { run(kn); });
    report_kernel(table, "pca reduce", 2 * m.cols * sizeof(double), ps, pn,
                  native.path);
  }
  bench::print(table);
  std::cout << "\n(speedup > 1: the dispatched table is faster than the "
               "scalar reference; for wc key hash, KeyHash is faster than "
               "std::hash; for wc key sort, sort_by_key is faster than "
               "std::sort)\n";
  return 0;
}
