// Tests for the SIMD kernel layer (src/simd/), the whitespace-class
// tokenizer, and the emit traffic the kernel-table map loops produce.
//
// The load-bearing properties:
//   * every kernel table (scalar / sse2 / avx2, as built) returns
//     bit-identical results over adversarial inputs — unaligned heads and
//     tails, runs shorter than one vector, matches straddling split
//     boundaries;
//   * the apps produce reference-identical output through every built
//     table, including words/matches split across task boundaries (the
//     streaming split-ownership rule);
//   * the histogram and linear-regression maps combine in-map, so their
//     emit traffic is bounded per split — which is what lets MRPhi's
//     atomic global container do without sharding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/global_apps.hpp"
#include "apps/inputs.hpp"
#include "apps/pca.hpp"
#include "apps/string_match.hpp"
#include "apps/wordcount.hpp"
#include "mrphi/runtime.hpp"
#include "pipelined.hpp"
#include "simd/kernels.hpp"
#include "topology/topology.hpp"

namespace ramr {
namespace {

using simd::Kernels;

// Every table this build produced, named for failure messages.
std::vector<std::pair<std::string, const Kernels*>> built_tables() {
  std::vector<std::pair<std::string, const Kernels*>> tables;
  tables.emplace_back("scalar", &simd::scalar_kernels());
  if (const Kernels* k = simd::sse2_kernels()) tables.emplace_back("sse2", k);
  if (const Kernels* k = simd::avx2_kernels()) tables.emplace_back("avx2", k);
  return tables;
}

// Adversarial text: words and separator runs of varied lengths (many
// shorter than one 16/32-byte vector), the full separator class, and high
// bytes (>= 0x80, negative under signed compare) inside words.
std::string adversarial_text(std::uint64_t seed, std::size_t approx) {
  std::mt19937_64 rng(seed);
  const char seps[] = {' ', '\t', '\n', '\v', '\f', '\r'};
  std::string text;
  while (text.size() < approx) {
    const std::size_t wlen = 1 + rng() % 40;
    for (std::size_t i = 0; i < wlen; ++i) {
      // Word bytes: letters plus occasional high bytes.
      text.push_back(rng() % 8 == 0 ? static_cast<char>(0x80 + rng() % 0x7F)
                                    : static_cast<char>('a' + rng() % 26));
    }
    const std::size_t slen = 1 + rng() % 5;
    for (std::size_t i = 0; i < slen; ++i) {
      text.push_back(seps[rng() % sizeof(seps)]);
    }
  }
  return text;
}

// ---------- kernel-level parity ---------------------------------------------------

TEST(SimdKernels, SeparatorScansMatchScalar) {
  const std::string text = adversarial_text(7, 4096);
  const Kernels& ref = simd::scalar_kernels();
  for (const auto& [name, k] : built_tables()) {
    // Unaligned heads: start the scan at every small offset; short tails:
    // end it a few bytes early.
    for (std::size_t head = 0; head < 5; ++head) {
      const std::size_t end = text.size() - head;
      std::size_t pos = head;
      while (pos < end) {
        const std::size_t sep = k->find_separator(text.data(), pos, end);
        ASSERT_EQ(sep, ref.find_separator(text.data(), pos, end)) << name;
        const std::size_t word = k->skip_separators(text.data(), sep, end);
        ASSERT_EQ(word, ref.skip_separators(text.data(), sep, end)) << name;
        pos = word > sep ? word : sep + 1;
      }
    }
    // Runs shorter than one vector, including empty.
    for (std::size_t n = 0; n < 40; ++n) {
      ASSERT_EQ(k->find_separator(text.data(), 0, n),
                ref.find_separator(text.data(), 0, n))
          << name << " n=" << n;
    }
  }
}

TEST(SimdKernels, FindByteAndRangeEqualMatchScalar) {
  const std::string text = adversarial_text(11, 2048);
  const Kernels& ref = simd::scalar_kernels();
  for (const auto& [name, k] : built_tables()) {
    for (const char needle : {'a', 'q', ' ', '\t', static_cast<char>(0x91)}) {
      std::size_t pos = 0;
      while (pos <= text.size()) {
        const std::size_t got = k->find_byte(text.data(), pos, text.size(),
                                             needle);
        ASSERT_EQ(got, ref.find_byte(text.data(), pos, text.size(), needle))
            << name;
        pos = got + 1;
      }
    }
    std::string other = text;
    for (const std::size_t flip : {std::size_t{0}, std::size_t{15},
                                   std::size_t{16}, std::size_t{31},
                                   std::size_t{33}, text.size() - 1}) {
      other[flip] = static_cast<char>(other[flip] ^ 1);
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, flip, flip + 1,
                            text.size()}) {
        ASSERT_EQ(k->range_equal(text.data(), other.data(), n),
                  ref.range_equal(text.data(), other.data(), n))
            << name << " flip=" << flip << " n=" << n;
      }
      other[flip] = text[flip];
    }
  }
}

TEST(SimdKernels, HistogramChannelsMatchScalar) {
  std::mt19937_64 rng(13);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{11},
        std::size_t{12}, std::size_t{13}, std::size_t{64 * 1024 + 7}}) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    for (std::size_t channel0 = 0; channel0 < 3; ++channel0) {
      std::vector<std::uint64_t> want(768, 0);
      simd::scalar_kernels().histogram_channels(data.data(), n, channel0,
                                                want.data());
      for (const auto& [name, k] : built_tables()) {
        std::vector<std::uint64_t> got(768, 0);
        k->histogram_channels(data.data(), n, channel0, got.data());
        ASSERT_EQ(got, want) << name << " n=" << n << " ch0=" << channel0;
      }
    }
  }
}

TEST(SimdKernels, LrMomentsMatchScalarExactly) {
  std::mt19937_64 rng(17);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{1000}}) {
    std::vector<std::int16_t> xy(2 * n);
    for (auto& v : xy) v = static_cast<std::int16_t>(rng());
    if (n >= 2) {  // pin the extremes into the data
      xy[0] = 32767;
      xy[1] = -32768;
      xy[2] = -32768;
      xy[3] = 32767;
    }
    std::int64_t want[5] = {1, 2, 3, 4, 5};  // must accumulate, not assign
    simd::scalar_kernels().lr_moments(xy.data(), n, want);
    for (const auto& [name, k] : built_tables()) {
      std::int64_t got[5] = {1, 2, 3, 4, 5};
      k->lr_moments(xy.data(), n, got);
      for (int m = 0; m < 5; ++m) {
        ASSERT_EQ(got[m], want[m]) << name << " n=" << n << " moment=" << m;
      }
    }
  }
}

TEST(SimdKernels, F64ReductionsBitIdenticalAcrossTables) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> dist(-1e3, 1e3);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{1023}}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = dist(rng);
      b[i] = dist(rng);
    }
    const double want_sum = simd::scalar_kernels().sum_f64(a.data(), n);
    const double want_dot = simd::scalar_kernels().dot_centered_f64(
        a.data(), b.data(), 0.25, -0.75, n);
    for (const auto& [name, k] : built_tables()) {
      // EXPECT_EQ, not NEAR: the contract is bit-identical rounding.
      EXPECT_EQ(k->sum_f64(a.data(), n), want_sum) << name << " n=" << n;
      EXPECT_EQ(k->dot_centered_f64(a.data(), b.data(), 0.25, -0.75, n),
                want_dot)
          << name << " n=" << n;
    }
  }
}

// ---------- dispatch --------------------------------------------------------------

TEST(SimdDispatch, ActivePicksTheWidestBuiltTable) {
  const simd::Active& a = simd::active();
  ASSERT_NE(a.kernels, nullptr);
  const std::string path = a.path;
  if (a.isa == common::IsaLevel::kAvx2 && simd::avx2_kernels() != nullptr) {
    EXPECT_EQ(path, "avx2");
    EXPECT_EQ(a.kernels, simd::avx2_kernels());
  } else if (a.isa != common::IsaLevel::kScalar &&
             simd::sse2_kernels() != nullptr) {
    EXPECT_EQ(path, "sse2");
    EXPECT_EQ(a.kernels, simd::sse2_kernels());
  } else {
    EXPECT_EQ(path, "scalar");
    EXPECT_EQ(a.kernels, &simd::scalar_kernels());
  }
#if defined(__x86_64__)
  // x86-64 guarantees SSE2, so dispatch never degrades all the way down.
  EXPECT_NE(path, "scalar");
#endif
}

TEST(SimdDispatch, ScopedKernelsSwapsAndRestores) {
  const Kernels* before = simd::active().kernels;
  const std::string before_path = simd::active().path;
  {
    simd::ScopedKernels guard(simd::scalar_kernels(), "scalar");
    EXPECT_EQ(simd::active().kernels, &simd::scalar_kernels());
    EXPECT_STREQ(simd::active().path, "scalar");
  }
  EXPECT_EQ(simd::active().kernels, before);
  EXPECT_EQ(simd::active().path, before_path);
}

// ---------- app-level parity across tables ---------------------------------------

// Runs app.map over every split and folds the emissions into a key->sum
// map (string keys for WC, integral keys otherwise).
template <typename App, typename K>
std::map<K, std::int64_t> fold_maps(const App& app,
                                    const typename App::input_type& in) {
  std::map<K, std::int64_t> out;
  for (std::size_t s = 0; s < app.num_splits(in); ++s) {
    app.map(in, s, [&](const auto& k, auto v) {
      out[K(k)] += static_cast<std::int64_t>(v);
    });
  }
  return out;
}

// Checks a folded string-keyed WC run against the serial reference.
void expect_wordcount_matches(const std::map<std::string, std::int64_t>& got,
                              const apps::TextInput& in,
                              const std::string& table) {
  const auto ref = apps::wordcount_reference(in);
  ASSERT_EQ(got.size(), ref.size()) << table;
  for (const auto& [k, v] : ref) {
    EXPECT_EQ(static_cast<std::uint64_t>(got.at(std::string(k))), v)
        << table << " key=" << k;
  }
}

TEST(SimdApps, WordCountWhitespaceClassAndSplitBoundaries) {
  // Raw tabs/newlines separate words, and words straddle the tiny split
  // size so the ownership rule is exercised through every table.
  apps::TextInput in;
  in.text = "alpha\tbeta\ngamma\rdelta\valpha\fbeta  alpha\t\n gamma";
  in.split_bytes = 7;  // words cross split boundaries
  const apps::WordCountApp<apps::ContainerFlavor::kDefault> app;
  const auto ref = apps::wordcount_reference(in);
  EXPECT_EQ(ref.at("alpha"), 3u);
  EXPECT_EQ(ref.at("beta"), 2u);
  for (const auto& [name, k] : built_tables()) {
    simd::ScopedKernels guard(*k, name.c_str());
    expect_wordcount_matches(fold_maps<decltype(app), std::string>(app, in),
                             in, name);
  }
}

TEST(SimdApps, WordCountParityOnAdversarialText) {
  apps::TextInput in;
  in.text = adversarial_text(31, 20000);
  in.split_bytes = 97;  // prime: heads/tails land at every alignment
  const apps::WordCountApp<apps::ContainerFlavor::kDefault> app;
  for (const auto& [name, k] : built_tables()) {
    simd::ScopedKernels guard(*k, name.c_str());
    expect_wordcount_matches(fold_maps<decltype(app), std::string>(app, in),
                             in, name);
  }
}

TEST(SimdApps, StringMatchParityIncludingFastPath) {
  apps::SmInput in;
  in.text.text =
      "needle hay needle\tneedleneedle hay\nneedle haystack needle";
  in.text.split_bytes = 6;  // matches straddle split boundaries
  in.patterns = {"needle"};  // one pattern: the first-byte-probe fast path
  apps::StringMatchApp<apps::ContainerFlavor::kDefault> app;
  app.num_patterns = in.patterns.size();
  const auto ref = apps::string_match_reference(in);
  ASSERT_EQ(ref.at(0), 4u);  // "needleneedle"/"haystack" must not count
  for (const auto& [name, k] : built_tables()) {
    simd::ScopedKernels guard(*k, name.c_str());
    const auto got = fold_maps<decltype(app), std::uint64_t>(app, in);
    EXPECT_EQ(static_cast<std::uint64_t>(got.at(0)), ref.at(0)) << name;
  }
}

TEST(SimdApps, StringMatchParityMultiPatternAdversarial) {
  apps::SmInput in;
  in.text.text = adversarial_text(37, 15000);
  in.text.split_bytes = 113;
  // Patterns drawn from the text itself (guaranteed hits), one longer than
  // a 16-byte vector, plus a duplicate (first-match-wins semantics) and a
  // miss.
  in.patterns = {"zz-not-present", "a", "a",
                 std::string(in.text.text.substr(
                     in.text.text.find_first_not_of(" \t\n\v\f\r"), 3))};
  apps::StringMatchApp<apps::ContainerFlavor::kDefault> app;
  app.num_patterns = in.patterns.size();
  const auto ref = apps::string_match_reference(in);
  for (const auto& [name, k] : built_tables()) {
    simd::ScopedKernels guard(*k, name.c_str());
    const auto got = fold_maps<decltype(app), std::uint64_t>(app, in);
    ASSERT_EQ(got.size(), ref.size()) << name;
    for (const auto& [key, v] : ref) {
      EXPECT_EQ(static_cast<std::uint64_t>(got.at(key)), v) << name;
    }
  }
}

TEST(SimdApps, HistogramAndLrParityAcrossTables) {
  apps::PixelInput pix{apps::make_pixels(50021, 5), 1024};
  const apps::HistogramApp<apps::ContainerFlavor::kDefault> hg;
  const auto hg_ref = apps::histogram_reference(pix);
  apps::LrInput lr{apps::make_lr_points(30011, 6), 1000};
  const apps::LinearRegressionApp<apps::ContainerFlavor::kDefault> lrapp;
  const auto lr_ref = apps::lr_reference(lr);
  for (const auto& [name, k] : built_tables()) {
    simd::ScopedKernels guard(*k, name.c_str());
    const auto hist = fold_maps<decltype(hg), std::uint64_t>(hg, pix);
    ASSERT_EQ(hist.size(), hg_ref.size()) << name;
    for (const auto& [key, v] : hg_ref) {
      EXPECT_EQ(static_cast<std::uint64_t>(hist.at(key)), v) << name;
    }
    const auto moments = fold_maps<decltype(lrapp), std::uint64_t>(lrapp, lr);
    ASSERT_EQ(moments.size(), lr_ref.size()) << name;
    for (const auto& [key, v] : lr_ref) {
      EXPECT_EQ(moments.at(key), v) << name;
    }
  }
}

// Folds a PCA job's float emissions per key.
template <typename App>
std::map<std::uint64_t, double> fold_pca(const App& app,
                                         const apps::PcaInput& in) {
  std::map<std::uint64_t, double> out;
  for (std::size_t s = 0; s < app.num_splits(in); ++s) {
    app.map(in, s, [&](std::uint64_t k, double v) { out[k] += v; });
  }
  return out;
}

TEST(SimdApps, PcaBitIdenticalAcrossTables) {
  apps::PcaInput in;
  in.matrix = apps::make_matrix(12, 301, 9);
  in.row_means = apps::pca_row_means(in.matrix);
  in.split_cols = 37;
  apps::PcaMeanApp<apps::ContainerFlavor::kDefault> mean;
  mean.in_rows_hint = in.matrix.rows;
  apps::PcaCovApp<apps::ContainerFlavor::kDefault> cov;
  cov.rows = in.matrix.rows;
  std::optional<std::map<std::uint64_t, double>> want_mean, want_cov;
  for (const auto& [name, k] : built_tables()) {
    simd::ScopedKernels guard(*k, name.c_str());
    const auto got_mean = fold_pca(mean, in);
    const auto got_cov = fold_pca(cov, in);
    if (!want_mean) {  // the scalar table comes first: the reference
      want_mean = got_mean;
      want_cov = got_cov;
      continue;
    }
    // EXPECT_EQ on doubles, not NEAR: every table runs the same
    // accumulation schedule, so the sums agree to the last bit.
    EXPECT_EQ(got_mean, *want_mean) << name;
    EXPECT_EQ(got_cov, *want_cov) << name;
  }
  // The serial reference accumulates in a different order, so it agrees
  // within float tolerance only.
  const auto ref = apps::pca_cov_reference(in);
  ASSERT_EQ(want_cov->size(), ref.size());
  for (const auto& [key, v] : *want_cov) {
    EXPECT_NEAR(v, ref.at(key), 1e-6 * (1.0 + std::abs(ref.at(key))));
  }
}

// ---------- emit traffic ----------------------------------------------------------

RuntimeConfig pipelined_config() {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;
  return cfg;
}

// HG and LR combine in their map, so core::Runtime runs them fused; the
// ring traffic is measured on the pipelined strategy driven explicitly.
using testing::run_pipelined;

TEST(EmitTraffic, CoreHistogramPushesAtMostOneRecordPerBinPerSplit) {
  // A per-byte map would push 200000 records; in-map binning caps the
  // queue traffic at 768 per split (49 splits here).
  const apps::PixelInput input{apps::make_pixels(200000, 3), 4096};
  const apps::HistogramApp<apps::ContainerFlavor::kDefault> app;
  const auto r = run_pipelined(app, input, pipelined_config());
  EXPECT_GT(r.queue_pushes, 0u);
  EXPECT_LE(r.queue_pushes, apps::kHistogramBins * app.num_splits(input));
  const std::map<std::uint64_t, std::uint64_t> got(r.pairs.begin(),
                                                   r.pairs.end());
  EXPECT_EQ(got, apps::histogram_reference(input));
}

TEST(EmitTraffic, CoreLinearRegressionPushesFiveRecordsPerSplit) {
  const apps::LrInput input{apps::make_lr_points(30000, 4), 1000};
  const apps::LinearRegressionApp<apps::ContainerFlavor::kDefault> app;
  const auto r = run_pipelined(app, input, pipelined_config());
  EXPECT_GT(r.queue_pushes, 0u);
  EXPECT_LE(r.queue_pushes, apps::kLrKeys * app.num_splits(input));
  const std::map<std::uint64_t, std::int64_t> got(r.pairs.begin(),
                                                  r.pairs.end());
  EXPECT_EQ(got, apps::lr_reference(input));
}

TEST(EmitTraffic, MrphiHistogramGlobalMatchesReference) {
  // Zipf-distributed text bytes: a handful of hot intensity bins, the
  // worst case for the global container's coherence traffic.
  const std::string text = apps::make_text(120000, 512, 42);
  apps::PixelInput input;
  input.bytes.assign(text.begin(), text.end());
  input.split_bytes = 4096;
  mrphi::Options o;
  o.num_workers = 4;
  o.pin_policy = PinPolicy::kOsDefault;
  mrphi::Runtime<apps::HistogramGlobalApp> rt(topo::host(), o);
  const auto r = rt.run(apps::HistogramGlobalApp{}, input);
  const std::map<std::uint64_t, std::uint64_t> got(r.pairs.begin(),
                                                   r.pairs.end());
  EXPECT_EQ(got, apps::histogram_reference(input));
  EXPECT_NE(r.summary().find("dispatch: simd="), std::string::npos);
}

}  // namespace
}  // namespace ramr
