// Unit tests for the common substrate: env knobs, runtime config,
// cache-line padding, timing, RNG determinism, affinity wrapper, peak RSS.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/affinity.hpp"
#include "common/cacheline.hpp"
#include "common/config.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/rss.hpp"
#include "common/timing.hpp"

namespace ramr {
namespace {

// ---------- env ------------------------------------------------------------

TEST(Env, UnsetReturnsFallback) {
  ::unsetenv("RAMR_TEST_UNSET");
  EXPECT_EQ(env::get("RAMR_TEST_UNSET"), std::nullopt);
  EXPECT_EQ(env::get_int("RAMR_TEST_UNSET", -7), -7);
  EXPECT_EQ(env::get_uint("RAMR_TEST_UNSET", 7u), 7u);
  EXPECT_DOUBLE_EQ(env::get_double("RAMR_TEST_UNSET", 1.5), 1.5);
  EXPECT_TRUE(env::get_bool("RAMR_TEST_UNSET", true));
  EXPECT_EQ(env::get_string("RAMR_TEST_UNSET", "x"), "x");
}

TEST(Env, ParsesInteger) {
  env::ScopedOverride o("RAMR_TEST_INT", "-42");
  EXPECT_EQ(env::get_int("RAMR_TEST_INT", 0), -42);
}

TEST(Env, ParsesUnsigned) {
  env::ScopedOverride o("RAMR_TEST_UINT", "5000");
  EXPECT_EQ(env::get_uint("RAMR_TEST_UINT", 0), 5000u);
}

TEST(Env, RejectsNegativeUnsigned) {
  env::ScopedOverride o("RAMR_TEST_UINT", "-1");
  EXPECT_THROW(env::get_uint("RAMR_TEST_UINT", 0), ConfigError);
}

TEST(Env, RejectsGarbageInteger) {
  env::ScopedOverride o("RAMR_TEST_INT", "12abc");
  EXPECT_THROW(env::get_int("RAMR_TEST_INT", 0), ConfigError);
}

TEST(Env, ParsesDouble) {
  env::ScopedOverride o("RAMR_TEST_DBL", "2.75");
  EXPECT_DOUBLE_EQ(env::get_double("RAMR_TEST_DBL", 0.0), 2.75);
}

TEST(Env, ParsesBooleans) {
  for (const char* yes : {"1", "true", "TRUE", "yes", "on"}) {
    env::ScopedOverride o("RAMR_TEST_BOOL", yes);
    EXPECT_TRUE(env::get_bool("RAMR_TEST_BOOL", false)) << yes;
  }
  for (const char* no : {"0", "false", "False", "no", "off"}) {
    env::ScopedOverride o("RAMR_TEST_BOOL", no);
    EXPECT_FALSE(env::get_bool("RAMR_TEST_BOOL", true)) << no;
  }
}

TEST(Env, RejectsGarbageBoolean) {
  env::ScopedOverride o("RAMR_TEST_BOOL", "maybe");
  EXPECT_THROW(env::get_bool("RAMR_TEST_BOOL", false), ConfigError);
}

TEST(Env, ScopedOverrideRestoresPreviousValue) {
  env::ScopedOverride outer("RAMR_TEST_NEST", "outer");
  {
    env::ScopedOverride inner("RAMR_TEST_NEST", "inner");
    EXPECT_EQ(env::get("RAMR_TEST_NEST"), "inner");
  }
  EXPECT_EQ(env::get("RAMR_TEST_NEST"), "outer");
}

// ---------- config ----------------------------------------------------------

TEST(Config, DefaultsMatchPaper) {
  RuntimeConfig cfg;
  EXPECT_EQ(cfg.queue_capacity, 5000u);  // Sec. III-A
  EXPECT_TRUE(cfg.sleep_on_full);        // Sec. III-A
  EXPECT_EQ(cfg.pin_policy, PinPolicy::kRamrPaired);
}

TEST(Config, FromEnvReadsEveryKnob) {
  env::ScopedOverride a(kEnvMappers, "6");
  env::ScopedOverride b(kEnvCombiners, "3");
  env::ScopedOverride c(kEnvTaskSize, "8");
  env::ScopedOverride d(kEnvQueueCapacity, "1024");
  env::ScopedOverride e(kEnvBatchSize, "100");
  env::ScopedOverride f(kEnvPinPolicy, "rr");
  env::ScopedOverride g(kEnvSleepOnFull, "0");
  env::ScopedOverride h(kEnvSleepMicros, "75");
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.num_mappers, 6u);
  EXPECT_EQ(cfg.num_combiners, 3u);
  EXPECT_EQ(cfg.task_size, 8u);
  EXPECT_EQ(cfg.queue_capacity, 1024u);
  EXPECT_EQ(cfg.batch_size, 100u);
  EXPECT_EQ(cfg.pin_policy, PinPolicy::kRoundRobin);
  EXPECT_FALSE(cfg.sleep_on_full);
  EXPECT_EQ(cfg.sleep_micros, 75u);
}

TEST(Config, RatioEnvKnobDrivesDerivedWorkerCounts) {
  env::ScopedOverride r(kEnvRatio, "3");
  const RuntimeConfig cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.mapper_combiner_ratio, 3u);
  // The ratio feeds the machine fill: groups of (3+1)=4 threads -> 3 groups
  // on 12 CPUs.
  const RuntimeConfig resolved = cfg.resolved(12);
  EXPECT_EQ(resolved.num_mappers, 9u);
  EXPECT_EQ(resolved.num_combiners, 3u);
}

TEST(Config, ResolveDerivesWorkersFromMachine) {
  RuntimeConfig cfg;
  cfg.mapper_combiner_ratio = 2;
  const RuntimeConfig r = cfg.resolved(12);
  // groups of (2+1)=3 threads -> 4 groups on 12 CPUs.
  EXPECT_EQ(r.num_mappers, 8u);
  EXPECT_EQ(r.num_combiners, 4u);
}

TEST(Config, ResolveDerivesCombinersFromRatio) {
  RuntimeConfig cfg;
  cfg.num_mappers = 9;
  cfg.mapper_combiner_ratio = 3;
  const RuntimeConfig r = cfg.resolved(56);
  EXPECT_EQ(r.num_mappers, 9u);
  EXPECT_EQ(r.num_combiners, 3u);
}

TEST(Config, ResolveDerivesMappersFromCombiners) {
  RuntimeConfig cfg;
  cfg.num_combiners = 4;
  cfg.mapper_combiner_ratio = 2;
  const RuntimeConfig r = cfg.resolved(56);
  EXPECT_EQ(r.num_mappers, 8u);
}

TEST(Config, ResolveRejectsMoreCombinersThanMappers) {
  // Paper Sec. III: the combiner pool "contains a less or equal number of
  // workers compared to the general-purpose pool".
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 3;
  EXPECT_THROW(cfg.resolved(8), ConfigError);
}

TEST(Config, ResolveRejectsBatchLargerThanQueue) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.queue_capacity = 64;
  cfg.batch_size = 128;
  EXPECT_THROW(cfg.resolved(8), ConfigError);
}

TEST(Config, ResolveRejectsZeroTaskSize) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.task_size = 0;
  EXPECT_THROW(cfg.resolved(8), ConfigError);
}

TEST(Config, SplitDistributionRoundTripAndEnv) {
  for (SplitDistribution d :
       {SplitDistribution::kRoundRobin, SplitDistribution::kBlocked}) {
    EXPECT_EQ(parse_split_distribution(to_string(d)), d);
  }
  EXPECT_THROW(parse_split_distribution("zigzag"), ConfigError);
  env::ScopedOverride o(kEnvSplitDistribution, "block");
  EXPECT_EQ(RuntimeConfig::from_env().split_distribution,
            SplitDistribution::kBlocked);
}

TEST(Config, PinPolicyRoundTrip) {
  for (PinPolicy p : {PinPolicy::kRamrPaired, PinPolicy::kRoundRobin,
                      PinPolicy::kOsDefault}) {
    EXPECT_EQ(parse_pin_policy(to_string(p)), p);
  }
  EXPECT_THROW(parse_pin_policy("bogus"), ConfigError);
}

// ---------- cacheline -------------------------------------------------------

TEST(CacheLine, PaddedValuesOccupyDistinctLines) {
  CacheAligned<int> a[2];
  const auto* p0 = reinterpret_cast<const char*>(&a[0].value);
  const auto* p1 = reinterpret_cast<const char*>(&a[1].value);
  EXPECT_GE(static_cast<std::size_t>(p1 - p0), kCacheLineSize);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p0) % kCacheLineSize, 0u);
}

// ---------- timing ----------------------------------------------------------

TEST(Timing, PhaseTimersAccumulateAndFraction) {
  PhaseTimers t;
  t.add(Phase::kMapCombine, 8.0);
  t.add(Phase::kReduce, 1.0);
  t.add(Phase::kMerge, 1.0);
  EXPECT_DOUBLE_EQ(t.total(), 10.0);
  EXPECT_DOUBLE_EQ(t.fraction(Phase::kMapCombine), 0.8);
  EXPECT_DOUBLE_EQ(t.fraction(Phase::kSplit), 0.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(Timing, ScopedPhaseRecordsElapsedTime) {
  PhaseTimers t;
  {
    ScopedPhase p(t, Phase::kReduce);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(t.seconds(Phase::kReduce), 0.004);
}

TEST(Timing, PhaseNamesAreStable) {
  EXPECT_STREQ(phase_name(Phase::kMapCombine), "map-combine");
  EXPECT_STREQ(phase_name(Phase::kMerge), "merge");
}

// ---------- rng -------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformStaysInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(123);
  std::array<int, 8> buckets{};
  const int n = 8000;
  for (int i = 0; i < n; ++i) buckets[rng.below(8)]++;
  for (int count : buckets) {
    EXPECT_GT(count, n / 8 - 200);
    EXPECT_LT(count, n / 8 + 200);
  }
}

// ---------- affinity --------------------------------------------------------

TEST(Affinity, UsableCpuCountPositive) {
  EXPECT_GE(affinity::usable_cpu_count(), 1u);
}

TEST(Affinity, PinToImpossibleCpuFailsGracefully) {
  // CPU ids far beyond the machine must not throw — the runtime treats this
  // as "run unpinned" (the modelled machine can be larger than the host).
  EXPECT_FALSE(affinity::pin_current_thread(std::size_t{1} << 40));
}

TEST(Affinity, PinToCpuZeroWorksOnLinux) {
  if (!affinity::supported()) GTEST_SKIP() << "no affinity support";
  EXPECT_TRUE(affinity::pin_current_thread(std::vector<std::size_t>{0}));
  auto cpu = affinity::current_cpu();
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(*cpu, 0u);
}

// ---------- peak RSS --------------------------------------------------------

#if defined(__linux__)
// Child half of the test below: run only when the parent execs this binary
// with --gtest_also_run_disabled_tests. Prints the fresh process's peak.
TEST(PeakRss, DISABLED_ReportFromFreshProcess) {
  std::printf("peak_rss_bytes=%zu\n", common::peak_rss_bytes());
  std::fflush(stdout);
}

TEST(PeakRss, ForkExecChildDoesNotInheritParentPeak) {
  // getrusage's ru_maxrss survives fork+exec on Linux, so a child reading
  // it would report this parent's 96 MiB high-water as its own.
  constexpr std::size_t kParentBytes = std::size_t{96} << 20;
  std::vector<char> ballast(kParentBytes);
  volatile char* touch = ballast.data();
  for (std::size_t i = 0; i < ballast.size(); i += 4096) touch[i] = 1;
  ASSERT_GE(common::peak_rss_bytes(), kParentBytes);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    char arg0[] = "test_common";
    char arg1[] = "--gtest_also_run_disabled_tests";
    char arg2[] = "--gtest_filter=PeakRss.DISABLED_ReportFromFreshProcess";
    char* const argv[] = {arg0, arg1, arg2, nullptr};
    execv("/proc/self/exe", argv);
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  const std::string tag = "peak_rss_bytes=";
  const std::size_t at = out.find(tag);
  ASSERT_NE(at, std::string::npos) << out;
  const std::size_t child_peak = std::stoull(out.substr(at + tag.size()));
  EXPECT_GT(child_peak, 0u);
  EXPECT_LT(child_peak, kParentBytes / 2) << out;
}
#endif

}  // namespace
}  // namespace ramr
