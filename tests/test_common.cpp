// Unit tests for the common substrate: env knobs, runtime config,
// cache-line padding, timing, RNG determinism, affinity wrapper, peak RSS.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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
  EXPECT_EQ(env::get_uint("RAMR_TEST_UNSET", 7u), 7u);
  EXPECT_TRUE(env::get_bool("RAMR_TEST_UNSET", true));
}

TEST(Env, ParsesUnsigned) {
  env::ScopedOverride o("RAMR_TEST_UINT", "5000");
  EXPECT_EQ(env::get_uint("RAMR_TEST_UINT", 0), 5000u);
}

TEST(Env, RejectsNegativeUnsigned) {
  env::ScopedOverride o("RAMR_TEST_UINT", "-1");
  EXPECT_THROW(env::get_uint("RAMR_TEST_UINT", 0), ConfigError);
}

TEST(Env, RejectsNegativeUnsignedAfterWhitespace) {
  // strtoull skips the blanks and negates: " -1" used to parse as 2^64 - 1.
  env::ScopedOverride o("RAMR_TEST_UINT", " -1");
  EXPECT_THROW(env::get_uint("RAMR_TEST_UINT", 0), ConfigError);
}

TEST(Env, RejectsGarbageUnsigned) {
  env::ScopedOverride o("RAMR_TEST_UINT", "12abc");
  EXPECT_THROW(env::get_uint("RAMR_TEST_UINT", 0), ConfigError);
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
  EXPECT_EQ(cfg.pin_policy, PinPolicy::kRamrPaired);
}

TEST(Config, RatioEnvKnobDrivesDerivedWorkerCounts) {
  env::ScopedOverride r("RAMR_RATIO", "3");
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

TEST(Config, DefaultShapeOnFourCpusLeavesOneCpuFree) {
  // One group of (2+1)=3 threads on 4 CPUs: the fourth CPU stays free for
  // the dual pool shape (docs/TUNING.md, "Default pool shape").
  const RuntimeConfig r = RuntimeConfig{}.resolved(4);
  EXPECT_EQ(r.num_mappers, 2u);
  EXPECT_EQ(r.num_combiners, 1u);
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

TEST(Config, EmitBatchAboveCapacityIsRejected) {
  RuntimeConfig cfg;
  cfg.emit_batch = cfg.queue_capacity + 1;
  EXPECT_THROW(cfg.resolved(8), ConfigError);
}

TEST(Config, ResolveRejectsZeroTaskSize) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.task_size = 0;
  EXPECT_THROW(cfg.resolved(8), ConfigError);
}

TEST(Config, SplitDistributionRoundTrip) {
  for (SplitDistribution d :
       {SplitDistribution::kRoundRobin, SplitDistribution::kBlocked}) {
    EXPECT_EQ(parse_split_distribution(to_string(d)), d);
  }
  EXPECT_THROW(parse_split_distribution("zigzag"), ConfigError);
}

TEST(Config, PinPolicyRoundTrip) {
  for (PinPolicy p : {PinPolicy::kRamrPaired, PinPolicy::kRoundRobin,
                      PinPolicy::kOsDefault}) {
    EXPECT_EQ(parse_pin_policy(to_string(p)), p);
  }
  EXPECT_THROW(parse_pin_policy("bogus"), ConfigError);
}

// ---------- the knob table ---------------------------------------------------

// Unsets every table knob (and the retired names) for the scope, so the
// ambient environment — CI runs the suite under RAMR_EMIT_BATCH=16 — cannot
// leak into a test that checks defaults.
class KnobEnvCleared {
 public:
  KnobEnvCleared() {
    for (const KnobInfo& k : knob_table()) save(k.env);
    save("RAMR_TELEMETRY");
    save("RAMR_SLEEP_ON_FULL");
    save("RAMR_MEM");
    save("RAMR_HUGEPAGES");
    save("RAMR_PRECOMBINE");
    save("RAMR_BACKOFF");
    save("RAMR_SLEEP_US");
    save("RAMR_SLEEP_CAP_US");
  }
  ~KnobEnvCleared() {
    for (const auto& [name, value] : saved_) {
      ::setenv(name.c_str(), value.c_str(), 1);
    }
  }
  KnobEnvCleared(const KnobEnvCleared&) = delete;
  KnobEnvCleared& operator=(const KnobEnvCleared&) = delete;

 private:
  void save(const std::string& name) {
    if (auto value = env::get(name)) saved_.emplace_back(name, *value);
    ::unsetenv(name.c_str());
  }
  std::vector<std::pair<std::string, std::string>> saved_;
};

std::string value_of(const RuntimeConfig& cfg, Knob id) {
  return knob_settings(cfg)[static_cast<std::size_t>(id)].value;
}

// "key=value" pairs of a summary() line.
std::map<std::string, std::string> summary_fields(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  std::string word;
  while (in >> word) {
    const std::size_t eq = word.find('=');
    if (eq != std::string::npos) out[word.substr(0, eq)] = word.substr(eq + 1);
  }
  return out;
}

// Accepted spellings per row; each must round-trip.
std::vector<std::string> valid_values(const KnobInfo& k) {
  switch (k.kind) {
    case KnobKind::kUint:
      return {std::to_string(k.lo), std::to_string(k.hi),
              std::to_string((k.lo + k.hi) / 2)};
    case KnobKind::kFlag:
      return {"on", "off", "1", "0", "TRUE", "no"};
    case KnobKind::kText:
      return {"x", "some/path.json"};
    case KnobKind::kChoice:
      return k.choices;
  }
  return {};
}

// Garbage, below-range and above-range spellings per row. Free-text rows
// accept anything.
std::vector<std::string> invalid_values(const KnobInfo& k) {
  switch (k.kind) {
    case KnobKind::kUint: {
      std::vector<std::string> bad = {"garbage", "12abc", "-1", " -1",
                                      "18446744073709551616",
                                      std::to_string(k.hi + 1)};
      if (k.lo > 0) bad.push_back(std::to_string(k.lo - 1));
      return bad;
    }
    case KnobKind::kFlag:
      return {"maybe", "2"};
    case KnobKind::kText:
      return {};
    case KnobKind::kChoice:
      return {"bogus", "2"};
  }
  return {};
}

void expect_config_error_naming(const char* env_name) {
  try {
    (void)RuntimeConfig::from_env();
    ADD_FAILURE() << "accepted " << env_name << "="
                  << env::get(env_name).value_or("");
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(env_name), std::string::npos)
        << "error does not name the variable: " << e.what();
  }
}

TEST(KnobTable, EveryRowParsesRangeChecksAndRoundTrips) {
  KnobEnvCleared clear;
  const RuntimeConfig unset = RuntimeConfig::from_env();
  EXPECT_TRUE(unset.pinned.rows.none());
  EXPECT_EQ(unset.summary(), "defaults");
  ASSERT_EQ(knob_table().size(), kKnobCount);
  for (const KnobInfo& k : knob_table()) {
    SCOPED_TRACE(k.env);
    EXPECT_EQ(std::string(k.env), "RAMR_" + [&] {
      std::string upper = k.key;
      for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
      return upper;
    }());
    // Unset: the struct default.
    EXPECT_EQ(value_of(unset, k.id), k.default_value);

    for (const std::string& bad : invalid_values(k)) {
      SCOPED_TRACE(bad);
      env::ScopedOverride o(k.env, bad);
      expect_config_error_naming(k.env);
    }

    for (const std::string& good : valid_values(k)) {
      SCOPED_TRACE(good);
      std::string value;
      std::string line;
      {
        env::ScopedOverride o(k.env, good);
        const RuntimeConfig cfg = RuntimeConfig::from_env();
        EXPECT_TRUE(cfg.pinned[k.id]);
        value = value_of(cfg, k.id);
        line = cfg.summary();
      }
      // summary() shows the value iff it differs from the default...
      const auto fields = summary_fields(line);
      if (value == k.default_value) {
        EXPECT_EQ(fields.count(k.key), 0u) << line;
      } else if (k.kind != KnobKind::kText) {  // text may contain blanks
        ASSERT_EQ(fields.count(k.key), 1u) << line;
        EXPECT_EQ(fields.at(k.key), value);
      }
      // ...spelled so the env reads it back to the same value.
      if (!value.empty()) {
        env::ScopedOverride again(k.env, value);
        EXPECT_EQ(value_of(RuntimeConfig::from_env(), k.id), value);
      }
    }
  }
}

TEST(KnobTable, ReproducersThrowNamingTheVariable) {
  KnobEnvCleared clear;
  const struct {
    const char* name;
    const char* value;
  } cases[] = {
      {"RAMR_QUEUE_CAPACITY", "9223372036854775809"},  // 2^63 + 1 overflow
      {"RAMR_MAPPERS", " -1"},
      {"RAMR_PMU", "bogus"},  // validated even with observability off
      {"RAMR_OBS", "1"},      // the old boolean spelling: ambiguous now
      {"RAMR_OBS", "on"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.name) + "=" + c.value);
    env::ScopedOverride o(c.name, c.value);
    expect_config_error_naming(c.name);
  }
}

TEST(KnobTable, RetiredKnobsNameTheirReplacement) {
  KnobEnvCleared clear;
  const struct {
    const char* name;
    const char* value;
    const char* replacement;
  } cases[] = {
      {"RAMR_TELEMETRY", "1", "RAMR_OBS=metrics"},
      {"RAMR_TELEMETRY", "0", "RAMR_OBS=metrics"},
      {"RAMR_SLEEP_ON_FULL", "0", "blocks on the ring"},
      {"RAMR_BACKOFF", "busy", "blocks on the ring"},
      {"RAMR_SLEEP_US", "50", "blocks on the ring"},
      {"RAMR_SLEEP_CAP_US", "1000", "blocks on the ring"},
      {"RAMR_MEM", "arena", "RAMR_EMIT_BATCH=32"},
      {"RAMR_MEM", "off", "RAMR_EMIT_BATCH=32"},
      {"RAMR_HUGEPAGES", "off", "transparent-huge-page"},
      {"RAMR_PRECOMBINE", "256", "RAMR_ADAPT=probe"},
      {"RAMR_PRECOMBINE", "0", "RAMR_ADAPT=probe"},
      {"RAMR_HEDGE_FACTOR", "2", "RAMR_SERVICE_RETRIES"},
  };
  for (const auto& c : cases) {
    {
      env::ScopedOverride o(c.name, c.value);
      try {
        (void)RuntimeConfig::from_env();
        ADD_FAILURE() << c.name << " was accepted";
      } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(c.name), std::string::npos) << what;
        EXPECT_NE(what.find(c.replacement), std::string::npos) << what;
      }
    }
    // A replacement spelled as a setting must itself be accepted, so no
    // retired row points at another retired or malformed knob.
    const std::string replacement = c.replacement;
    const std::size_t eq = replacement.find('=');
    if (replacement.rfind("RAMR_", 0) != 0 || eq == std::string::npos) {
      continue;
    }
    const std::size_t end = replacement.find(' ', eq);
    env::ScopedOverride r(replacement.substr(0, eq),
                          replacement.substr(eq + 1, end - eq - 1));
    EXPECT_NO_THROW((void)RuntimeConfig::from_env()) << replacement;
  }
}

TEST(KnobTable, ObsErrorListsTheLevels) {
  KnobEnvCleared clear;
  env::ScopedOverride o("RAMR_OBS", "1");
  try {
    (void)RuntimeConfig::from_env();
    FAIL() << "RAMR_OBS=1 was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("off|metrics|full"),
              std::string::npos)
        << e.what();
  }
}

// "full" and "on" meant the probe plus an online retuner that is gone; a
// value whose meaning changed fails rather than mapping onto "probe".
TEST(KnobTable, AdaptErrorListsTheModes) {
  KnobEnvCleared clear;
  for (const char* value : {"full", "on"}) {
    env::ScopedOverride o("RAMR_ADAPT", value);
    try {
      (void)RuntimeConfig::from_env();
      ADD_FAILURE() << "RAMR_ADAPT=" << value << " was accepted";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("RAMR_ADAPT"), std::string::npos) << what;
      EXPECT_NE(what.find("off|probe"), std::string::npos) << what;
    }
  }
}

TEST(KnobTable, PinnedRecordFlagsPlanKnobsOnly) {
  KnobEnvCleared clear;
  {
    env::ScopedOverride batch("RAMR_EMIT_BATCH", "32");
    const RuntimeConfig cfg = RuntimeConfig::from_env();
    EXPECT_TRUE(cfg.pinned[Knob::kEmitBatch]);
    // A run knob, not a plan knob: the plan cache never records it.
    EXPECT_FALSE(cfg.pinned.any_plan_knob());
  }
  for (const char* plan_knob :
       {"RAMR_MAPPERS", "RAMR_COMBINERS", "RAMR_RATIO", "RAMR_QUEUE_CAPACITY",
        "RAMR_BATCH_SIZE", "RAMR_PIN_POLICY"}) {
    env::ScopedOverride o(plan_knob, plan_knob == std::string("RAMR_PIN_POLICY")
                                         ? "os"
                                         : "2");
    EXPECT_TRUE(RuntimeConfig::from_env().pinned.any_plan_knob()) << plan_knob;
  }
  static_assert(sizeof(PinnedKnobs) <= 8, "the pinned record stays one word");
}

TEST(KnobTable, SettingsReportTheSourceOfEveryKnob) {
  KnobEnvCleared clear;
  env::ScopedOverride batch("RAMR_BATCH_SIZE", "64");
  RuntimeConfig cfg = RuntimeConfig::from_env();
  cfg.task_size = 8;  // set in code
  const auto by_env = [](const std::vector<KnobSetting>& settings,
                         const std::string& name) {
    for (const KnobSetting& s : settings) {
      if (name == s.env) return s;
    }
    return KnobSetting{"", "", ""};
  };
  const auto plain = knob_settings(cfg);
  ASSERT_EQ(plain.size(), kKnobCount);
  EXPECT_EQ(by_env(plain, "RAMR_BATCH_SIZE").source, "env");
  EXPECT_EQ(by_env(plain, "RAMR_BATCH_SIZE").value, "64");
  EXPECT_EQ(by_env(plain, "RAMR_TASK_SIZE").source, "config");
  EXPECT_EQ(by_env(plain, "RAMR_RATIO").source, "default");
  // A probed plan decides the unpinned plan knobs only.
  const auto probed = knob_settings(cfg, "probe");
  EXPECT_EQ(by_env(probed, "RAMR_BATCH_SIZE").source, "env");
  EXPECT_EQ(by_env(probed, "RAMR_RATIO").source, "probe");
  EXPECT_EQ(by_env(probed, "RAMR_TASK_SIZE").source, "config");
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
