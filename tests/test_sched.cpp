// Tests for the thread pool and the per-locality-group task queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sched/task_queue.hpp"
#include "sched/thread_pool.hpp"
#include "sched/tree_merge.hpp"

namespace ramr::sched {
namespace {

// ---------- ThreadPool -------------------------------------------------------

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_on_all([&](std::size_t w) { hits[w]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.run_on_all([&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 30);
}

TEST(ThreadPool, StartWaitOverlapsTwoPools) {
  // The RAMR usage pattern: combiners started first, mappers second, both
  // pools active at once, waits in mapper-then-combiner order.
  ThreadPool producers(2), consumers(1);
  std::atomic<int> produced{0};
  std::atomic<bool> done{false};
  std::atomic<int> seen_by_consumer{0};

  consumers.start([&](std::size_t) {
    while (!done.load()) {
      seen_by_consumer.store(produced.load());
      std::this_thread::yield();
    }
    seen_by_consumer.store(produced.load());
  });
  producers.start([&](std::size_t) {
    for (int i = 0; i < 1000; ++i) produced++;
  });
  producers.wait();
  done.store(true);
  consumers.wait();
  EXPECT_EQ(seen_by_consumer.load(), 2000);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run_on_all([](std::size_t w) {
        if (w == 1) throw Error("boom");
      }),
      Error);
  // Pool still usable afterwards.
  std::atomic<int> ok{0};
  pool.run_on_all([&](std::size_t) { ok++; });
  EXPECT_EQ(ok.load(), 2);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), ConfigError);
}

TEST(ThreadPool, RejectsOverlappingRegionsOnOnePool) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.start([&](std::size_t) {
    while (!release.load()) std::this_thread::yield();
  });
  EXPECT_THROW(pool.start([](std::size_t) {}), Error);
  release.store(true);
  pool.wait();
}

TEST(ThreadPool, DistinctWorkerIndices) {
  ThreadPool pool(8);
  std::mutex m;
  std::set<std::size_t> ids;
  pool.run_on_all([&](std::size_t w) {
    std::lock_guard lock(m);
    ids.insert(w);
  });
  EXPECT_EQ(ids.size(), 8u);
}

TEST(ThreadPool, PinningRequestsAreBestEffort) {
  // Pin worker 0 to CPU 0 (should succeed on Linux) and worker 1 to an
  // impossible CPU (must degrade to unpinned, not fail).
  ThreadPool pool(2, {std::size_t{0}, std::size_t{1} << 40});
  std::atomic<int> ran{0};
  pool.run_on_all([&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 2);
  EXPECT_LE(pool.pinned_count(), 2u);
}

// ---------- TaskQueues ---------------------------------------------------------

TEST(TaskQueues, DistributeCoversAllSplitsOnce) {
  TaskQueues q(3);
  q.distribute(/*num_splits=*/100, /*task_size=*/7);
  std::vector<bool> seen(100, false);
  std::size_t tasks = 0;
  for (std::size_t g = 0; g < 3; ++g) {
    while (auto t = q.pop(g)) {
      ++tasks;
      EXPECT_LE(t->size(), 7u);
      for (std::size_t s = t->begin; s < t->end; ++s) {
        EXPECT_FALSE(seen[s]) << "split " << s << " scheduled twice";
        seen[s] = true;
      }
    }
  }
  EXPECT_EQ(tasks, 15u);  // ceil(100/7)
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(TaskQueues, DistributeBlockedGivesContiguousRangesPerGroup) {
  TaskQueues q(3);
  q.distribute_blocked(/*num_splits=*/10, /*task_size=*/2);
  // Blocks: group0 [0,4), group1 [4,7), group2 [7,10) -> exactly two tasks
  // per group with task_size 2. Popping that many per group never steals.
  std::vector<std::vector<TaskRange>> per_group(3);
  for (std::size_t g = 0; g < 3; ++g) {
    for (int i = 0; i < 2; ++i) {
      auto t = q.pop(g);
      ASSERT_TRUE(t.has_value());
      per_group[g].push_back(*t);
    }
  }
  EXPECT_EQ(q.steals(), 0u);
  EXPECT_EQ(q.pending(), 0u);
  ASSERT_FALSE(per_group[0].empty());
  EXPECT_EQ(per_group[0].front().begin, 0u);
  EXPECT_EQ(per_group[0].back().end, 4u);
  EXPECT_EQ(per_group[1].front().begin, 4u);
  EXPECT_EQ(per_group[1].back().end, 7u);
  EXPECT_EQ(per_group[2].front().begin, 7u);
  EXPECT_EQ(per_group[2].back().end, 10u);
  // Contiguity within each group's block.
  for (const auto& tasks : per_group) {
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      EXPECT_EQ(tasks[i].begin, tasks[i - 1].end);
    }
  }
}

TEST(TaskQueues, DistributeBlockedCoversAllSplitsOnce) {
  TaskQueues q(4);
  q.distribute_blocked(101, 7);
  std::vector<bool> seen(101, false);
  for (std::size_t g = 0; g < 4; ++g) {
    while (auto t = q.pop(g)) {
      for (std::size_t s = t->begin; s < t->end; ++s) {
        EXPECT_FALSE(seen[s]);
        seen[s] = true;
      }
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(TaskQueues, LocalPopsPreferOwnGroup) {
  TaskQueues q(2);
  q.push(0, {0, 1});
  q.push(0, {1, 2});
  q.push(1, {2, 3});
  auto t = q.pop(0);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->begin, 0u);  // FIFO from own queue
  EXPECT_EQ(q.local_pops(), 1u);
  EXPECT_EQ(q.steals(), 0u);
}

TEST(TaskQueues, StealsWhenLocalEmpty) {
  TaskQueues q(2);
  q.push(1, {5, 6});
  auto t = q.pop(0);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->begin, 5u);
  EXPECT_EQ(q.steals(), 1u);
}

TEST(TaskQueues, PopReturnsNulloptWhenAllEmpty) {
  TaskQueues q(2);
  EXPECT_EQ(q.pop(0), std::nullopt);
  EXPECT_EQ(q.pop(1), std::nullopt);
}

TEST(TaskQueues, PendingTracksRemaining) {
  TaskQueues q(1);
  q.distribute(10, 5);
  EXPECT_EQ(q.pending(), 2u);
  q.pop(0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(TaskQueues, RejectsBadArguments) {
  EXPECT_THROW(TaskQueues(0), ConfigError);
  TaskQueues q(1);
  EXPECT_THROW(q.distribute(10, 0), ConfigError);
  EXPECT_THROW(q.pop(5), Error);
}

TEST(TaskQueues, ConcurrentDrainExecutesEachTaskOnce) {
  TaskQueues q(4);
  const std::size_t splits = 4000;
  q.distribute(splits, 3);
  std::vector<std::atomic<int>> hit(splits);
  ThreadPool pool(8);
  pool.run_on_all([&](std::size_t w) {
    const std::size_t group = w % 4;
    while (auto t = q.pop(group)) {
      for (std::size_t s = t->begin; s < t->end; ++s) hit[s]++;
    }
  });
  for (std::size_t s = 0; s < splits; ++s) {
    EXPECT_EQ(hit[s].load(), 1) << "split " << s;
  }
  EXPECT_GT(q.local_pops() + q.steals(), 0u);
}

TEST(ThreadPool, DestructionAfterStartWithoutWaitIsClean) {
  // A pool destroyed with a region started but never waited on must let the
  // workers finish the region and join cleanly.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    pool.start([&](std::size_t) { ran++; });
    // no wait(): destructor runs with the region possibly in flight
  }
  EXPECT_EQ(ran.load(), 3);
}

// ---------- parallel_tree_merge ----------------------------------------------

namespace {
// Minimal mergeable container for tree-merge tests; `entries` is what
// size() reports, and each merge records the thread it ran on.
struct Bag {
  std::uint64_t sum = 0;
  std::size_t entries = 0;
  std::vector<std::thread::id> merged_on;
  std::size_t size() const { return entries; }
  void merge_from(const Bag& other) {
    sum += other.sum;
    merged_on.push_back(std::this_thread::get_id());
  }
};
}  // namespace

TEST(ParallelTreeMerge, CombinesEverythingIntoSlotZero) {
  // 1 entry per bag stays under the 4096-entry floor (merged on the
  // caller); 5000 per bag goes over it (merged on the pool).
  for (std::size_t entries : {1u, 5000u}) {
    for (std::size_t workers : {1u, 2u, 4u}) {
      for (std::size_t count : {1u, 2u, 3u, 7u, 8u, 16u, 33u}) {
        ThreadPool pool(workers);
        std::vector<Bag> bags(count);
        std::uint64_t expected = 0;
        for (std::size_t i = 0; i < count; ++i) {
          bags[i].sum = i + 1;
          bags[i].entries = entries;
          expected += i + 1;
        }
        parallel_tree_merge(pool, bags);
        EXPECT_EQ(bags[0].sum, expected)
            << "entries=" << entries << " workers=" << workers
            << " count=" << count;
        if (entries * count < 4096) {
          for (const Bag& b : bags) {
            for (const std::thread::id id : b.merged_on) {
              EXPECT_EQ(id, std::this_thread::get_id());
            }
          }
        }
      }
    }
  }
}

// Parameterised: distribute() with varying task sizes always partitions the
// split range exactly.
class DistributeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DistributeSweep, PartitionExact) {
  const auto [splits, task_size] = GetParam();
  TaskQueues q(2);
  q.distribute(splits, task_size);
  std::size_t covered = 0;
  for (std::size_t g = 0; g < 2; ++g) {
    while (auto t = q.pop(g)) covered += t->size();
  }
  EXPECT_EQ(covered, splits);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistributeSweep,
    ::testing::Combine(::testing::Values(0, 1, 7, 64, 1000),
                       ::testing::Values(1, 3, 8, 1000)));

}  // namespace
}  // namespace ramr::sched
