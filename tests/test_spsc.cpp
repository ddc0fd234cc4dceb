// Unit, property, and stress tests for the SPSC ring, ring sets, the
// doorbell wait, and the dynamic-queue ablation baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "spsc/doorbell.hpp"
#include "spsc/dynamic_queue.hpp"
#include "spsc/ring.hpp"
#include "spsc/ring_set.hpp"

namespace ramr::spsc {
namespace {

// ---------- Ring: single-threaded semantics ---------------------------------

TEST(Ring, CapacityRoundsUpToPowerOfTwo) {
  Ring<int> r(5000);
  EXPECT_EQ(r.capacity(), 8192u);
  Ring<int> r2(64);
  EXPECT_EQ(r2.capacity(), 64u);
}

TEST(Ring, RejectsTinyCapacity) {
  EXPECT_THROW(Ring<int>(0), ConfigError);
  EXPECT_THROW(Ring<int>(1), ConfigError);
}

TEST(Ring, PushPopFifoOrder) {
  Ring<int> r(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(r.try_push(i));
  EXPECT_FALSE(r.try_push(99));  // full: all 8 slots usable
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(r.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(r.try_pop(out));
}

TEST(Ring, FullThenFreeAcceptsAgain) {
  Ring<int> r(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(r.try_push(i));
  EXPECT_FALSE(r.try_push(4));
  int out;
  ASSERT_TRUE(r.try_pop(out));
  EXPECT_TRUE(r.try_push(4));
}

TEST(Ring, WrapAroundPreservesOrder) {
  Ring<int> r(4);
  int out;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(r.try_push(round * 2));
    ASSERT_TRUE(r.try_push(round * 2 + 1));
    ASSERT_TRUE(r.try_pop(out));
    EXPECT_EQ(out, round * 2);
    ASSERT_TRUE(r.try_pop(out));
    EXPECT_EQ(out, round * 2 + 1);
  }
}

TEST(Ring, SizeTracksOccupancy) {
  Ring<int> r(8);
  EXPECT_TRUE(r.empty());
  r.try_push(1);
  r.try_push(2);
  EXPECT_EQ(r.size(), 2u);
  int out;
  r.try_pop(out);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Ring, MoveOnlyElements) {
  Ring<std::unique_ptr<int>> r(4);
  EXPECT_TRUE(r.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(r.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 7);
}

TEST(Ring, DestroysLeftoverElements) {
  // shared_ptr use-count observes that the ring destroys undrained slots.
  auto marker = std::make_shared<int>(0);
  {
    Ring<std::shared_ptr<int>> r(8);
    for (int i = 0; i < 5; ++i) r.try_push(marker);
    EXPECT_EQ(marker.use_count(), 6);
  }
  EXPECT_EQ(marker.use_count(), 1);
}

TEST(Ring, FailedPushLeavesValueIntactForRetry) {
  // Regression: the mapper retries with the same object after a full-queue
  // failure, so try_push must not move from its argument when it fails.
  Ring<std::string> r(2);
  ASSERT_TRUE(r.try_push(std::string("a")));
  ASSERT_TRUE(r.try_push(std::string("b")));
  std::string v = "sticky";
  EXPECT_FALSE(r.try_push(std::move(v)));
  EXPECT_EQ(v, "sticky");
  std::string out;
  ASSERT_TRUE(r.try_pop(out));
  EXPECT_TRUE(r.try_push(std::move(v)));
  ASSERT_TRUE(r.try_pop(out));
  ASSERT_TRUE(r.try_pop(out));
  EXPECT_EQ(out, "sticky");
}

TEST(Ring, CloseIsVisible) {
  Ring<int> r(4);
  EXPECT_FALSE(r.closed());
  r.close();
  EXPECT_TRUE(r.closed());
}

TEST(Ring, MaxOccupancyHighWaterMark) {
  Ring<int> r(16);
  int out;
  // Fill to 5, drain 2, fill to 9: consumer observes depth when its cached
  // tail refreshes, so pops must interleave.
  for (int i = 0; i < 5; ++i) r.try_push(i);
  r.try_pop(out);  // refresh: sees 5
  EXPECT_EQ(r.consumer_stats().max_occupancy, 5u);
  r.try_pop(out);
  for (int i = 0; i < 6; ++i) r.try_push(i);
  while (r.try_pop(out)) {
  }
  EXPECT_GE(r.consumer_stats().max_occupancy, 5u);
  EXPECT_LE(r.consumer_stats().max_occupancy, 16u);
}

TEST(RingSet, SingleRingDegenerateCase) {
  Ring<int> only(8);
  RingSet<int> set({&only});
  only.try_push(1);
  only.try_push(2);
  only.close();
  int sum = 0;
  std::size_t n = 0;
  while (!set.finished()) {
    n += set.sweep(
        [&](std::span<int> block) {
          for (int v : block) sum += v;
        },
        4);
  }
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(sum, 3);
  EXPECT_TRUE(set.finished());
}

TEST(Ring, ConsumeBatchZeroMaxElementsIsANoOp) {
  Ring<int> r(8);
  r.try_push(1);
  EXPECT_EQ(r.consume_batch([](std::span<int>) {}, 0), 0u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Ring, StatsCountPushesAndFailures) {
  Ring<int> r(2);
  r.try_push(1);
  r.try_push(2);
  r.try_push(3);  // fails
  EXPECT_EQ(r.producer_stats().pushes, 2u);
  EXPECT_EQ(r.producer_stats().failed_pushes, 1u);
  int out;
  r.try_pop(out);
  r.try_pop(out);
  r.try_pop(out);  // fails
  EXPECT_EQ(r.consumer_stats().pops, 2u);
  EXPECT_EQ(r.consumer_stats().failed_pops, 1u);
}

// ---------- Ring: batched consume -------------------------------------------

TEST(RingBatch, ConsumesUpToBatchSize) {
  Ring<int> r(16);
  for (int i = 0; i < 10; ++i) r.try_push(i);
  std::vector<int> got;
  const std::size_t n = r.consume_batch(
      [&](std::span<int> block) {
        got.insert(got.end(), block.begin(), block.end());
      },
      4);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(r.size(), 6u);
}

TEST(RingBatch, HandlesWrapWithTwoSpans) {
  Ring<int> r(4);
  int out;
  // Advance head to 3 so a 4-element batch wraps.
  for (int i = 0; i < 3; ++i) {
    r.try_push(i);
    r.try_pop(out);
  }
  for (int i = 10; i < 14; ++i) ASSERT_TRUE(r.try_push(i));
  std::vector<std::size_t> span_sizes;
  std::vector<int> got;
  const std::size_t n = r.consume_batch(
      [&](std::span<int> block) {
        span_sizes.push_back(block.size());
        got.insert(got.end(), block.begin(), block.end());
      },
      8);
  EXPECT_EQ(n, 4u);
  ASSERT_EQ(span_sizes.size(), 2u);  // wrapped: two contiguous blocks
  EXPECT_EQ(span_sizes[0], 1u);
  EXPECT_EQ(span_sizes[1], 3u);
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13}));
}

TEST(RingBatch, EmptyReturnsZeroWithoutCallingFunctor) {
  Ring<int> r(8);
  bool called = false;
  EXPECT_EQ(r.consume_batch([&](std::span<int>) { called = true; }, 4), 0u);
  EXPECT_FALSE(called);
}

TEST(RingBatch, CountsBatches) {
  Ring<int> r(8);
  for (int i = 0; i < 6; ++i) r.try_push(i);
  r.consume_batch([](std::span<int>) {}, 3);
  r.consume_batch([](std::span<int>) {}, 3);
  EXPECT_EQ(r.consumer_stats().batches, 2u);
  EXPECT_EQ(r.consumer_stats().pops, 6u);
}

// ---------- Ring: batched publish --------------------------------------------

TEST(RingPushBatch, PublishesAPrefixInFifoOrder) {
  Ring<int> r(8);
  std::vector<int> batch{0, 1, 2, 3, 4};
  EXPECT_EQ(r.try_push_batch(std::span<int>(batch)), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(r.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(r.try_pop(out));
}

TEST(RingPushBatch, EmptySpanIsANoOp) {
  Ring<int> r(4);
  EXPECT_EQ(r.try_push_batch(std::span<int>{}), 0u);
  EXPECT_EQ(r.producer_stats().push_batches, 0u);
  EXPECT_EQ(r.producer_stats().failed_pushes, 0u);
}

TEST(RingPushBatch, PartialAcceptanceNearFull) {
  Ring<int> r(4);
  ASSERT_TRUE(r.try_push(100));
  ASSERT_TRUE(r.try_push(101));
  std::vector<int> batch{0, 1, 2, 3};
  // Only 2 slots free: a prefix of 2 is accepted, the rest stays valid.
  EXPECT_EQ(r.try_push_batch(std::span<int>(batch)), 2u);
  EXPECT_EQ(batch[2], 2);
  EXPECT_EQ(batch[3], 3);
  int out;
  ASSERT_TRUE(r.try_pop(out));
  EXPECT_EQ(out, 100);
  ASSERT_TRUE(r.try_pop(out));
  ASSERT_TRUE(r.try_pop(out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(r.try_pop(out));
  EXPECT_EQ(out, 1);
}

TEST(RingPushBatch, FullRingReturnsZeroAndCountsOneFailedPush) {
  Ring<int> r(2);
  ASSERT_TRUE(r.try_push(1));
  ASSERT_TRUE(r.try_push(2));
  std::vector<int> batch{3, 4};
  EXPECT_EQ(r.try_push_batch(std::span<int>(batch)), 0u);
  EXPECT_EQ(r.producer_stats().failed_pushes, 1u);
  EXPECT_EQ(r.producer_stats().push_batches, 0u);
  EXPECT_EQ(batch[0], 3);  // nothing was moved from
}

TEST(RingPushBatch, WrapAroundSplitsIntoTwoSpansCorrectly) {
  Ring<int> r(4);
  int out;
  // Advance the indices so the next batch wraps the slot array.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(r.try_push(i));
    ASSERT_TRUE(r.try_pop(out));
  }
  std::vector<int> batch{10, 11, 12, 13};
  EXPECT_EQ(r.try_push_batch(std::span<int>(batch)), 4u);
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(r.try_pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(RingPushBatch, OneControlUpdatePerBlock) {
  // The whole point of the batch: control-variable traffic per BLOCK, not
  // per element. 16 elements through batches of 4 on a roomy ring must
  // count 4 push_batches and 0 head refreshes (the cached head never goes
  // stale with a same-thread consumer draining between blocks).
  Ring<int> r(16);
  int out;
  std::vector<int> block{0, 1, 2, 3};
  for (int b = 0; b < 4; ++b) {
    ASSERT_EQ(r.try_push_batch(std::span<int>(block)), 4u);
    while (r.try_pop(out)) {
    }
  }
  EXPECT_EQ(r.producer_stats().pushes, 16u);
  EXPECT_EQ(r.producer_stats().push_batches, 4u);
  EXPECT_EQ(r.producer_stats().head_refreshes, 0u);
}

TEST(RingPushBatch, MoveOnlyElements) {
  Ring<std::unique_ptr<int>> r(4);
  std::vector<std::unique_ptr<int>> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(std::make_unique<int>(i));
  EXPECT_EQ(r.try_push_batch(std::span<std::unique_ptr<int>>(batch)), 3u);
  std::unique_ptr<int> out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(r.try_pop(out));
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, i);
  }
}

TEST(RingPushBatch, CloseAfterFinalBatchDeliversEverything) {
  // The mapper's shutdown path: flush the leftover partial block, then
  // close. Nothing buffered may be lost and the consumer must observe
  // closed + empty only after draining the final batch.
  Ring<int> r(8);
  std::vector<int> batch{1, 2, 3};
  ASSERT_EQ(r.try_push_batch(std::span<int>(batch)), 3u);
  r.close();
  EXPECT_TRUE(r.closed());
  int out;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(r.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(r.try_pop(out));
  EXPECT_TRUE(r.closed() && r.empty());
}

TEST(RingPushBatch, ConcurrentBatchedProducerTransfersEverythingOnce) {
  Ring<std::uint64_t> r(64);
  const std::uint64_t total = 50000;
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  std::uint64_t last = 0;
  bool ordered = true;

  std::thread consumer([&] {
    for (;;) {
      const std::size_t got = r.consume_batch(
          [&](std::span<std::uint64_t> block) {
            for (std::uint64_t v : block) {
              if (count > 0 && v != last + 1) ordered = false;
              last = v;
              sum += v;
              ++count;
            }
          },
          32);
      if (got == 0) {
        if (r.closed() && r.empty()) break;
        std::this_thread::yield();
      }
    }
  });

  std::vector<std::uint64_t> staging;
  std::uint64_t next = 1;
  while (next <= total) {
    staging.clear();
    for (int i = 0; i < 17 && next <= total; ++i) staging.push_back(next++);
    std::span<std::uint64_t> rest(staging);
    while (!rest.empty()) {
      const std::size_t n = r.try_push_batch(rest);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      rest = rest.subspan(n);
    }
  }
  r.close();
  consumer.join();

  EXPECT_EQ(count, total);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sum, total * (total + 1) / 2);
  EXPECT_EQ(r.producer_stats().pushes, total);
  EXPECT_GT(r.producer_stats().push_batches, 0u);
}

// Property sweep: every (capacity, batch) combination moves all elements
// exactly once, in order.
class RingSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RingSweep, AllElementsArriveInOrder) {
  const auto [capacity, batch] = GetParam();
  Ring<std::uint64_t> r(capacity);
  const std::uint64_t total = 1000;
  std::uint64_t next_push = 0;
  std::vector<std::uint64_t> got;
  // Interleave pushes and batched pops single-threadedly.
  while (got.size() < total) {
    while (next_push < total && r.try_push(next_push)) ++next_push;
    r.consume_batch(
        [&](std::span<std::uint64_t> block) {
          got.insert(got.end(), block.begin(), block.end());
        },
        batch);
  }
  ASSERT_EQ(got.size(), total);
  for (std::uint64_t i = 0; i < total; ++i) EXPECT_EQ(got[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityBatchGrid, RingSweep,
    ::testing::Combine(::testing::Values(2, 4, 16, 64, 1024),
                       ::testing::Values(1, 3, 16, 100)));

// ---------- Ring: concurrent stress ------------------------------------------

class RingStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingStress, ProducerConsumerTransfersEverythingOnce) {
  const std::size_t capacity = GetParam();
  Ring<std::uint64_t> r(capacity);
  const std::uint64_t total = 20000;
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  std::uint64_t last = 0;
  bool ordered = true;

  std::thread consumer([&] {
    for (;;) {
      const std::size_t got = r.consume_batch(
          [&](std::span<std::uint64_t> block) {
            for (std::uint64_t v : block) {
              if (count > 0 && v != last + 1) ordered = false;
              last = v;
              sum += v;
              ++count;
            }
          },
          64);
      if (got == 0) {
        if (r.closed() && r.empty()) break;
        std::this_thread::yield();
      }
    }
  });

  for (std::uint64_t i = 1; i <= total; ++i) {
    while (!r.try_push(i)) std::this_thread::yield();
  }
  r.close();
  consumer.join();

  EXPECT_EQ(count, total);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sum, total * (total + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingStress,
                         ::testing::Values(2, 8, 128, 5000));

TEST(RingStress, ElementWisePopAlsoCompletes) {
  Ring<int> r(4);
  std::atomic<long long> sum{0};
  std::thread consumer([&] {
    int out;
    for (;;) {
      if (r.try_pop(out)) {
        sum += out;
      } else if (r.closed() && r.empty()) {
        break;
      } else {
        cpu_relax();
      }
    }
  });
  for (int i = 1; i <= 5000; ++i) {
    while (!r.try_push(i)) cpu_relax();
  }
  r.close();
  consumer.join();
  EXPECT_EQ(sum.load(), 5000LL * 5001 / 2);
}

// ---------- RingSet -----------------------------------------------------------

TEST(RingSet, DrainsMultipleQueuesToCompletion) {
  constexpr std::size_t kQueues = 3;
  std::vector<std::unique_ptr<Ring<std::uint64_t>>> rings;
  for (std::size_t q = 0; q < kQueues; ++q) {
    rings.push_back(std::make_unique<Ring<std::uint64_t>>(64));
  }
  std::vector<Ring<std::uint64_t>*> ptrs;
  for (auto& r : rings) ptrs.push_back(r.get());
  RingSet<std::uint64_t> set(ptrs);
  EXPECT_EQ(set.queue_count(), kQueues);

  const std::uint64_t per_queue = 5000;
  std::uint64_t sum = 0;
  std::thread combiner([&] {
    while (!set.finished()) {
      const std::size_t got = set.sweep(
          [&](std::span<std::uint64_t> block) {
            for (std::uint64_t v : block) sum += v;
          },
          32);
      if (got == 0) std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t q = 0; q < kQueues; ++q) {
    producers.emplace_back([&, q] {
      for (std::uint64_t i = 1; i <= per_queue; ++i) {
        while (!rings[q]->try_push(i)) std::this_thread::yield();
      }
      rings[q]->close();
    });
  }
  for (auto& t : producers) t.join();
  combiner.join();

  EXPECT_EQ(sum, kQueues * per_queue * (per_queue + 1) / 2);
}

TEST(RingSet, FinishedOnlyWhenAllClosedAndEmpty) {
  // ready() is the idle combiner's wait condition: data to sweep, or
  // every queue closed.
  Ring<int> a(4), b(4);
  RingSet<int> set({&a, &b});
  EXPECT_FALSE(set.finished());
  EXPECT_FALSE(set.ready());
  a.close();
  EXPECT_FALSE(set.finished());  // b still open
  EXPECT_FALSE(set.ready());
  b.try_push(1);
  EXPECT_TRUE(set.ready());
  b.close();
  EXPECT_FALSE(set.finished());  // b closed but not empty
  int out;
  b.try_pop(out);
  EXPECT_TRUE(set.finished());
  EXPECT_TRUE(set.ready());
}

// ---------- DynamicQueue (ablation baseline) ----------------------------------

TEST(DynamicQueue, BlockingPopReturnsNulloptAfterClose) {
  DynamicQueue<int> q;
  q.push(1);
  q.close();
  auto a = q.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(DynamicQueue, SoftCapacityBoundsTryPush) {
  DynamicQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.try_pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(DynamicQueue, ConcurrentTransfer) {
  DynamicQueue<std::uint64_t> q(128);
  const std::uint64_t total = 20000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    for (;;) {
      auto v = q.pop();
      if (!v) break;
      sum += *v;
    }
  });
  for (std::uint64_t i = 1; i <= total; ++i) q.push(i);
  q.close();
  consumer.join();
  EXPECT_EQ(sum, total * (total + 1) / 2);
}

// ---------- Doorbell ------------------------------------------------------------

TEST(Doorbell, ReadyWaitReturnsWithoutBlocking) {
  Doorbell bell;
  EXPECT_FALSE(bell.wait([] { return true; }));
}

TEST(Doorbell, UnrungWaitIsBounded) {
  // Nobody rings: the wait still returns after one bounded block, so a
  // waiter polls its cancellation token and heartbeat at least that often.
  Doorbell bell;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(bell.wait([] { return false; }));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, Doorbell::kMaxBlock);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Doorbell, LostWakeupTortureOnATwoSlotRing) {
  // The pipeline's hand-off protocol on the tightest ring (capacity 2,
  // batch 1): the producer rings the consumer's bell after every record
  // and before it blocks, the consumer rings the producer's bell once the
  // ring is at most half full, and each side blocks on its own bell. A
  // wakeup lost to the arm/re-check race costs a full kMaxBlock, so a
  // million records finishing within the bound shows the race is closed.
  Ring<std::uint64_t> ring(2);
  Doorbell space;
  Doorbell work;
  const std::size_t half_full = ring.capacity() / 2;
  const std::uint64_t total = 1'000'000;
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  std::uint64_t last = 0;
  bool ordered = true;

  const auto start = std::chrono::steady_clock::now();
  std::thread consumer([&] {
    for (;;) {
      const std::size_t got = ring.consume_batch(
          [&](std::span<std::uint64_t> block) {
            for (std::uint64_t v : block) {
              if (count > 0 && v != last + 1) ordered = false;
              last = v;
              sum += v;
              ++count;
            }
          },
          1);
      if (got > 0) {
        space.notify_if([&] { return ring.size() <= half_full; });
        continue;
      }
      if (ring.closed() && ring.empty()) break;
      work.wait([&] { return !ring.empty() || ring.closed(); });
    }
  });
  for (std::uint64_t i = 1; i <= total; ++i) {
    while (!ring.try_push(i)) {
      work.notify();
      space.wait([&] { return ring.size() <= half_full; });
    }
    work.notify();
  }
  ring.close();
  work.notify();
  consumer.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(count, total);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sum, total * (total + 1) / 2);
  EXPECT_LT(elapsed, std::chrono::seconds(60));
}

}  // namespace
}  // namespace ramr::spsc
