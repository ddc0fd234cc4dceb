// Tests for combiners and the three intermediate container variants,
// including property checks against std::map as the reference semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "containers/combiners.hpp"
#include "containers/container_traits.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "containers/metis_container.hpp"

namespace ramr::containers {
namespace {

// ---------- combiners --------------------------------------------------------

TEST(Combiners, SumAndCount) {
  std::uint64_t acc = CountCombiner::identity();
  CountCombiner::combine(acc, 3);
  CountCombiner::combine(acc, 4);
  EXPECT_EQ(acc, 7u);
}

TEST(Combiners, MinMax) {
  double lo = MinCombiner<double>::identity();
  double hi = MaxCombiner<double>::identity();
  for (double v : {3.0, -1.0, 7.0}) {
    MinCombiner<double>::combine(lo, v);
    MaxCombiner<double>::combine(hi, v);
  }
  EXPECT_DOUBLE_EQ(lo, -1.0);
  EXPECT_DOUBLE_EQ(hi, 7.0);
}

struct Moments {
  double sum = 0.0;
  std::uint64_t n = 0;
  void merge(const Moments& o) {
    sum += o.sum;
    n += o.n;
  }
  bool operator==(const Moments&) const = default;
};

TEST(Combiners, MergeCombinerUsesMemberMerge) {
  using C = MergeCombiner<Moments>;
  Moments acc = C::identity();
  C::combine(acc, Moments{2.5, 1});
  C::combine(acc, Moments{1.5, 2});
  EXPECT_EQ(acc, (Moments{4.0, 3}));
  static_assert(Combiner<C>);
}

// ---------- FixedArrayContainer -----------------------------------------------

TEST(FixedArray, EmitCombinesIntoSlots) {
  FixedArrayContainer<std::uint64_t, CountCombiner> c(8);
  c.emit(3, 1);
  c.emit(3, 1);
  c.emit(5, 2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.at(3), 2u);
  EXPECT_EQ(c.at(5), 2u);
  EXPECT_TRUE(c.contains(3));
  EXPECT_FALSE(c.contains(4));
}

TEST(FixedArray, ForEachVisitsInKeyOrder) {
  FixedArrayContainer<std::uint64_t, CountCombiner> c(16);
  c.emit(9, 1);
  c.emit(2, 1);
  c.emit(13, 1);
  std::vector<std::size_t> keys;
  c.for_each([&](std::size_t k, std::uint64_t) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::size_t>{2, 9, 13}));
}

TEST(FixedArray, MergeFromCombinesAndCountsDistinct) {
  FixedArrayContainer<std::uint64_t, CountCombiner> a(8), b(8);
  a.emit(1, 1);
  b.emit(1, 2);
  b.emit(7, 5);
  a.merge_from(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at(1), 3u);
  EXPECT_EQ(a.at(7), 5u);
}

TEST(FixedArray, MergeRejectsShapeMismatch) {
  FixedArrayContainer<std::uint64_t, CountCombiner> a(8), b(16);
  EXPECT_THROW(a.merge_from(b), Error);
}

TEST(FixedArray, ClearResets) {
  FixedArrayContainer<std::uint64_t, CountCombiner> c(4);
  c.emit(0, 1);
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.contains(0));
}

#ifndef NDEBUG
TEST(FixedArray, DebugBoundsCheck) {
  FixedArrayContainer<std::uint64_t, CountCombiner> c(4);
  EXPECT_THROW(c.emit(4, 1), CapacityError);
}
#endif

// ---------- hash containers (fixed and regular) --------------------------------

template <typename Ct>
class HashContainerTyped : public ::testing::Test {};

using HashVariants =
    ::testing::Types<FixedHashContainer<std::string, std::uint64_t, CountCombiner>,
                     HashContainer<std::string, std::uint64_t, CountCombiner>,
                     MetisContainer<std::string, std::uint64_t, CountCombiner>>;
TYPED_TEST_SUITE(HashContainerTyped, HashVariants);

TYPED_TEST(HashContainerTyped, EmitCombineLookup) {
  TypeParam c(16);
  c.emit("alpha", 1);
  c.emit("beta", 2);
  c.emit("alpha", 3);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.at("alpha"), 4u);
  EXPECT_EQ(c.at("beta"), 2u);
  EXPECT_TRUE(c.contains("alpha"));
  EXPECT_FALSE(c.contains("gamma"));
  EXPECT_THROW(c.at("gamma"), Error);
}

TYPED_TEST(HashContainerTyped, MatchesStdMapReference) {
  TypeParam c(512);
  std::map<std::string, std::uint64_t> ref;
  Xoshiro256 rng(77);
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k";
    key += std::to_string(rng.below(300));
    const std::uint64_t v = rng.below(10);
    c.emit(key, v);
    ref[key] += v;
  }
  EXPECT_EQ(c.size(), ref.size());
  const auto pairs = to_sorted_pairs(c);
  ASSERT_EQ(pairs.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : pairs) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TYPED_TEST(HashContainerTyped, MergeFromEqualsUnion) {
  TypeParam a(64), b(64);
  a.emit("x", 1);
  a.emit("y", 2);
  b.emit("y", 3);
  b.emit("z", 4);
  a.merge_from(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.at("y"), 5u);
  EXPECT_EQ(a.at("z"), 4u);
}

TYPED_TEST(HashContainerTyped, ClearEmptiesEverything) {
  TypeParam c(16);
  c.emit("a", 1);
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.contains("a"));
  c.emit("a", 2);  // usable after clear
  EXPECT_EQ(c.at("a"), 2u);
}

TEST(FixedHash, ThrowsWhenCapacityExhausted) {
  FixedHashContainer<std::uint64_t, std::uint64_t, CountCombiner> c(4);
  for (std::uint64_t k = 0; k < 4; ++k) c.emit(k, 1);
  c.emit(2, 1);  // existing key: fine
  EXPECT_THROW(c.emit(99, 1), CapacityError);
}

TEST(RegularHash, GrowsBeyondInitialSizing) {
  HashContainer<std::uint64_t, std::uint64_t, CountCombiner> c(4);
  const std::size_t initial_slots = c.slot_count();
  for (std::uint64_t k = 0; k < 1000; ++k) c.emit(k, k);
  EXPECT_GT(c.slot_count(), initial_slots);
  EXPECT_EQ(c.size(), 1000u);
  for (std::uint64_t k : {0ull, 137ull, 999ull}) EXPECT_EQ(c.at(k), k);
}

TEST(RegularHash, SequentialIntegerKeysProbeFine) {
  // Guards the hash mixing: identity-hashed sequential keys would cluster.
  HashContainer<std::uint64_t, std::uint64_t, CountCombiner> c(1 << 12);
  for (std::uint64_t k = 0; k < 4096; ++k) c.emit(k * 64, 1);
  EXPECT_EQ(c.size(), 4096u);
}

TEST(Metis, BucketsStayOrderedAndGrowWithoutRehash) {
  MetisContainer<std::uint64_t, std::uint64_t, CountCombiner> c(16);
  const std::size_t buckets_before = c.bucket_count();
  for (std::uint64_t k = 0; k < 5000; ++k) c.emit(k, 1);
  EXPECT_EQ(c.size(), 5000u);
  EXPECT_EQ(c.bucket_count(), buckets_before);  // never rehashes
  for (std::uint64_t k : {0ull, 1234ull, 4999ull}) EXPECT_EQ(c.at(k), 1u);
  EXPECT_FALSE(c.contains(5000));
}

TEST(Metis, SatisfiesIntermediateContainerConcept) {
  static_assert(IntermediateContainer<
                MetisContainer<std::uint64_t, std::uint64_t, CountCombiner>>);
  SUCCEED();
}

// Property sweep over expected_keys sizing: the fixed container accepts
// exactly `expected` distinct keys, never fewer.
class FixedHashCapacity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FixedHashCapacity, AcceptsExactlyTheAdvertisedCapacity) {
  const std::size_t cap = GetParam();
  FixedHashContainer<std::uint64_t, std::uint64_t, CountCombiner> c(cap);
  for (std::uint64_t k = 0; k < cap; ++k) {
    ASSERT_NO_THROW(c.emit(k, 1)) << "key " << k << " of " << cap;
  }
  EXPECT_THROW(c.emit(cap + 1000000, 1), CapacityError);
}

INSTANTIATE_TEST_SUITE_P(Capacities, FixedHashCapacity,
                         ::testing::Values(1, 2, 3, 7, 64, 1000));

// KeyValue record behaves as a regular aggregate (pipelined through rings).
TEST(KeyValueRecord, AggregateEquality) {
  KeyValue<std::string, std::uint64_t> a{"w", 2}, b{"w", 2}, c{"w", 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  static_assert(
      std::is_trivially_copyable_v<KeyValue<std::uint64_t, std::uint64_t>>);
}

}  // namespace
}  // namespace ramr::containers
