// Tests for combiners and the three intermediate container variants,
// including property checks against std::map as the reference semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "apps/inputs.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "containers/combiners.hpp"
#include "containers/container_traits.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "containers/key_hash.hpp"
#include "containers/key_sort.hpp"
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

// Sizing must fail loudly, not wrap: a wrapped slot count left a fixed
// table with 2 slots that spun forever in find_slot on its third key.
TEST(FixedHash, SlotCountOverflowThrows) {
  // (expected * 10 + 6) wraps to 10 for this value, i.e. 2 slots.
  const std::size_t wraps = std::numeric_limits<std::size_t>::max() / 10 + 1;
  using Fixed = FixedHashContainer<std::uint64_t, std::uint64_t, CountCombiner>;
  EXPECT_THROW(Fixed{wraps}, CapacityError);
  EXPECT_THROW(Fixed{std::numeric_limits<std::size_t>::max()}, CapacityError);
}

TEST(HashSizing, RoundUpPow2ThrowsPastTheTopBit) {
  constexpr std::size_t kTop = std::size_t{1}
                               << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_EQ(detail::round_up_pow2(0), 1u);
  EXPECT_EQ(detail::round_up_pow2(5), 8u);
  EXPECT_EQ(detail::round_up_pow2(kTop), kTop);
  EXPECT_THROW(detail::round_up_pow2(kTop + 1), CapacityError);
  EXPECT_THROW(detail::round_up_pow2(std::numeric_limits<std::size_t>::max()),
               CapacityError);
}

// ---------- KeyHash ------------------------------------------------------------

// Distinct keys must get distinct 64-bit hashes; returns the number of
// collisions (0 expected for every family below).
std::size_t count_collisions(const std::vector<std::string>& keys) {
  std::unordered_set<std::uint64_t> seen;
  std::size_t collisions = 0;
  for (const std::string& k : keys) {
    if (!seen.insert(KeyHash<std::string>{}(k)).second) ++collisions;
  }
  return collisions;
}

std::vector<std::string> distinct(std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// The distinct words among the first 100 k of make_text's Zipf text.
std::vector<std::string> text_word_keys() {
  std::istringstream in(apps::make_text(1 << 20, 1 << 18, 21));
  std::vector<std::string> words;
  for (std::string w; words.size() < 100000 && in >> w;) words.push_back(w);
  return distinct(std::move(words));
}

std::vector<std::string> numeric_keys() {
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 100000; ++i) keys.push_back(std::to_string(i));
  return keys;
}

// 10 k keys of one length that share a 40-byte prefix. 10 k distinct keys
// cannot differ in one byte alone, so they differ only in their last two.
std::vector<std::string> shared_prefix_keys() {
  const std::string prefix(40, 'p');
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 10000; ++i) {
    std::string k = prefix;
    k += static_cast<char>(i >> 8);
    k += static_cast<char>(i & 0xff);
    keys.push_back(std::move(k));
  }
  return keys;
}

TEST(KeyHash, ShortStringsNeverCollide) {
  // Every string of length 0-3 over 64 symbols, '\0' included.
  std::string alphabet(1, '\0');
  for (char c = 'a'; c <= 'z'; ++c) alphabet += c;
  for (char c = 'A'; c <= 'Z'; ++c) alphabet += c;
  alphabet += "0123456789\xff";
  ASSERT_EQ(alphabet.size(), 64u);
  std::vector<std::string> keys{""};
  for (std::size_t len = 1, first = 0; len <= 3; ++len) {
    const std::size_t last = keys.size();
    for (std::size_t i = first; i < last; ++i) {
      for (char c : alphabet) keys.push_back(keys[i] + c);
    }
    first = last;
  }
  ASSERT_EQ(keys.size(), 1u + 64 + 64 * 64 + 64 * 64 * 64);
  EXPECT_EQ(count_collisions(keys), 0u);
}

TEST(KeyHash, WordNumericAndSharedPrefixKeysNeverCollide) {
  const auto words = text_word_keys();
  EXPECT_GT(words.size(), 10000u);
  EXPECT_EQ(count_collisions(words), 0u);
  EXPECT_EQ(count_collisions(numeric_keys()), 0u);
  EXPECT_EQ(count_collisions(shared_prefix_keys()), 0u);
}

TEST(KeyHash, StringAndStringViewHashEqual) {
  for (const std::string& k :
       {std::string{}, std::string("a"), std::string("abc"),
        std::string("abcd"), std::string("abcdefgh"), std::string("abcdefghi"),
        std::string(40, 'x') + "yz", std::string("a\0b", 3)}) {
    EXPECT_EQ(KeyHash<std::string>{}(k), KeyHash<std::string_view>{}(k)) << k;
  }
}

TEST(KeyHash, IntegerKeysHashAsStdHash) {
  for (std::uint64_t k : {0ull, 1ull, 42ull, ~0ull}) {
    EXPECT_EQ(KeyHash<std::uint64_t>{}(k), std::hash<std::uint64_t>{}(k));
  }
}

// Mean linear-probe length (successful search) at 0.7 load, hashing the
// way the containers do: mix_hash(KeyHash) & mask.
double mean_probe_length(const std::vector<std::string>& keys) {
  const std::size_t slots = std::bit_floor(keys.size() * 10 / 7);
  const std::size_t n = slots * 7 / 10;
  std::vector<bool> used(slots);
  std::size_t probes = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t i =
        detail::mix_hash(KeyHash<std::string>{}(keys[k])) & (slots - 1);
    for (probes += 1; used[i]; probes += 1) i = (i + 1) & (slots - 1);
    used[i] = true;
  }
  return static_cast<double>(probes) / static_cast<double>(n);
}

TEST(KeyHash, LinearProbesStayNearUniformAtSevenTenthsLoad) {
  // Knuth: a successful search under uniform hashing costs
  // (1 + 1 / (1 - a)) / 2 probes at load a.
  const double uniform = 0.5 * (1.0 + 1.0 / (1.0 - 0.7));
  const struct {
    const char* family;
    std::vector<std::string> keys;
  } families[] = {{"text words", text_word_keys()},
                  {"numeric", numeric_keys()},
                  {"shared prefix", shared_prefix_keys()}};
  for (const auto& f : families) {
    SCOPED_TRACE(f.family);
    EXPECT_LE(mean_probe_length(f.keys), 2.0 * uniform);
  }
}

// A hash match never stands in for key equality: with every key on one
// hash value, each container still keeps the keys apart.
struct OneValueHash {
  std::size_t operator()(const std::string&) const { return 7; }
};

TEST(KeyHash, EqualityDecidesEveryMatch) {
  FixedHashContainer<std::string, std::uint64_t, CountCombiner, OneValueHash>
      fixed(8);
  HashContainer<std::string, std::uint64_t, CountCombiner, OneValueHash>
      grown(2);
  MetisContainer<std::string, std::uint64_t, CountCombiner, OneValueHash>
      metis(8);
  for (const char* k : {"a", "b", "a", "c", "b", "a"}) {
    fixed.emit(k, 1);
    grown.emit(k, 1);
    metis.emit(k, 1);
  }
  for (const auto* c : {&fixed.at("a"), &grown.at("a"), &metis.at("a")}) {
    EXPECT_EQ(*c, 3u);
  }
  EXPECT_EQ(fixed.size(), 3u);
  EXPECT_EQ(grown.size(), 3u);
  EXPECT_EQ(metis.size(), 3u);
  EXPECT_EQ(grown.at("c"), 1u);
}

// ---------- sort_by_key ---------------------------------------------------------

// sort_by_key over `keys` in the given order must equal std::sort by key.
// Each value is its key's input position, so a move that separates a value
// from its key shows. `keys` must be distinct (std::sort orders equal keys
// arbitrarily).
template <typename K>
void expect_sorts_like_std_sort(const std::vector<std::string>& keys) {
  std::vector<std::pair<K, std::uint64_t>> pairs;
  for (std::size_t i = 0; i < keys.size(); ++i) pairs.emplace_back(keys[i], i);
  auto expected = pairs;
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  sort_by_key(pairs);
  ASSERT_EQ(pairs.size(), expected.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(pairs[i], expected[i]) << "position " << i;
    ASSERT_EQ(keys[pairs[i].second], pairs[i].first);
  }
}

void expect_both_key_types_sort(const std::vector<std::string>& keys) {
  expect_sorts_like_std_sort<std::string_view>(keys);
  expect_sorts_like_std_sort<std::string>(keys);
}

std::vector<std::string> shuffled(std::vector<std::string> keys,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

// Distinct keys of length 0-24 over `alphabet`, in random order.
std::vector<std::string> random_keys(const std::string& alphabet,
                                     std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < count; ++i) {
    std::string k(rng.below(25), '\0');
    for (char& c : k) c = alphabet[rng.below(alphabet.size())];
    keys.push_back(std::move(k));
  }
  return shuffled(distinct(std::move(keys)), seed);
}

std::string every_byte() {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  return all;
}

TEST(SortByKey, RandomKeysOfEveryByteMatchStdSort) {
  expect_both_key_types_sort(random_keys(every_byte(), 20000, 1));
}

TEST(SortByKey, NulAndHighBytesOrderUnsigned) {
  // A small alphabet makes long runs of tied prefixes and prefix pairs.
  const std::string alphabet("\x00\x01" "a\x7f\x80\xc3\xff", 7);
  expect_both_key_types_sort(random_keys(alphabet, 20000, 2));
}

TEST(SortByKey, ThousandKeysSharingAnEightBytePrefix) {
  Xoshiro256 rng(3);
  std::vector<std::string> keys;
  for (const std::string& prefix : {std::string("commonpf"),
                                   std::string("\xff\x80\0\0\xfe\0\0\0", 8)}) {
    for (std::size_t i = 0; i < 1000; ++i) {
      std::string k = prefix;
      k.resize(8 + rng.below(17));
      for (std::size_t j = 8; j < k.size(); ++j) {
        k[j] = static_cast<char>(rng.below(256));
      }
      keys.push_back(std::move(k));
    }
  }
  expect_both_key_types_sort(shuffled(distinct(std::move(keys)), 3));
}

TEST(SortByKey, KeysThatArePrefixesOfOneAnother) {
  const std::vector<std::string> keys = {
      "ab",        std::string("ab\0", 3),        "abcdefgh",
      "abcdefghi", std::string("abcdefgh\0", 9),  "",
      "a",         std::string(1, '\0'),          std::string(8, '\0'),
      "abcdefgg",  std::string("abcdefgh\xff", 9), "b"};
  expect_both_key_types_sort(keys);
  auto sorted = distinct(keys);
  expect_both_key_types_sort(sorted);
  std::reverse(sorted.begin(), sorted.end());
  expect_both_key_types_sort(sorted);
}

TEST(SortByKey, ZeroOneAndTwoPairs) {
  expect_both_key_types_sort({});
  expect_both_key_types_sort({"x"});
  expect_both_key_types_sort({"b", "a"});
  expect_both_key_types_sort({"a", "b"});
  expect_both_key_types_sort({"abcdefghb", "abcdefgha"});
}

TEST(SortByKey, SortedAndReverseSortedInput) {
  auto keys = distinct(random_keys(every_byte(), 5000, 4));
  expect_both_key_types_sort(keys);
  std::reverse(keys.begin(), keys.end());
  expect_both_key_types_sort(keys);
}

TEST(SortByKey, EmptyViewWithNullDataReadsNothing) {
  std::vector<std::pair<std::string_view, int>> pairs = {
      {"b", 0}, {std::string_view{}, 1}, {"a", 2}};
  ASSERT_EQ(pairs[1].first.data(), nullptr);
  sort_by_key(pairs);
  const std::vector<std::pair<std::string_view, int>> expected = {
      {"", 1}, {"a", 2}, {"b", 0}};
  EXPECT_EQ(pairs, expected);
}

TEST(SortByKey, IntegerKeysMatchStdSort) {
  // Random order; ascending (how array containers flatten); descending; and
  // ascending with the largest key moved to the front (sorted but for one
  // pair).
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> random_order(10000);
  for (std::uint64_t& k : random_order) k = rng();
  std::vector<std::uint64_t> ascending(10000);
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = 3 * i;
  std::vector<std::uint64_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<std::uint64_t> largest_first = ascending;
  std::rotate(largest_first.begin(), largest_first.end() - 1,
              largest_first.end());
  for (const auto* keys :
       {&random_order, &ascending, &descending, &largest_first}) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (std::uint64_t i = 0; i < keys->size(); ++i) {
      pairs.emplace_back((*keys)[i], i);
    }
    auto expected = pairs;
    std::sort(expected.begin(), expected.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    sort_by_key(pairs);
    EXPECT_EQ(pairs, expected);
  }
}

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
