#include "common/bitmask.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace pnr {
namespace {

TEST(BitMaskTest, SetGetCount) {
  BitMask mask(130);
  EXPECT_EQ(mask.Count(), 0u);
  mask.Set(0);
  mask.Set(64);
  mask.Set(129);
  EXPECT_TRUE(mask.Get(0));
  EXPECT_TRUE(mask.Get(64));
  EXPECT_TRUE(mask.Get(129));
  EXPECT_FALSE(mask.Get(1));
  EXPECT_EQ(mask.Count(), 3u);
  mask.Set(64, false);
  EXPECT_FALSE(mask.Get(64));
  EXPECT_EQ(mask.Count(), 2u);
}

TEST(BitMaskTest, AllTrueConstructionTrimsTail) {
  BitMask mask(70, true);
  EXPECT_EQ(mask.Count(), 70u);
  for (size_t i = 0; i < 70; ++i) EXPECT_TRUE(mask.Get(i));
}

TEST(BitMaskTest, BooleanAlgebra) {
  BitMask a(100);
  BitMask b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  b.Set(2);
  const BitMask both = a & b;
  EXPECT_EQ(both.Count(), 1u);
  EXPECT_TRUE(both.Get(50));
  const BitMask either = a | b;
  EXPECT_EQ(either.Count(), 4u);
  EXPECT_EQ(a.CountAnd(b), 1u);
  EXPECT_EQ(a.CountAndNot(b), 2u);
  EXPECT_EQ(b.CountAndNot(a), 1u);
}

TEST(BitMaskTest, ForEachSetVisitsAscending) {
  BitMask mask(200);
  const std::vector<size_t> indices = {3, 64, 65, 127, 128, 199};
  for (size_t i : indices) mask.Set(i);
  std::vector<size_t> visited;
  mask.ForEachSet([&](size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, indices);
}

TEST(BitMaskTest, EqualityComparesContentAndSize) {
  BitMask a(10);
  BitMask b(10);
  EXPECT_TRUE(a == b);
  a.Set(5);
  EXPECT_FALSE(a == b);
  b.Set(5);
  EXPECT_TRUE(a == b);
  BitMask c(11);
  c.Set(5);
  EXPECT_FALSE(a == c);
}

TEST(BitMaskTest, RandomizedAgainstReferenceImplementation) {
  Rng rng(55);
  const size_t n = 1000;
  BitMask a(n);
  BitMask b(n);
  std::vector<bool> ra(n, false);
  std::vector<bool> rb(n, false);
  for (int i = 0; i < 600; ++i) {
    const size_t index = static_cast<size_t>(rng.NextBelow(n));
    if (rng.NextBool(0.5)) {
      a.Set(index);
      ra[index] = true;
    } else {
      b.Set(index);
      rb[index] = true;
    }
  }
  size_t expected_and = 0;
  size_t expected_and_not = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ra[i] && rb[i]) ++expected_and;
    if (ra[i] && !rb[i]) ++expected_and_not;
  }
  EXPECT_EQ(a.CountAnd(b), expected_and);
  EXPECT_EQ(a.CountAndNot(b), expected_and_not);
  const BitMask anded = a & b;
  EXPECT_EQ(anded.Count(), expected_and);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(anded.Get(i), ra[i] && rb[i]);
  }
}

// Every popcount tier this CPU runs (portable, popcnt) against a
// bit-by-bit reference, on sizes whose last mask word is partial, empty
// and full, with random, all-set and all-clear contents.
TEST(BitMaskTest, EveryPopcountTierMatchesBitByBitReference) {
  const std::vector<PopcountKernels>& tiers = SupportedPopcountKernels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.front().name, "portable");
  EXPECT_EQ(ActivePopcountKernels().count, tiers.back().count);
  Rng rng(91);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, size_t{130}, size_t{1000}}) {
    for (const double density : {0.0, 0.03, 0.5, 1.0}) {
      BitMask a(n);
      BitMask b(n);
      for (size_t i = 0; i < n; ++i) {
        a.Set(i, rng.NextBool(density));
        b.Set(i, rng.NextBool(0.5));
      }
      size_t ones = 0;
      size_t and_ones = 0;
      size_t and_not_ones = 0;
      for (size_t i = 0; i < n; ++i) {
        ones += a.Get(i);
        and_ones += a.Get(i) && b.Get(i);
        and_not_ones += a.Get(i) && !b.Get(i);
      }
      std::vector<uint64_t> wa(a.num_blocks());
      std::vector<uint64_t> wb(b.num_blocks());
      for (size_t w = 0; w < wa.size(); ++w) {
        wa[w] = a.block(w);
        wb[w] = b.block(w);
      }
      for (const PopcountKernels& tier : tiers) {
        SCOPED_TRACE(std::string(tier.name) + " n=" + std::to_string(n));
        EXPECT_EQ(tier.count(wa.data(), wa.size()), ones);
        EXPECT_EQ(tier.count_and(wa.data(), wb.data(), wa.size()), and_ones);
        EXPECT_EQ(tier.count_and_not(wa.data(), wb.data(), wa.size()),
                  and_not_ones);
      }
      EXPECT_EQ(a.Count(), ones);
      EXPECT_EQ(a.CountAnd(b), and_ones);
      EXPECT_EQ(a.CountAndNot(b), and_not_ones);
    }
  }
}

}  // namespace
}  // namespace pnr
