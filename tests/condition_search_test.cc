#include "induction/condition_search.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "induction/metric.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeMixedDataset;
using testutil::MakeNumericDataset;

// Scorer: plain accuracy * coverage (monotone, easy to reason about).
double PosMinusNeg(const RuleStats& stats) {
  return stats.positive - stats.negative();
}

TEST(ConditionSearchTest, FindsDiscriminativeCategoricalValue) {
  // Category b is perfectly positive; others negative.
  const Dataset dataset = MakeMixedDataset({
      {0.0, 0, false}, {0.0, 0, false}, {0.0, 1, true},
      {0.0, 1, true},  {0.0, 2, false},
  });
  const auto best = FindBestCondition(dataset, dataset.AllRows(), kPos,
                                      PosMinusNeg);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->condition, Condition::CatEqual(1, 1));
  EXPECT_DOUBLE_EQ(best->stats.positive, 2.0);
  EXPECT_DOUBLE_EQ(best->stats.covered, 2.0);
}

TEST(ConditionSearchTest, FindsOneSidedNumericThreshold) {
  // Positives all above 5.
  const Dataset dataset = MakeNumericDataset(
      1, {{{1.0}, false}, {{2.0}, false}, {{3.0}, false},
          {{6.0}, true},  {{7.0}, true},  {{8.0}, true}});
  ConditionSearchOptions options;
  options.enable_range_conditions = false;
  const auto best = FindBestCondition(dataset, dataset.AllRows(), kPos,
                                      PosMinusNeg, options);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->condition.op, ConditionOp::kGreater);
  EXPECT_GT(best->condition.lo, 3.0);
  EXPECT_LT(best->condition.lo, 6.0);
  EXPECT_DOUBLE_EQ(best->stats.positive, 3.0);
  EXPECT_DOUBLE_EQ(best->stats.negative(), 0.0);
}

TEST(ConditionSearchTest, FindsInteriorRangeCondition) {
  // Positives form an interior peak; one-sided cuts cannot isolate it, the
  // paper's extra-scan range finder can. The finder anchors on the best
  // one-sided condition, which is meaningful under the Z-number (the
  // paper's metric), so score with it.
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({{static_cast<double>(i)}, i >= 8 && i <= 11});
  }
  const Dataset dataset = MakeNumericDataset(1, rows);
  const auto metric = MakeRuleMetric(RuleMetricKind::kZNumber);
  ClassDistribution dist;
  dist.positives = 4.0;
  dist.negatives = 16.0;
  const ConditionScorer scorer = [&](const RuleStats& stats) {
    return metric->Evaluate(stats, dist);
  };
  const auto best =
      FindBestCondition(dataset, dataset.AllRows(), kPos, scorer);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->condition.op, ConditionOp::kInRange);
  EXPECT_GT(best->condition.lo, 7.0);
  EXPECT_LT(best->condition.lo, 8.0);
  EXPECT_GT(best->condition.hi, 11.0);
  EXPECT_LT(best->condition.hi, 12.0);
  EXPECT_DOUBLE_EQ(best->stats.positive, 4.0);
  EXPECT_DOUBLE_EQ(best->stats.negative(), 0.0);
}

TEST(ConditionSearchTest, RangeDisabledFallsBackToOneSided) {
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({{static_cast<double>(i)}, i >= 8 && i <= 11});
  }
  const Dataset dataset = MakeNumericDataset(1, rows);
  ConditionSearchOptions options;
  options.enable_range_conditions = false;
  const auto best = FindBestCondition(dataset, dataset.AllRows(), kPos,
                                      PosMinusNeg, options);
  ASSERT_TRUE(best.has_value());
  EXPECT_NE(best->condition.op, ConditionOp::kInRange);
}

TEST(ConditionSearchTest, MinSupportRejectsSmallCandidates) {
  const Dataset dataset = MakeMixedDataset({
      {0.0, 1, true},  {0.0, 0, false}, {0.0, 0, false},
      {0.0, 0, false}, {0.0, 0, false},
  });
  ConditionSearchOptions options;
  options.min_covered_weight = 2.0;  // the pure b-category covers only 1
  const auto best = FindBestCondition(dataset, dataset.AllRows(), kPos,
                                      PosMinusNeg, options);
  ASSERT_TRUE(best.has_value());
  // Only the 4-record a-category is admissible.
  EXPECT_EQ(best->condition, Condition::CatEqual(1, 0));
}

TEST(ConditionSearchTest, NonRefiningCandidatesAreSkipped) {
  // All rows share category a: "c = a" covers everything -> no refinement;
  // x is constant -> no numeric boundary. Nothing admissible.
  const Dataset dataset = MakeMixedDataset({
      {1.0, 0, true}, {1.0, 0, false}, {1.0, 0, true},
  });
  const auto best =
      FindBestCondition(dataset, dataset.AllRows(), kPos, PosMinusNeg);
  EXPECT_FALSE(best.has_value());
}

TEST(ConditionSearchTest, EmptyRowsYieldNothing) {
  const Dataset dataset = MakeMixedDataset({{1.0, 0, true}});
  const auto best = FindBestCondition(dataset, {}, kPos, PosMinusNeg);
  EXPECT_FALSE(best.has_value());
}

TEST(ConditionSearchTest, ScorerRejectionViaInfinity) {
  const Dataset dataset = MakeMixedDataset({
      {1.0, 0, true}, {2.0, 1, false}, {3.0, 1, false},
  });
  const auto best = FindBestCondition(
      dataset, dataset.AllRows(), kPos,
      [](const RuleStats&) { return -std::numeric_limits<double>::infinity(); });
  EXPECT_FALSE(best.has_value());
}

TEST(ConditionSearchTest, RespectsRecordWeights) {
  // Category b holds one positive with weight 10; category a holds two
  // unit-weight positives. With weights, b wins on positive weight.
  Dataset dataset = MakeMixedDataset({
      {0.0, 1, true}, {0.0, 0, true}, {0.0, 0, true}, {0.0, 2, false},
  });
  dataset.set_weight(0, 10.0);
  const auto best =
      FindBestCondition(dataset, dataset.AllRows(), kPos, PosMinusNeg);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->condition, Condition::CatEqual(1, 1));
  EXPECT_DOUBLE_EQ(best->stats.positive, 10.0);
}

// Property: the search's best Z-number candidate is never beaten by any
// brute-force single condition on small random datasets.
class SearchVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchVsBruteForce, OneSidedSearchIsExhaustive) {
  Rng rng(GetParam());
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back({{rng.NextDouble(0, 10), rng.NextDouble(0, 10)},
                    rng.NextBool(0.3)});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  const auto metric = MakeRuleMetric(RuleMetricKind::kZNumber);
  ClassDistribution dist;
  dist.positives = dataset.ClassWeight(dataset.AllRows(), kPos);
  dist.negatives = dataset.TotalWeight(dataset.AllRows()) - dist.positives;
  if (dist.positives == 0.0 || dist.negatives == 0.0) GTEST_SKIP();

  ConditionScorer scorer = [&](const RuleStats& stats) {
    return metric->Evaluate(stats, dist);
  };
  ConditionSearchOptions options;
  options.enable_range_conditions = false;
  const auto best = FindBestCondition(dataset, dataset.AllRows(), kPos,
                                      scorer, options);
  ASSERT_TRUE(best.has_value());

  // Brute force: every one-sided cut at every midpoint of both attributes.
  double brute_best = -1e300;
  for (AttrIndex attr = 0; attr < 2; ++attr) {
    std::vector<double> values = dataset.numeric_column(attr);
    std::sort(values.begin(), values.end());
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      if (values[i + 1] <= values[i]) continue;
      const double cut = 0.5 * (values[i] + values[i + 1]);
      for (const Condition& cond :
           {Condition::LessEqual(attr, cut), Condition::Greater(attr, cut)}) {
        const RuleStats stats = testutil::EvaluateRule(
            Rule({cond}), dataset, dataset.AllRows(), kPos);
        if (stats.covered <= 0.0 ||
            stats.covered >= dist.total() - 1e-12) {
          continue;
        }
        brute_best = std::max(brute_best, scorer(stats));
      }
    }
  }
  EXPECT_NEAR(best->value, brute_best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchVsBruteForce,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- MidpointBetween / CutValue edge cases ---------------------------------
// The cut emitted between adjacent sorted values must partition the data
// exactly like the internal slice it was derived from, even when the two
// values are adjacent doubles (no representable midpoint) or denormals.

TEST(MidpointBetweenTest, OrdinaryValuesGetTheArithmeticMidpoint) {
  EXPECT_DOUBLE_EQ(MidpointBetween(1.0, 2.0, false), 1.5);
  EXPECT_DOUBLE_EQ(MidpointBetween(1.0, 2.0, true), 1.5);
  EXPECT_DOUBLE_EQ(MidpointBetween(-4.0, 4.0, false), 0.0);
}

TEST(MidpointBetweenTest, AdjacentDoublesFallBackDirectionally) {
  const double a = 1.0;
  const double b = std::nextafter(a, 2.0);  // no double strictly between
  // Round-down: c = a, so {x <= c} covers a and {x > c} covers b.
  EXPECT_EQ(MidpointBetween(a, b, false), a);
  // Round-up: c = b, so the inclusive lower range test {c <= x} covers b.
  EXPECT_EQ(MidpointBetween(a, b, true), b);
}

TEST(MidpointBetweenTest, DenormalGapsDoNotEscapeTheInterval) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  // 0.5 * (0 + denorm_min) underflows to 0 == lo: must fall back, not
  // return a value outside [lo, hi].
  const double down = MidpointBetween(0.0, tiny, false);
  const double up = MidpointBetween(0.0, tiny, true);
  EXPECT_GE(down, 0.0);
  EXPECT_LE(down, tiny);
  EXPECT_GE(up, 0.0);
  EXPECT_LE(up, tiny);
  EXPECT_EQ(down, 0.0);
  EXPECT_EQ(up, tiny);
}

TEST(MidpointBetweenTest, HugeValuesDoNotOverflowToInfinity) {
  const double lo = 1.6e308;
  const double hi = 1.75e308;  // lo + hi overflows to +inf
  const double mid = MidpointBetween(lo, hi, false);
  EXPECT_TRUE(std::isfinite(mid));
  EXPECT_GT(mid, lo);
  EXPECT_LT(mid, hi);
}

TEST(ConditionSearchTest, AdjacentDoubleValuesStillPartitionExactly) {
  // Two populations separated only by one ULP: the emitted cut must still
  // realize the internal slice, i.e. cover exactly the 3 positives.
  const double lo = 1.0;
  const double hi = std::nextafter(lo, 2.0);
  const Dataset dataset = MakeNumericDataset(
      1, {{{lo}, false}, {{lo}, false}, {{lo}, false},
          {{hi}, true},  {{hi}, true},  {{hi}, true}});
  ConditionSearchOptions options;
  options.enable_range_conditions = false;
  const auto best = FindBestCondition(dataset, dataset.AllRows(), kPos,
                                      PosMinusNeg, options);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->stats.positive, 3.0);
  EXPECT_DOUBLE_EQ(best->stats.negative(), 0.0);
  // And the condition really matches what the stats claim.
  const RuleStats direct = testutil::EvaluateRule(
      Rule({best->condition}), dataset, dataset.AllRows(), kPos);
  EXPECT_DOUBLE_EQ(direct.covered, best->stats.covered);
  EXPECT_DOUBLE_EQ(direct.positive, best->stats.positive);
}

TEST(ConditionSearchTest, AdjacentDoubleRangeConditionPartitionsExactly) {
  // Interior positive peak whose left edge is one ULP from its neighbour:
  // the range's inclusive lower cut must round *up* to stay exact.
  const double left_neg = 1.0;
  const double peak = std::nextafter(left_neg, 2.0);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 6; ++i) rows.push_back({{left_neg}, false});
  for (int i = 0; i < 4; ++i) rows.push_back({{peak}, true});
  for (int i = 0; i < 6; ++i) rows.push_back({{3.0}, false});
  const Dataset dataset = MakeNumericDataset(1, rows);
  const auto metric = MakeRuleMetric(RuleMetricKind::kZNumber);
  ClassDistribution dist;
  dist.positives = 4.0;
  dist.negatives = 12.0;
  const ConditionScorer scorer = [&](const RuleStats& stats) {
    return metric->Evaluate(stats, dist);
  };
  const auto best =
      FindBestCondition(dataset, dataset.AllRows(), kPos, scorer);
  ASSERT_TRUE(best.has_value());
  const RuleStats direct = testutil::EvaluateRule(
      Rule({best->condition}), dataset, dataset.AllRows(), kPos);
  EXPECT_DOUBLE_EQ(direct.covered, best->stats.covered);
  EXPECT_DOUBLE_EQ(direct.positive, best->stats.positive);
  EXPECT_DOUBLE_EQ(best->stats.positive, 4.0);
  EXPECT_DOUBLE_EQ(best->stats.negative(), 0.0);
}

// --- NaN cells ---------------------------------------------------------------

// 400 rows, x NaN on every fifth row, labelled x > 0.7. NaN matches no
// numeric condition, so it must not enter any slice the search scores:
// left in the (value, row id) sort it broke the comparator's strict weak
// order and the chosen cut's statistics overstated its real coverage.
Dataset NanDataset() {
  Rng rng(77);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 400; ++i) {
    const double x = i % 5 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                : rng.NextDouble(0, 1);
    rows.push_back({{x}, x > 0.7});
  }
  return MakeNumericDataset(1, rows);
}

TEST(ConditionSearchTest, NanCellsStayOutOfSearchStatistics) {
  const Dataset dataset = NanDataset();
  // Full rows (the cached full-row column), a small subset (built by
  // sorting ranks) and a large one (built by filtering the sorted order);
  // the subsets keep some NaN rows.
  RowSubset small, large;
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    if (r % 20 == 0 || r % 20 == 7) small.push_back(r);
    if (r % 10 != 3) large.push_back(r);
  }
  for (const RowSubset& rows : {dataset.AllRows(), small, large}) {
    ConditionSearchEngine engine(dataset);
    const auto best = engine.FindBest(rows, kPos, PosMinusNeg);
    ASSERT_TRUE(best.has_value()) << rows.size() << " rows";
    const RuleStats matched =
        testutil::EvaluateRule(Rule({best->condition}), dataset, rows, kPos);
    EXPECT_EQ(best->stats.covered, matched.covered)
        << best->condition.ToString(dataset.schema()) << " over "
        << rows.size() << " rows";
    EXPECT_EQ(best->stats.positive, matched.positive)
        << best->condition.ToString(dataset.schema()) << " over "
        << rows.size() << " rows";
    EXPECT_EQ(best->stats.covered, best->stats.positive) << "x > 0.7 is pure";
  }
}

// --- Coverage from the cache ------------------------------------------------

// x cycles through NaN, both zeros, ties and ordinary values; c through
// three categories.
Dataset CoverageDataset() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = {nan, -0.0, 0.0, 1.5, -2.0, 1.5, 3.25, nan,
                                  0.0, -0.0, 7.0, -2.0};
  std::vector<testutil::MixedRow> rows;
  for (size_t i = 0; i < 300; ++i) {
    rows.push_back({xs[(i * 5) % xs.size()], static_cast<CategoryId>(i % 3),
                    i % 4 == 0});
  }
  return MakeMixedDataset(rows);
}

std::vector<Condition> EveryKindOfCondition() {
  std::vector<Condition> conditions;
  for (CategoryId c = 0; c < 3; ++c) {
    conditions.push_back(Condition::CatEqual(1, c));
  }
  for (double v : {-3.0, -2.0, -0.0, 0.0, 1.0, 1.5, 7.0}) {
    conditions.push_back(Condition::LessEqual(0, v));
    conditions.push_back(Condition::Greater(0, v));
  }
  conditions.push_back(Condition::InRange(0, -0.0, 0.0));
  conditions.push_back(Condition::InRange(0, 0.0, 1.5));
  conditions.push_back(Condition::InRange(0, -2.0, 3.25));
  return conditions;
}

RowSubset MatchesFilter(const Dataset& dataset, const Condition& condition,
                        const RowSubset& rows) {
  RowSubset out;
  for (RowId row : rows) {
    if (condition.Matches(dataset, row)) out.push_back(row);
  }
  return out;
}

// Every row, a strided subset and a gathered one out of row order.
std::vector<RowSubset> CoverageSubsets(const Dataset& dataset) {
  RowSubset strided, gathered;
  for (RowId r = 0; r < dataset.num_rows(); r += 3) strided.push_back(r);
  Rng rng(99);
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    if (rng.NextBool(0.4)) gathered.push_back(r);
  }
  rng.Shuffle(&gathered);
  return {dataset.AllRows(), strided, gathered};
}

TEST(ConditionSearchTest, CoveredRowsEqualsMatchesFilter) {
  const Dataset dataset = CoverageDataset();
  ConditionSearchEngine engine(dataset);
  for (const RowSubset& rows : CoverageSubsets(dataset)) {
    for (const Condition& condition : EveryKindOfCondition()) {
      EXPECT_EQ(engine.CoveredRows(condition, rows),
                MatchesFilter(dataset, condition, rows))
          << condition.ToString(dataset.schema()) << " over " << rows.size()
          << " rows";
    }
  }
}

TEST(ConditionSearchTest, CoveredRowsOnAWarmPagedEngineFaultsNothing) {
  const Dataset in_ram = CoverageDataset();
  // Below one column, so every column switch would be a fault.
  const Dataset paged = testutil::PagedCopy(
      in_ram, in_ram.num_rows() * sizeof(CategoryId) / 2);
  ConditionSearchEngine engine(paged);
  for (const Condition& condition : EveryKindOfCondition()) {
    engine.CoveredRows(condition, paged.AllRows());
  }
  const uint64_t warm = paged.column_fault_count();
  EXPECT_LE(warm, paged.schema().num_attributes());
  for (const RowSubset& rows : CoverageSubsets(in_ram)) {
    for (const Condition& condition : EveryKindOfCondition()) {
      EXPECT_EQ(engine.CoveredRows(condition, rows),
                MatchesFilter(in_ram, condition, rows))
          << condition.ToString(in_ram.schema());
    }
  }
  EXPECT_EQ(paged.column_fault_count(), warm);
}

// --- CandidateBetter total order -------------------------------------------

TEST(CandidateBetterTest, OrdersByScoreThenAttrThenKindThenCuts) {
  const auto make = [](double value, Condition condition) {
    CandidateCondition c;
    c.value = value;
    c.condition = condition;
    return c;
  };
  const auto le0 = make(1.0, Condition::LessEqual(0, 5.0));
  const auto gt0 = make(1.0, Condition::Greater(0, 5.0));
  const auto le1 = make(1.0, Condition::LessEqual(1, 5.0));
  const auto hi = make(2.0, Condition::Greater(3, 9.0));

  EXPECT_TRUE(CandidateBetter(hi, le0));    // higher score wins
  EXPECT_FALSE(CandidateBetter(le0, hi));
  EXPECT_TRUE(CandidateBetter(le0, le1));   // lower attr wins on ties
  EXPECT_TRUE(CandidateBetter(le0, gt0));   // <= ranks before >
  EXPECT_FALSE(CandidateBetter(le0, le0));  // strict: irreflexive
  const auto le0_lower_cut = make(1.0, Condition::LessEqual(0, 4.0));
  EXPECT_TRUE(CandidateBetter(le0_lower_cut, le0));  // lower cut wins
}

}  // namespace
}  // namespace pnr
