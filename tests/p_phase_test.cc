#include "pnrule/p_phase.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeNumericDataset;

// Two target peaks (around 3 and 7) over a uniform negative background;
// each peak also contains a few negatives (impure signatures, as in the
// paper's models).
Dataset TwoPeakDataset(int per_peak_pos, int per_peak_neg, int background) {
  Rng rng(101);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (double center : {3.0, 7.0}) {
    for (int i = 0; i < per_peak_pos; ++i) {
      rows.push_back({{center + rng.NextDouble(-0.05, 0.05)}, true});
    }
    for (int i = 0; i < per_peak_neg; ++i) {
      rows.push_back({{center + rng.NextDouble(-0.05, 0.05)}, false});
    }
  }
  for (int i = 0; i < background; ++i) {
    rows.push_back({{rng.NextDouble(0.0, 10.0)}, false});
  }
  return MakeNumericDataset(1, rows);
}

PnruleConfig DefaultConfig() {
  PnruleConfig config;
  config.min_coverage_fraction = 0.99;
  config.min_support_fraction = 0.05;
  return config;
}

TEST(PPhaseTest, LearnsOneRulePerPeak) {
  const Dataset dataset = TwoPeakDataset(40, 10, 900);
  const PPhaseResult result =
      RunPPhase(dataset, dataset.AllRows(), kPos, DefaultConfig());
  ASSERT_GE(result.rules.size(), 2u);
  EXPECT_GE(result.coverage_fraction(), 0.99);
  // Every rule must carry positives and beat the ~8% prior comfortably.
  for (const Rule& rule : result.rules.rules()) {
    EXPECT_GT(rule.train_stats.positive, 0.0);
    EXPECT_GT(rule.train_stats.accuracy(), 0.3);
  }
}

TEST(PPhaseTest, CoveredRowsMatchRuleUnion) {
  const Dataset dataset = TwoPeakDataset(30, 8, 500);
  const PPhaseResult result =
      RunPPhase(dataset, dataset.AllRows(), kPos, DefaultConfig());
  // covered_rows must be exactly the union coverage of the rules.
  RowSubset expected;
  for (RowId row : dataset.AllRows()) {
    if (result.rules.FirstMatch(dataset, row) != kNoRule) {
      expected.push_back(row);
    }
  }
  RowSubset actual = result.covered_rows;
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
  EXPECT_DOUBLE_EQ(result.covered_positive_weight,
                   dataset.ClassWeight(expected, kPos));
}

TEST(PPhaseTest, HighSupportRulesPreferredOverPureSlivers) {
  // The P-phase favours support: with min_support at 20% of the class, a
  // rule must span a whole peak (half the class), impurity included.
  const Dataset dataset = TwoPeakDataset(40, 15, 600);
  PnruleConfig config = DefaultConfig();
  config.min_support_fraction = 0.2;
  const PPhaseResult result =
      RunPPhase(dataset, dataset.AllRows(), kPos, config);
  const double min_support = 0.2 * result.total_positive_weight;
  for (const Rule& rule : result.rules.rules()) {
    EXPECT_GE(rule.train_stats.covered, min_support);
  }
  EXPECT_GT(result.coverage_fraction(), 0.9);
}

TEST(PPhaseTest, MaxRuleLengthIsRespected) {
  const Dataset dataset = TwoPeakDataset(40, 10, 900);
  PnruleConfig config = DefaultConfig();
  config.max_p_rule_length = 1;
  const PPhaseResult result =
      RunPPhase(dataset, dataset.AllRows(), kPos, config);
  for (const Rule& rule : result.rules.rules()) {
    EXPECT_LE(rule.size(), 1u);
  }
}

TEST(PPhaseTest, NoTargetExamplesYieldsEmptyResult) {
  const Dataset dataset = MakeNumericDataset(
      1, {{{1.0}, false}, {{2.0}, false}, {{3.0}, false}});
  const PPhaseResult result =
      RunPPhase(dataset, dataset.AllRows(), kPos, DefaultConfig());
  EXPECT_TRUE(result.rules.empty());
  EXPECT_DOUBLE_EQ(result.total_positive_weight, 0.0);
}

TEST(PPhaseTest, MaxRuleCapIsRespected) {
  const Dataset dataset = TwoPeakDataset(40, 10, 900);
  PnruleConfig config = DefaultConfig();
  config.max_p_rules = 1;
  const PPhaseResult result =
      RunPPhase(dataset, dataset.AllRows(), kPos, config);
  EXPECT_EQ(result.rules.size(), 1u);
}

TEST(GrowPresenceRuleTest, StopsWhenMetricStopsImproving) {
  const Dataset dataset = TwoPeakDataset(40, 10, 900);
  const auto metric = MakeRuleMetric(RuleMetricKind::kZNumber);
  const RowSubset all = dataset.AllRows();
  ClassDistribution dist;
  dist.positives = dataset.ClassWeight(all, kPos);
  dist.negatives = dataset.TotalWeight(all) - dist.positives;
  const Rule rule = GrowPresenceRule(dataset, all, kPos, *metric, dist,
                                     /*min_support_weight=*/4.0,
                                     /*max_length=*/0,
                                     /*enable_range_conditions=*/true);
  ASSERT_FALSE(rule.empty());
  // The first condition should be a range isolating one peak.
  EXPECT_EQ(rule.conditions()[0].op, ConditionOp::kInRange);
  EXPECT_GT(rule.train_stats.accuracy(), 0.5);
}


TEST(RefinementGainTest, RelativeMarginSemantics) {
  // Any improvement counts from a non-positive base.
  EXPECT_TRUE(ClearsRefinementGain(0.1, 0.0, 0.5));
  EXPECT_TRUE(ClearsRefinementGain(-0.1, -0.2, 0.5));
  EXPECT_FALSE(ClearsRefinementGain(0.0, 0.0, 0.5));
  // From a positive base the relative margin applies.
  EXPECT_TRUE(ClearsRefinementGain(10.6, 10.0, 0.05));
  EXPECT_FALSE(ClearsRefinementGain(10.4, 10.0, 0.05));
  // Zero margin degenerates to strict improvement.
  EXPECT_TRUE(ClearsRefinementGain(10.0001, 10.0, 0.0));
  EXPECT_FALSE(ClearsRefinementGain(10.0, 10.0, 0.0));
}

TEST(PPhaseTest, RefinementGainSuppressesJunkConditions) {
  // With the margin at zero, rules accrete marginal noise conditions; with
  // the default margin they stay at the signature length.
  const Dataset dataset = TwoPeakDataset(40, 10, 900);
  PnruleConfig strict = DefaultConfig();
  strict.min_refinement_gain = 0.10;
  PnruleConfig loose = DefaultConfig();
  loose.min_refinement_gain = 0.0;
  const PPhaseResult with_margin =
      RunPPhase(dataset, dataset.AllRows(), kPos, strict);
  const PPhaseResult without_margin =
      RunPPhase(dataset, dataset.AllRows(), kPos, loose);
  size_t margin_conditions = 0;
  for (const Rule& rule : with_margin.rules.rules()) {
    margin_conditions += rule.size();
  }
  size_t loose_conditions = 0;
  for (const Rule& rule : without_margin.rules.rules()) {
    loose_conditions += rule.size();
  }
  EXPECT_LE(margin_conditions, loose_conditions);
}

}  // namespace
}  // namespace pnr
