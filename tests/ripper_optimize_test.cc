#include "ripper/optimize.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "induction/mdl.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeNumericDataset;
using testutil::RuleSetDescriptionLength;

// Positives: x0 > 7 (quarter of the space), plus mild label noise.
Dataset NoisyThreshold(size_t n, uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDouble(0, 10);
    const bool label = (x > 7.0) != rng.NextBool(noise);
    rows.push_back({{x, rng.NextDouble(0, 10)}, label});
  }
  return MakeNumericDataset(2, rows);
}

TEST(DeleteHarmfulRulesTest, RemovesCoverNothingRules) {
  const Dataset dataset = NoisyThreshold(500, 1);
  const RowSubset all = dataset.AllRows();
  const double possible = CountPossibleConditions(dataset);

  CoveredRuleSet rules(dataset, all, kPos, possible);
  Rule good({Condition::Greater(0, 7.0)});
  rules.Add(good, rules.MaskOf(good));
  // A rule that covers only negatives: pure DL harm.
  Rule harmful({Condition::LessEqual(0, 1.0)});
  rules.Add(harmful, rules.MaskOf(harmful));
  DeleteHarmfulRules(&rules);
  ASSERT_EQ(rules.rules().size(), 1u);
  EXPECT_TRUE(rules.rules().rule(0) == good);
}

TEST(DeleteHarmfulRulesTest, KeepsComplementaryRules) {
  // Positives live in two disjoint regions; both rules are needed.
  Rng rng(2);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 600; ++i) {
    const double x = rng.NextDouble(0, 10);
    rows.push_back({{x, 0.0}, x < 1.0 || x > 9.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  const RowSubset all = dataset.AllRows();
  const double possible = CountPossibleConditions(dataset);
  CoveredRuleSet rules(dataset, all, kPos, possible);
  for (Rule rule : {Rule({Condition::LessEqual(0, 1.0)}),
                    Rule({Condition::Greater(0, 9.0)})}) {
    rules.Add(rule, rules.MaskOf(rule));
  }
  DeleteHarmfulRules(&rules);
  EXPECT_EQ(rules.rules().size(), 2u);
}

TEST(CoverPositivesTest, CoversMostPositives) {
  const Dataset dataset = NoisyThreshold(2000, 3);
  const RowSubset all = dataset.AllRows();
  RipperConfig config;
  Rng rng(config.seed);
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  CoveredRuleSet rules(dataset, all, kPos, CountPossibleConditions(dataset));
  CoverPositives(engine, BitMask(all.size(), true), config, &rng, &rules);
  ASSERT_FALSE(rules.rules().empty());
  size_t covered_positives = 0;
  size_t positives = 0;
  for (RowId row : all) {
    if (dataset.label(row) != kPos) continue;
    ++positives;
    if (rules.rules().FirstMatch(dataset, row) != kNoRule) {
      ++covered_positives;
    }
  }
  EXPECT_GT(static_cast<double>(covered_positives) /
                static_cast<double>(positives),
            0.9);
}

TEST(CoverPositivesTest, RespectsMaxRules) {
  const Dataset dataset = NoisyThreshold(2000, 4, 0.1);
  const RowSubset all = dataset.AllRows();
  RipperConfig config;
  config.max_rules = 2;
  Rng rng(config.seed);
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  CoveredRuleSet rules(dataset, all, kPos, CountPossibleConditions(dataset));
  CoverPositives(engine, BitMask(all.size(), true), config, &rng, &rules);
  EXPECT_LE(rules.rules().size(), 2u);
}

TEST(OptimizeRuleSetTest, DoesNotHurtTrainingDescriptionLength) {
  const Dataset dataset = NoisyThreshold(2000, 5, 0.05);
  const RowSubset all = dataset.AllRows();
  RipperConfig config;
  const double possible = CountPossibleConditions(dataset);
  Rng rng(config.seed);
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  CoveredRuleSet rules(dataset, all, kPos, possible);
  CoverPositives(engine, BitMask(all.size(), true), config, &rng, &rules);
  const double dl_before =
      RuleSetDescriptionLength(dataset, all, kPos, rules.rules(), possible);
  OptimizeRuleSet(engine, config, &rng, &rules);
  const double dl_after =
      RuleSetDescriptionLength(dataset, all, kPos, rules.rules(), possible);
  EXPECT_LE(dl_after, dl_before + 1e-6);
}

TEST(OptimizeRuleSetTest, NoopOnEmptyRuleSet) {
  const Dataset dataset = NoisyThreshold(200, 6);
  const RowSubset all = dataset.AllRows();
  RipperConfig config;
  Rng rng(config.seed);
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  CoveredRuleSet rules(dataset, all, kPos, CountPossibleConditions(dataset));
  // No positives reachable: positives exist, so the residual-coverage step
  // may add rules — that is the documented behaviour; just assert it does
  // not crash and leaves a consistent rule set.
  OptimizeRuleSet(engine, config, &rng, &rules);
  for (const Rule& rule : rules.rules().rules()) {
    EXPECT_FALSE(rule.empty());
  }
}

}  // namespace
}  // namespace pnr
