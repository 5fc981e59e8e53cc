#include "ripper/ripper.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/weighting.h"
#include "eval/metrics.h"
#include "ripper/optimize.h"
#include "synth/sweep.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeNumericDataset;

TEST(RipperConfigTest, Validation) {
  EXPECT_TRUE(RipperConfig().Validate().ok());
  RipperConfig config;
  config.grow_fraction = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = RipperConfig();
  config.max_prune_error_rate = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = RipperConfig();
  config.max_rules = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = RipperConfig();
  config.mdl_window_bits = -5.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(GrowRuleFoilTest, GrowsToPurityOnSeparableData) {
  // Positives: x0 > 5 AND x1 > 5.
  Rng rng(33);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.NextDouble(0, 10);
    const double b = rng.NextDouble(0, 10);
    rows.push_back({{a, b}, a > 5.0 && b > 5.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  const Rule rule = GrowRuleFoil(engine, dataset.AllRows(), kPos, Rule());
  ASSERT_FALSE(rule.empty());
  EXPECT_DOUBLE_EQ(rule.train_stats.negative(), 0.0);
  EXPECT_GT(rule.train_stats.positive, 0.0);
  EXPECT_LE(rule.size(), 4u);
}

TEST(GrowRuleFoilTest, SeededGrowthExtendsExistingRule) {
  Rng rng(34);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.NextDouble(0, 10);
    const double b = rng.NextDouble(0, 10);
    rows.push_back({{a, b}, a > 5.0 && b > 5.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  Rule seed({Condition::Greater(0, 5.0)});
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  const Rule rule = GrowRuleFoil(engine, dataset.AllRows(), kPos, seed);
  ASSERT_GE(rule.size(), 2u);
  EXPECT_EQ(rule.conditions()[0], seed.conditions()[0]);
  EXPECT_DOUBLE_EQ(rule.train_stats.negative(), 0.0);
}

TEST(PruneRuleIrepTest, DropsOverfittedTail) {
  // On the prune set, only the first condition holds up; the second is
  // noise fitted to nothing (it removes positives without need).
  Rng rng(35);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.NextDouble(0, 10);
    rows.push_back({{a, rng.NextDouble(0, 10)}, a > 5.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  Rule overfit({Condition::Greater(0, 5.0), Condition::LessEqual(1, 2.0)});
  const Rule pruned =
      PruneRuleIrep(dataset, dataset.AllRows(), kPos, overfit);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(pruned.conditions()[0], Condition::Greater(0, 5.0));
}

TEST(PruneRuleIrepTest, KeepsNecessaryConditions) {
  Rng rng(36);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.NextDouble(0, 10);
    const double b = rng.NextDouble(0, 10);
    rows.push_back({{a, b}, a > 5.0 && b > 5.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  Rule rule({Condition::Greater(0, 5.0), Condition::Greater(1, 5.0)});
  const Rule pruned = PruneRuleIrep(dataset, dataset.AllRows(), kPos, rule);
  EXPECT_EQ(pruned.size(), 2u);
}

TEST(RipperLearnerTest, LearnsSeparableConcept) {
  Rng rng(37);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.NextDouble(0, 10);
    const double b = rng.NextDouble(0, 10);
    rows.push_back({{a, b}, a > 7.0 && b < 3.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  RipperLearner learner;
  auto model = learner.Train(dataset, kPos);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Confusion eval = EvaluateClassifier(*model, dataset, kPos);
  EXPECT_GT(eval.f_measure(), 0.9);
  EXPECT_FALSE(model->rules().empty());
}

TEST(RipperLearnerTest, RareClassEndToEnd) {
  const TrainTestPair data = MakeNumericPair(NsynParams(1), 30000, 15000, 21);
  const CategoryId target =
      data.train.schema().class_attr().FindCategory("C");
  RipperLearner learner;
  auto model = learner.Train(data.train, target);
  ASSERT_TRUE(model.ok());
  const Confusion test = EvaluateClassifier(*model, data.test, target);
  EXPECT_GT(test.f_measure(), 0.5) << test.ToString();
}

TEST(RipperLearnerTest, StratifiedWeightsRaiseRecall) {
  const TrainTestPair data = MakeNumericPair(NsynParams(3), 30000, 15000, 22);
  const CategoryId target =
      data.train.schema().class_attr().FindCategory("C");
  RipperLearner learner;
  auto plain = learner.Train(data.train, target);
  ASSERT_TRUE(plain.ok());

  Dataset stratified = data.train;
  stratified.SetAllWeights(StratifiedWeights(data.train, target));
  auto weighted = learner.Train(stratified, target);
  ASSERT_TRUE(weighted.ok());

  const Confusion plain_eval =
      EvaluateClassifier(*plain, data.test, target);
  const Confusion weighted_eval =
      EvaluateClassifier(*weighted, data.test, target);
  // Stratification boosts recall (the paper's "-we" effect).
  EXPECT_GE(weighted_eval.recall(), plain_eval.recall() - 0.05);
}

TEST(RipperLearnerTest, EmptyTrainingSetRejected) {
  const Dataset dataset = MakeNumericDataset(1, {});
  RipperLearner learner;
  auto model = learner.TrainOnRows(dataset, {}, kPos);
  EXPECT_FALSE(model.ok());
}

TEST(RipperLearnerTest, NoPositivesYieldsEmptyModel) {
  const Dataset dataset = MakeNumericDataset(
      1, {{{1.0}, false}, {{2.0}, false}, {{3.0}, false}});
  RipperLearner learner;
  auto model = learner.Train(dataset, kPos);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->rules().empty());
  EXPECT_FALSE(model->Predict(dataset, 0));
  EXPECT_DOUBLE_EQ(model->Score(dataset, 0), 0.0);
}

TEST(RipperLearnerTest, SeedChangesSplitsDeterministically) {
  const TrainTestPair data = MakeNumericPair(NsynParams(1), 10000, 2000, 23);
  const CategoryId target =
      data.train.schema().class_attr().FindCategory("C");
  RipperConfig config;
  config.seed = 1;
  auto a1 = RipperLearner(config).Train(data.train, target);
  auto a2 = RipperLearner(config).Train(data.train, target);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  ASSERT_EQ(a1->rules().size(), a2->rules().size());
  for (size_t i = 0; i < a1->rules().size(); ++i) {
    EXPECT_TRUE(a1->rules().rule(i) == a2->rules().rule(i));
  }
}

}  // namespace
}  // namespace pnr
