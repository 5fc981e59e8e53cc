#include "rules/rule.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeMixedDataset;

Dataset FourRows() {
  return MakeMixedDataset({
      {1.0, 0, true},    // row 0: x=1, c=a, pos
      {2.0, 0, false},   // row 1: x=2, c=a, neg
      {1.5, 1, true},    // row 2: x=1.5, c=b, pos
      {0.5, 1, false},   // row 3: x=0.5, c=b, neg
  });
}

TEST(RuleTest, EmptyRuleMatchesEverything) {
  const Dataset dataset = FourRows();
  const Rule rule;
  EXPECT_TRUE(rule.empty());
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    EXPECT_TRUE(rule.Matches(dataset, r));
  }
}

TEST(RuleTest, ConjunctionSemantics) {
  const Dataset dataset = FourRows();
  Rule rule;
  rule.AddCondition(Condition::LessEqual(0, 1.5));  // rows 0, 2, 3
  rule.AddCondition(Condition::CatEqual(1, 1));     // rows 2, 3
  EXPECT_FALSE(rule.Matches(dataset, 0));
  EXPECT_FALSE(rule.Matches(dataset, 1));
  EXPECT_TRUE(rule.Matches(dataset, 2));
  EXPECT_TRUE(rule.Matches(dataset, 3));
}

TEST(RuleTest, EmptyStatsAccuracyIsZero) {
  const RuleStats stats;
  EXPECT_DOUBLE_EQ(stats.accuracy(), 0.0);
}

TEST(RuleTest, RemoveAndTruncate) {
  Rule rule({Condition::LessEqual(0, 5.0), Condition::CatEqual(1, 0),
             Condition::Greater(0, 1.0)});
  rule.RemoveCondition(1);
  ASSERT_EQ(rule.size(), 2u);
  EXPECT_EQ(rule.conditions()[1], Condition::Greater(0, 1.0));
  rule.TruncateTo(1);
  ASSERT_EQ(rule.size(), 1u);
  EXPECT_EQ(rule.conditions()[0], Condition::LessEqual(0, 5.0));
  rule.TruncateTo(0);
  EXPECT_TRUE(rule.empty());
}

TEST(RuleTest, ToString) {
  const Dataset dataset = FourRows();
  Rule rule;
  EXPECT_EQ(rule.ToString(dataset.schema()), "TRUE");
  rule.AddCondition(Condition::LessEqual(0, 1.5));
  rule.AddCondition(Condition::CatEqual(1, 1));
  EXPECT_EQ(rule.ToString(dataset.schema()), "x <= 1.5000 AND c = b");
}

TEST(RuleTest, StructuralEquality) {
  Rule a({Condition::LessEqual(0, 1.0)});
  Rule b({Condition::LessEqual(0, 1.0)});
  Rule c({Condition::LessEqual(0, 2.0)});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace pnr
