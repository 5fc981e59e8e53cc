#include "induction/mdl.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "data/weight_counter.h"
#include "induction/condition_search.h"

#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeMixedDataset;
using testutil::MixedRow;
using testutil::RuleSetDescriptionLength;

TEST(MdlTest, RuleTheoryBitsMonotoneInConditions) {
  const double n = 100.0;
  EXPECT_DOUBLE_EQ(RuleTheoryBits(0, n), 0.0);
  double prev = 0.0;
  for (size_t k = 1; k <= 10; ++k) {
    const double bits = RuleTheoryBits(k, n);
    EXPECT_GT(bits, prev);
    prev = bits;
  }
}

TEST(MdlTest, RuleTheoryBitsHandlesTinyConditionSpace) {
  // possible_conditions below k is clamped, not a crash.
  EXPECT_GT(RuleTheoryBits(5, 2.0), 0.0);
}

TEST(MdlTest, ExceptionBitsZeroErrorIsCheap) {
  const double perfect = ExceptionBits(0.5, 100.0, 900.0, 0.0, 0.0);
  const double with_errors = ExceptionBits(0.5, 100.0, 900.0, 10.0, 20.0);
  EXPECT_LT(perfect, with_errors);
}

TEST(MdlTest, ExceptionBitsGrowWithErrors) {
  double prev = -1.0;
  for (double fp = 0.0; fp <= 40.0; fp += 10.0) {
    const double bits = ExceptionBits(0.5, 100.0, 900.0, fp, 5.0);
    EXPECT_GT(bits, prev);
    prev = bits;
  }
}

TEST(MdlTest, CountPossibleConditions) {
  // Categorical attribute contributes its 3 categories; numeric attribute
  // with k distinct values contributes 2*(k-1) cuts.
  const Dataset dataset = MakeMixedDataset({
      {1.0, 0, false}, {2.0, 1, true}, {3.0, 2, false}, {3.0, 0, true},
  });
  // numeric: 3 distinct -> 4; categorical: 3 categories.
  EXPECT_DOUBLE_EQ(CountPossibleConditions(dataset), 7.0);
}

TEST(MdlTest, CountPossibleConditionsCountsDistinctNumbersOnly) {
  // NaN cells are no value a cut can split off, and -0.0 equals 0.0: the
  // column {1, 2, NaN, NaN, NaN, -0.0, 0.0} has 3 distinct values, so 4
  // cuts; with the 3 categories, 7.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<MixedRow> rows;
  for (double x : {1.0, 2.0, nan, nan, nan, -0.0, 0.0}) {
    rows.push_back({x, static_cast<CategoryId>(rows.size() % 3), false});
  }
  const Dataset dataset = MakeMixedDataset(rows);
  EXPECT_DOUBLE_EQ(CountPossibleConditions(dataset), 7.0);
  ConditionSearchEngine engine(dataset);
  EXPECT_DOUBLE_EQ(engine.PossibleConditions(), 7.0);
}

TEST(MdlTest, GoodRuleReducesDescriptionLength) {
  // 4 positives at c==b, 12 negatives elsewhere.
  std::vector<testutil::MixedRow> rows;
  for (int i = 0; i < 4; ++i) rows.push_back({0.0, 1, true});
  for (int i = 0; i < 12; ++i) rows.push_back({0.0, 0, false});
  const Dataset dataset = MakeMixedDataset(rows);
  const RowSubset all = dataset.AllRows();
  const double possible = CountPossibleConditions(dataset);

  RuleSet empty;
  const double dl_empty =
      RuleSetDescriptionLength(dataset, all, kPos, empty, possible);

  RuleSet with_rule;
  with_rule.AddRule(Rule({Condition::CatEqual(1, 1)}));
  const double dl_rule =
      RuleSetDescriptionLength(dataset, all, kPos, with_rule, possible);
  EXPECT_LT(dl_rule, dl_empty);
}

TEST(MdlTest, UselessRuleIncreasesDescriptionLength) {
  std::vector<testutil::MixedRow> rows;
  for (int i = 0; i < 4; ++i) rows.push_back({0.0, 1, true});
  for (int i = 0; i < 12; ++i) rows.push_back({0.0, 0, false});
  const Dataset dataset = MakeMixedDataset(rows);
  const RowSubset all = dataset.AllRows();
  const double possible = CountPossibleConditions(dataset);

  RuleSet good;
  good.AddRule(Rule({Condition::CatEqual(1, 1)}));
  const double dl_good =
      RuleSetDescriptionLength(dataset, all, kPos, good, possible);

  RuleSet with_noise = good;
  with_noise.AddRule(Rule({Condition::CatEqual(1, 2)}));  // covers nothing
  const double dl_noise =
      RuleSetDescriptionLength(dataset, all, kPos, with_noise, possible);
  EXPECT_GT(dl_noise, dl_good);
}

TEST(MdlTest, InvertTargetModelsAbsence) {
  // Rule covers the negatives; as an absence model it should be cheap.
  std::vector<testutil::MixedRow> rows;
  for (int i = 0; i < 6; ++i) rows.push_back({0.0, 1, true});
  for (int i = 0; i < 6; ++i) rows.push_back({0.0, 0, false});
  const Dataset dataset = MakeMixedDataset(rows);
  const RowSubset all = dataset.AllRows();
  const double possible = CountPossibleConditions(dataset);

  RuleSet absence;
  absence.AddRule(Rule({Condition::CatEqual(1, 0)}));  // covers negatives
  const double dl_absence = RuleSetDescriptionLength(
      dataset, all, kPos, absence, possible, 0.5, /*invert_target=*/true);
  RuleSet empty;
  const double dl_empty = RuleSetDescriptionLength(
      dataset, all, kPos, empty, possible, 0.5, /*invert_target=*/true);
  EXPECT_LT(dl_absence, dl_empty);
}


TEST(MdlTest, EmpiricalExceptionBitsHaveNoBranchDiscontinuity) {
  // Cohen's asymmetric coding jumps when coverage crosses half the data
  // with fp == 0; the empirical form must stay monotone decreasing as a
  // pure rule set covers more of its pseudo-positives.
  double prev = 1e300;
  for (double cover = 100.0; cover <= 1900.0; cover += 100.0) {
    const double uncover = 2000.0 - cover;
    const double fn = uncover * 0.8;  // constant error *rate* among rest
    const double bits = ExceptionBitsEmpirical(cover, uncover, 0.0, fn);
    EXPECT_LT(bits, prev) << "cover=" << cover;
    prev = bits;
  }
}

TEST(MdlTest, EmpiricalExceptionBitsZeroForPerfectModel) {
  EXPECT_NEAR(ExceptionBitsEmpirical(1000.0, 1000.0, 0.0, 0.0),
              SafeLog2(2001.0), 1e-9);
}

TEST(MdlTest, NegativeExpectedRatioSelectsEmpiricalCoding) {
  std::vector<testutil::MixedRow> rows;
  for (int i = 0; i < 4; ++i) rows.push_back({0.0, 1, true});
  for (int i = 0; i < 12; ++i) rows.push_back({0.0, 0, false});
  const Dataset dataset = MakeMixedDataset(rows);
  const RowSubset all = dataset.AllRows();
  RuleSet rules;
  rules.AddRule(Rule({Condition::CatEqual(1, 1)}));
  const double asym = RuleSetDescriptionLength(dataset, all, kPos, rules,
                                               10.0, 0.5);
  const double sym = RuleSetDescriptionLength(dataset, all, kPos, rules,
                                              10.0, -1.0);
  // Both finite; for this perfectly-covered case they agree on theory bits
  // and the totals are close.
  EXPECT_GT(asym, 0.0);
  EXPECT_GT(sym, 0.0);
}

// RIPPER's mask form against the row-at-a-time oracle, bit for bit: random
// rule sets over numeric (NaN included) and categorical (missing included)
// cells, random shuffled row subsets, unit and fractional weights.
TEST(MdlTest, MaskDescriptionLengthEqualsRowWalk) {
  Rng rng(4242);
  size_t checks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<MixedRow> rows;
    const int n = 1 + static_cast<int>(rng.NextBelow(300));
    for (int i = 0; i < n; ++i) {
      const double x = rng.NextBool(0.1)
                           ? std::numeric_limits<double>::quiet_NaN()
                           : rng.NextDouble(0.0, 10.0);
      rows.push_back({x, static_cast<CategoryId>(rng.NextBelow(3)),
                      rng.NextBool(0.3)});
    }
    Dataset dataset = MakeMixedDataset(rows);
    for (RowId row = 0; row < dataset.num_rows(); ++row) {
      if (rng.NextBool(0.1)) dataset.set_categorical(row, 1, kInvalidCategory);
      if (trial % 2 == 1) dataset.set_weight(row, rng.NextDouble(0.01, 3.0));
    }
    RowSubset subset;
    for (RowId row = 0; row < dataset.num_rows(); ++row) {
      if (rng.NextBool(0.7)) subset.push_back(row);
    }
    rng.Shuffle(&subset);

    RuleSet rules;
    const size_t num_rules = rng.NextBelow(5);
    for (size_t r = 0; r < num_rules; ++r) {
      Rule rule;
      const size_t num_conditions = 1 + rng.NextBelow(3);
      for (size_t k = 0; k < num_conditions; ++k) {
        const double v = rng.NextDouble(0.0, 10.0);
        switch (rng.NextBelow(3)) {
          case 0: rule.AddCondition(Condition::LessEqual(0, v)); break;
          case 1: rule.AddCondition(Condition::Greater(0, v)); break;
          default:
            rule.AddCondition(Condition::CatEqual(
                1, static_cast<CategoryId>(rng.NextBelow(3))));
        }
      }
      rules.AddRule(rule);
    }

    const WeightCounter counter(dataset, subset);
    const BitMask positive = ClassMask(dataset, subset, kPos);
    BitMask uncovered(subset.size(), true);
    std::vector<size_t> sizes;
    for (const Rule& rule : rules.rules()) sizes.push_back(rule.size());
    for (size_t i = 0; i < subset.size(); ++i) {
      for (const Rule& rule : rules.rules()) {
        if (rule.Matches(dataset, subset[i])) uncovered.Set(i, false);
      }
    }
    const double possible = 1.0 + static_cast<double>(rng.NextBelow(40));
    EXPECT_EQ(MaskDescriptionLength(counter, positive, uncovered, sizes,
                                    possible),
              RuleSetDescriptionLength(dataset, subset, kPos, rules,
                                       possible))
        << "trial " << trial;
    ++checks;
  }
  EXPECT_EQ(checks, 200u);
}

}  // namespace
}  // namespace pnr
