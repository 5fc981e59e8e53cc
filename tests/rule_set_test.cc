#include "rules/rule_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rules/cmp_span.h"
#include "rules/compiled_rule_set.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::MakeMixedDataset;

Dataset ThreeRows() {
  return MakeMixedDataset({
      {1.0, 0, true},   // row 0
      {2.0, 1, false},  // row 1
      {3.0, 2, false},  // row 2
  });
}

TEST(RuleSetTest, FirstMatchRespectsOrder) {
  const Dataset dataset = ThreeRows();
  RuleSet rules;
  rules.AddRule(Rule({Condition::Greater(0, 1.5)}));   // rows 1, 2
  rules.AddRule(Rule({Condition::CatEqual(1, 1)}));    // row 1 (shadowed)
  rules.AddRule(Rule({Condition::LessEqual(0, 1.0)})); // row 0
  EXPECT_EQ(rules.FirstMatch(dataset, 0), 2);
  EXPECT_EQ(rules.FirstMatch(dataset, 1), 0);  // rule 0 shadows rule 1
  EXPECT_EQ(rules.FirstMatch(dataset, 2), 0);
}

TEST(RuleSetTest, NoMatchReturnsSentinel) {
  const Dataset dataset = ThreeRows();
  RuleSet rules;
  rules.AddRule(Rule({Condition::Greater(0, 99.0)}));
  EXPECT_EQ(rules.FirstMatch(dataset, 0), kNoRule);
  EXPECT_FALSE(rules.AnyMatch(dataset, 0));
  RuleSet empty;
  EXPECT_EQ(empty.FirstMatch(dataset, 0), kNoRule);
}

TEST(RuleSetTest, CoveredRowsIsUnionInRowOrder) {
  const Dataset dataset = ThreeRows();
  RuleSet rules;
  rules.AddRule(Rule({Condition::LessEqual(0, 1.0)}));  // row 0
  rules.AddRule(Rule({Condition::Greater(0, 2.5)}));    // row 2
  EXPECT_EQ(rules.CoveredRows(dataset, dataset.AllRows()),
            (RowSubset{0, 2}));
}

TEST(RuleSetTest, RemoveRuleShiftsIndices) {
  const Dataset dataset = ThreeRows();
  RuleSet rules;
  rules.AddRule(Rule({Condition::Greater(0, 1.5)}));
  rules.AddRule(Rule({Condition::LessEqual(0, 1.0)}));
  rules.RemoveRule(0);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.FirstMatch(dataset, 0), 0);
  EXPECT_EQ(rules.FirstMatch(dataset, 2), kNoRule);
}

TEST(RuleSetTest, ToStringListsRulesWithStats) {
  const Dataset dataset = ThreeRows();
  RuleSet rules;
  Rule rule({Condition::LessEqual(0, 1.0)});
  rule.train_stats.covered = 10.0;
  rule.train_stats.positive = 9.0;
  rules.AddRule(rule);
  const std::string text = rules.ToString(dataset.schema());
  EXPECT_NE(text.find("x <= 1.0000"), std::string::npos);
  EXPECT_NE(text.find("acc=0.9000"), std::string::npos);
}

TEST(CompiledRuleSetTest, ConditionMasksMatchEveryCondition) {
  // Several mask words with a partial last one, and a NaN cell every 7th
  // row. Two rules test the same NaN threshold: it must get one mask.
  std::vector<testutil::MixedRow> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({i % 7 == 0 ? std::nan("") : 0.05 * i,
                    static_cast<CategoryId>(i % 3), i % 2 == 0});
  }
  const Dataset dataset = MakeMixedDataset(rows);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RuleSet rules;
  rules.AddRule(
      Rule({Condition::LessEqual(0, 4.0), Condition::CatEqual(1, 1)}));
  rules.AddRule(
      Rule({Condition::InRange(0, 2.0, 6.0), Condition::CatEqual(1, 2)}));
  rules.AddRule(
      Rule({Condition::Greater(0, 4.0), Condition::LessEqual(0, nan)}));
  rules.AddRule(
      Rule({Condition::CatEqual(1, 1), Condition::LessEqual(0, nan)}));
  const CompiledRuleSet program = CompiledRuleSet::Compile(rules);
  EXPECT_EQ(program.num_unique_conditions(), 6u);
  EXPECT_EQ(program.ConditionIndex(Condition::Greater(0, 9.0)), -1);
  EXPECT_EQ(program.ConditionIndex(Condition::CatEqual(1, 0)), -1);

  RowSubset all = dataset.AllRows();  // consecutive: the SIMD sweep
  RowSubset gathered;                 // scattered: a gathered copy
  for (RowId r = 0; r < dataset.num_rows(); r += 3) gathered.push_back(r);
  const Dataset paged = testutil::PagedCopy(
      dataset, dataset.num_rows() * sizeof(CategoryId) / 2);
  for (const RowSubset* subset : {&all, &gathered}) {
    const std::vector<BitMask> masks =
        program.ConditionMasks(dataset, subset->data(), subset->size());
    ASSERT_EQ(masks.size(), program.num_unique_conditions());
    for (const Rule& rule : rules.rules()) {
      for (const Condition& c : rule.conditions()) {
        const int32_t index = program.ConditionIndex(c);
        ASSERT_GE(index, 0);
        const BitMask& mask = masks[static_cast<size_t>(index)];
        ASSERT_EQ(mask.size(), subset->size());
        for (size_t i = 0; i < subset->size(); ++i) {
          EXPECT_EQ(mask.Get(i), c.Matches(dataset, (*subset)[i])) << i;
        }
      }
    }
    // A paged dataset gets the same masks, faulting each column once.
    const uint64_t before = paged.column_fault_count();
    EXPECT_EQ(program.ConditionMasks(paged, subset->data(), subset->size()),
              masks);
    EXPECT_LE(paged.column_fault_count() - before, 2u);
  }
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    EXPECT_EQ(program.FirstMatchRow(0, dataset, r),
              rules.FirstMatch(dataset, r));
  }
}

// Every span-kernel tier this CPU runs (portable, sse2, avx, avx512f)
// against a per-value reference, on spans whose last mask word is empty,
// partial and full, with NaN, signed zeros and infinities among both the
// values and the thresholds. Only the widest tier runs anywhere else.
TEST(CompiledRuleSetTest, EveryCmpSpanTierMatchesScalarReference) {
  const std::vector<CmpSpanKernel>& tiers = SupportedCmpSpanKernels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.front().name, "portable");
  EXPECT_EQ(ActiveCmpSpanKernel().span, tiers.back().span);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {nan, -0.0, 0.0, inf, -inf, 1.5, -2.0};
  Rng rng(17);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, size_t{130}}) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = rng.NextBool(0.5) ? specials[rng.NextBelow(specials.size())]
                            : rng.NextDouble(-3.0, 3.0);
    }
    const size_t words = (n + 63) / 64;
    for (const CmpKind kind : {CmpKind::kLe, CmpKind::kGt, CmpKind::kRange}) {
      for (const double lo : specials) {
        for (const double hi : specials) {
          std::vector<uint64_t> expected(words, 0);
          for (size_t i = 0; i < n; ++i) {
            const double v = values[i];
            const bool bit = kind == CmpKind::kLe   ? v <= hi
                             : kind == CmpKind::kGt ? v > lo
                                                    : v >= lo && v <= hi;
            expected[i / 64] |= static_cast<uint64_t>(bit) << (i % 64);
          }
          for (const CmpSpanKernel& tier : tiers) {
            SCOPED_TRACE(std::string(tier.name) + " n=" + std::to_string(n) +
                         " kind=" + std::to_string(static_cast<int>(kind)) +
                         " lo=" + std::to_string(lo) +
                         " hi=" + std::to_string(hi));
            // One guard word past the span: a kernel writes exactly
            // ceil(n/64) words.
            std::vector<uint64_t> got(words + 1, 0xdeadbeefULL);
            tier.span(values.data(), n, lo, hi, kind, got.data());
            EXPECT_EQ(got.back(), 0xdeadbeefULL);
            got.pop_back();
            EXPECT_EQ(got, expected);
          }
        }
      }
    }
  }
}

// Several lists in one program: conditions dedupe across lists, and each
// list resolves on a bound block exactly as its own RuleSet, whichever
// lists ran on the block before it (their condition masks are reused).
TEST(CompiledRuleSetTest, MultiListProgramMatchesEachList) {
  std::vector<testutil::MixedRow> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({i % 11 == 0 ? std::nan("") : 0.03 * i,
                    static_cast<CategoryId>((i * 7) % 3), i % 2 == 0});
  }
  const Dataset dataset = MakeMixedDataset(rows);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto list = [](std::vector<Rule> rules) {
    RuleSet set;
    for (Rule& rule : rules) set.AddRule(std::move(rule));
    return set;
  };
  const std::vector<RuleSet> lists = {
      list({Rule({Condition::LessEqual(0, 4.0), Condition::CatEqual(1, 1)}),
            Rule({Condition::InRange(0, 2.0, 6.0)}),
            Rule({Condition::CatEqual(1, 2)})}),
      list({Rule({Condition::InRange(0, 2.0, 6.0), Condition::CatEqual(1, 2)}),
            Rule({Condition::Greater(0, 4.0)}),
            Rule({Condition::LessEqual(0, nan)})}),
      RuleSet(),
      list({Rule({Condition::CatEqual(1, 1)}),
            Rule({Condition::LessEqual(0, 4.0), Condition::CatEqual(1, 1)}),
            Rule({Condition::Greater(0, 7.5), Condition::CatEqual(1, 0)})}),
  };
  std::vector<const RuleSet*> pointers;
  std::vector<Condition> all;
  for (const RuleSet& rules : lists) {
    pointers.push_back(&rules);
    for (const Rule& rule : rules.rules()) {
      for (const Condition& c : rule.conditions()) all.push_back(c);
    }
  }
  const CompiledRuleSet program = CompiledRuleSet::Compile(pointers);
  ASSERT_EQ(program.num_lists(), lists.size());
  size_t union_size = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (std::find(all.begin(), all.begin() + i, all[i]) == all.begin() + i) {
      ++union_size;
    }
  }
  EXPECT_EQ(union_size, 8u);
  EXPECT_EQ(program.num_unique_conditions(), union_size);
  for (size_t k = 0; k < lists.size(); ++k) {
    EXPECT_EQ(program.num_rules(k), lists[k].size());
    for (RowId r = 0; r < dataset.num_rows(); ++r) {
      EXPECT_EQ(program.FirstMatchRow(k, dataset, r),
                lists[k].FirstMatch(dataset, r));
    }
  }

  std::vector<RowId> consecutive(dataset.num_rows());
  for (RowId r = 0; r < dataset.num_rows(); ++r) consecutive[r] = r;
  std::vector<RowId> scattered;  // every row twice, out of order
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    scattered.push_back((r * 37) % dataset.num_rows());
    scattered.push_back(dataset.num_rows() - 1 - r);
  }
  const Dataset paged = testutil::PagedCopy(
      dataset, dataset.num_rows() * sizeof(CategoryId) / 2);
  for (const Dataset* data : {&dataset, &paged}) {
    for (const std::vector<RowId>* block : {&consecutive, &scattered}) {
      BitMask every_third(block->size());
      for (size_t i = 0; i < block->size(); i += 3) every_third.Set(i);
      for (const std::vector<size_t>& order :
           {std::vector<size_t>{0, 1, 2, 3}, std::vector<size_t>{3, 1, 0, 2}}) {
        for (const BitMask* candidates :
             std::initializer_list<const BitMask*>{nullptr, &every_third}) {
          CompiledRuleSet::Scratch scratch;
          const uint64_t faults = data->column_fault_count();
          program.BeginBlock(*data, block->data(), block->size(), &scratch);
          for (const size_t k : order) {
            std::vector<int32_t> out(block->size(), -7);
            program.FirstMatchBlock(k, out.data(), &scratch, candidates);
            for (size_t i = 0; i < block->size(); ++i) {
              const int expected =
                  candidates != nullptr && !candidates->Get(i)
                      ? kNoRule
                      : lists[k].FirstMatch(dataset, (*block)[i]);
              ASSERT_EQ(out[i], expected)
                  << "list " << k << ", slot " << i
                  << (data->paged() ? ", paged" : ", in RAM");
            }
          }
          // All four lists together fault each column at most once.
          EXPECT_LE(data->column_fault_count() - faults, 2u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pnr
