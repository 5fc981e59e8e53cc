// SortedColumnCache invalidation semantics — the contract the engine's
// correctness rests on: columns are sorted once per dataset, full-row
// prefix sums are rebuilt only when weights (or values, or labels) change,
// and every build path produces the same grouped column, bit for bit, as
// collapsing a brute-force column of one entry per row into one entry per
// distinct value. Registered under the `sanitize` ctest label so the
// TSan/ASan builds exercise it (tools/run_sanitizers.sh).

#include "induction/sorted_column_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "induction/condition_search.h"

namespace pnr {
namespace {

constexpr CategoryId kPos = 1;

Dataset MakeDataset(size_t num_rows, uint64_t seed) {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.AddAttribute(Attribute::Numeric("y"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  Dataset dataset(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < num_rows; ++i) {
    const RowId r = dataset.AddRow();
    // Heavy ties on x: exercises the (value, row id) tie-break.
    dataset.set_numeric(r, 0, std::floor(rng.NextDouble(0, 5)));
    dataset.set_numeric(r, 1, rng.NextDouble(-1, 1));
    dataset.set_label(r, rng.NextBool(0.4) ? kPos : 0);
  }
  return dataset;
}

TEST(SortedColumnCacheTest, SortsEachColumnExactlyOnce) {
  Dataset dataset = MakeDataset(100, 1);
  SortedColumnCache cache(dataset);
  const RowSubset rows = dataset.AllRows();
  SortedColumn scratch;

  for (int call = 0; call < 5; ++call) {
    cache.Column(0, kPos, rows, {}, &scratch);
    cache.Column(1, kPos, rows, {}, &scratch);
  }
  EXPECT_EQ(cache.sort_count(), 2u);        // one sort per attribute
  EXPECT_EQ(cache.full_build_count(), 2u);  // one prefix build per attribute
}

TEST(SortedColumnCacheTest, ColumnIsSortedWithPrefixSums) {
  Dataset dataset = MakeDataset(64, 2);
  dataset.set_weight(3, 2.5);
  SortedColumnCache cache(dataset);
  const RowSubset rows = dataset.AllRows();
  SortedColumn scratch;
  const SortedColumn& col = cache.Column(0, kPos, rows, {}, &scratch);

  // One group per distinct value, strictly ascending: x takes 0..4.
  ASSERT_EQ(col.size(), 5u);
  EXPECT_EQ(col.size(), cache.DistinctValues(0));
  EXPECT_EQ(col.last_values, col.values);
  for (size_t g = 1; g < col.size(); ++g) {
    EXPECT_LT(col.values[g - 1], col.values[g]);
  }
  ASSERT_EQ(col.prefix_weight.size(), col.size() + 1);
  ASSERT_EQ(col.prefix_positive.size(), col.size() + 1);
  EXPECT_DOUBLE_EQ(col.prefix_weight.front(), 0.0);
  EXPECT_DOUBLE_EQ(col.prefix_weight.back(), dataset.TotalWeight(rows));
  EXPECT_DOUBLE_EQ(col.prefix_positive.back(),
                   dataset.ClassWeight(rows, kPos));
  // Each prefix sums exactly the rows below its group's value.
  for (size_t g = 0; g < col.size(); ++g) {
    RowSubset below;
    for (RowId r : rows) {
      if (dataset.numeric(r, 0) < col.values[g]) below.push_back(r);
    }
    EXPECT_DOUBLE_EQ(col.prefix_weight[g], dataset.TotalWeight(below)) << g;
    EXPECT_DOUBLE_EQ(col.prefix_positive[g], dataset.ClassWeight(below, kPos))
        << g;
  }
}

TEST(SortedColumnCacheTest, WeightChangeRebuildsPrefixSumsButNotOrder) {
  Dataset dataset = MakeDataset(80, 3);
  SortedColumnCache cache(dataset);
  const RowSubset rows = dataset.AllRows();
  SortedColumn scratch;
  cache.Column(0, kPos, rows, {}, &scratch);
  ASSERT_EQ(cache.sort_count(), 1u);
  ASSERT_EQ(cache.full_build_count(), 1u);

  dataset.set_weight(10, 4.0);  // bumps weight_version only
  const SortedColumn& col = cache.Column(0, kPos, rows, {}, &scratch);
  EXPECT_EQ(cache.sort_count(), 1u) << "order must survive weight changes";
  EXPECT_EQ(cache.full_build_count(), 2u) << "prefix sums must rebuild";
  EXPECT_DOUBLE_EQ(col.prefix_weight.back(), dataset.TotalWeight(rows));

  // Unchanged weights: fully cached again.
  cache.Column(0, kPos, rows, {}, &scratch);
  EXPECT_EQ(cache.full_build_count(), 2u);
}

TEST(SortedColumnCacheTest, ValueChangeRebuildsOrder) {
  Dataset dataset = MakeDataset(80, 4);
  SortedColumnCache cache(dataset);
  const RowSubset rows = dataset.AllRows();
  SortedColumn scratch;
  cache.Column(0, kPos, rows, {}, &scratch);
  ASSERT_EQ(cache.sort_count(), 1u);

  dataset.set_numeric(5, 0, 1234.5);  // bumps data_version
  const SortedColumn& col = cache.Column(0, kPos, rows, {}, &scratch);
  EXPECT_EQ(cache.sort_count(), 2u) << "value change must re-sort";
  EXPECT_DOUBLE_EQ(col.values.back(), 1234.5);
}

TEST(SortedColumnCacheTest, TargetChangeRebuildsPositivePrefix) {
  Dataset dataset = MakeDataset(80, 5);
  SortedColumnCache cache(dataset);
  const RowSubset rows = dataset.AllRows();
  SortedColumn scratch;
  cache.Column(0, kPos, rows, {}, &scratch);
  const SortedColumn& col = cache.Column(0, /*target=*/0, rows, {}, &scratch);
  EXPECT_EQ(cache.sort_count(), 1u);
  EXPECT_EQ(cache.full_build_count(), 2u);
  EXPECT_DOUBLE_EQ(col.prefix_positive.back(),
                   dataset.ClassWeight(rows, 0));
}

// A label change is a data change: the engine's cached full-row column
// must not keep the old positive sums.
TEST(SortedColumnCacheTest, LabelChangeRebuildsPositivePrefix) {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  Dataset dataset(std::move(schema));
  for (int i = 0; i < 20; ++i) {
    const RowId r = dataset.AddRow();
    dataset.set_numeric(r, 0, i);
    dataset.set_label(r, i < 10 ? kPos : 0);
  }
  const auto scorer = [](const RuleStats& stats) {
    return stats.positive - stats.negative();
  };
  const RowSubset rows = dataset.AllRows();
  ConditionSearchEngine engine(dataset);
  const auto before = engine.FindBest(rows, kPos, scorer);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->condition, Condition::LessEqual(0, 9.5));
  EXPECT_EQ(before->value, 10.0);

  for (RowId r : rows) {
    dataset.set_label(r, dataset.label(r) == kPos ? 0 : kPos);
  }
  const auto after = engine.FindBest(rows, kPos, scorer);
  ConditionSearchEngine fresh(dataset);
  const auto expected = fresh.FindBest(rows, kPos, scorer);
  ASSERT_TRUE(after.has_value() && expected.has_value());
  EXPECT_EQ(expected->condition, Condition::Greater(0, 9.5));
  EXPECT_EQ(after->condition, expected->condition);
  EXPECT_EQ(after->value, expected->value);
  EXPECT_EQ(after->stats.positive, expected->stats.positive);
}

// Brute-force column of `attr` over `rows`: sorts the non-NaN entries by
// (value, row id), accumulates one running sum per entry, and collapses
// the entries into groups of equal value, keeping each group's first and
// last member value and the sums at each group's start.
SortedColumn ReferenceColumn(const Dataset& dataset, AttrIndex attr,
                             const RowSubset& rows) {
  std::vector<std::pair<double, RowId>> entries;
  for (RowId r : rows) {
    const double v = dataset.numeric(r, attr);
    if (!std::isnan(v)) entries.push_back({v, r});
  }
  std::sort(entries.begin(), entries.end());
  SortedColumn col;
  col.prefix_weight.push_back(0.0);
  col.prefix_positive.push_back(0.0);
  double w = 0.0, p = 0.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const RowId row = entries[i].second;
    w += dataset.weight(row);
    p += dataset.label(row) == kPos ? dataset.weight(row) : 0.0;
    if (i == 0 || entries[i - 1].first < entries[i].first) {
      col.values.push_back(entries[i].first);
      col.last_values.push_back(entries[i].first);
    } else {
      col.last_values.back() = entries[i].first;
    }
    if (i + 1 == entries.size() || entries[i].first < entries[i + 1].first) {
      col.prefix_weight.push_back(w);
      col.prefix_positive.push_back(p);
    }
  }
  col.total_weight = w;
  col.total_positive = p;
  return col;
}

TEST(SortedColumnCacheTest, SubsetColumnsAreBitIdenticalToFullBuild) {
  // The cache picks between a direct sort (small subsets) and filtering the
  // cached full order (large subsets). Both must produce byte-identical
  // columns — this is what keeps the search's float accumulation, and hence
  // the learned models, independent of the path taken.
  Dataset dataset = MakeDataset(200, 6);
  const auto column_for = [&](const RowSubset& rows) {
    SortedColumnCache cache(dataset);
    std::vector<uint8_t> mask(dataset.num_rows(), 0);
    for (RowId r : rows) mask[r] = 1;
    SortedColumn scratch;
    return cache.Column(0, kPos, rows, mask, &scratch);
  };

  // A small subset (direct-sort path) and a large one (filter path).
  RowSubset small, large;
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    if (r % 25 == 0) small.push_back(r);
    if (r % 10 != 0) large.push_back(r);
  }
  for (const RowSubset& rows : {small, large}) {
    const SortedColumn via_cache = column_for(rows);
    const SortedColumn expected = ReferenceColumn(dataset, 0, rows);
    ASSERT_EQ(via_cache.size(), expected.size());
    EXPECT_EQ(via_cache.values, expected.values);
    EXPECT_EQ(via_cache.last_values, expected.last_values);
    // Bitwise: the accumulation order is pinned by the (value, row id)
    // total order, so the sums are exactly reproducible.
    EXPECT_EQ(via_cache.prefix_weight, expected.prefix_weight);
    EXPECT_EQ(via_cache.prefix_positive, expected.prefix_positive);
    EXPECT_EQ(via_cache.total_weight, expected.total_weight);
    EXPECT_EQ(via_cache.total_positive, expected.total_positive);
  }
}

TEST(SortedColumnCacheTest, SubsetCallsDoNotTouchFullCache) {
  Dataset dataset = MakeDataset(100, 7);
  SortedColumnCache cache(dataset);
  RowSubset subset;
  for (RowId r = 0; r < dataset.num_rows(); r += 2) subset.push_back(r);
  std::vector<uint8_t> mask(dataset.num_rows(), 0);
  for (RowId r : subset) mask[r] = 1;
  SortedColumn scratch;
  cache.Column(0, kPos, subset, mask, &scratch);
  EXPECT_EQ(cache.full_build_count(), 0u);
}

TEST(SortedColumnCacheTest, NanCellsSortLastAndStayOutOfColumns) {
  Dataset dataset = MakeDataset(200, 8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (RowId r = 0; r < dataset.num_rows(); r += 4) {
    dataset.set_numeric(r, 1, nan);
  }
  SortedColumnCache cache(dataset);
  const std::vector<RowId>& order = cache.SortedOrder(1);
  ASSERT_EQ(order.size(), dataset.num_rows());
  const size_t numbers = dataset.num_rows() - 50;
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(std::isnan(dataset.numeric(order[i], 1)), i >= numbers) << i;
  }
  for (size_t i = 1; i < numbers; ++i) {
    EXPECT_LE(dataset.numeric(order[i - 1], 1), dataset.numeric(order[i], 1));
  }
  for (size_t i = numbers + 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]) << "NaN rows keep row-id order";
  }

  RowSubset small, large;
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    if (r % 20 == 0 || r % 20 == 1) small.push_back(r);  // rank sort
    if (r % 8 != 5) large.push_back(r);                  // order filter
  }
  for (const RowSubset& rows : {dataset.AllRows(), small, large}) {
    std::vector<uint8_t> mask(dataset.num_rows(), 0);
    for (RowId r : rows) mask[r] = 1;
    SortedColumn scratch;
    const SortedColumn& col = cache.Column(1, kPos, rows, mask, &scratch);
    RowSubset valued;
    for (RowId r : rows) {
      if (!std::isnan(dataset.numeric(r, 1))) valued.push_back(r);
    }
    ASSERT_EQ(col.size(), ReferenceColumn(dataset, 1, rows).size())
        << rows.size() << " rows";
    for (double v : col.values) EXPECT_FALSE(std::isnan(v));
    EXPECT_EQ(col.total_weight, static_cast<double>(valued.size()));
    EXPECT_DOUBLE_EQ(col.total_positive, dataset.ClassWeight(valued, kPos));
  }
}

// Two numeric attributes and a categorical one ("c", four values) whose
// value leans positive.
Dataset MakeMixedDataset(size_t num_rows, uint64_t seed) {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.AddAttribute(Attribute::Numeric("y"));
  schema.AddAttribute(Attribute::Categorical("c", {"a", "b", "c", "d"}));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  Dataset dataset(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < num_rows; ++i) {
    const RowId r = dataset.AddRow();
    dataset.set_numeric(r, 0, std::floor(rng.NextDouble(0, 5)));
    dataset.set_numeric(r, 1, rng.NextDouble(-1, 1));
    const auto c = static_cast<CategoryId>(rng.NextBelow(4));
    dataset.set_categorical(r, 2, c);
    dataset.set_label(r, rng.NextBool(c == 1 ? 0.7 : 0.2) ? kPos : 0);
  }
  return dataset;
}

TEST(SortedColumnCacheTest, CodeCopiesCountInTheBudgetAndAreEvicted) {
  const Dataset dataset = MakeMixedDataset(300, 9);
  SortedColumnCache cache(dataset);
  cache.set_memory_budget(1);  // every build evicts every other slot
  EXPECT_EQ(cache.Codes(2), dataset.categorical_column(2));
  EXPECT_EQ(cache.resident_bytes(), 300 * sizeof(CategoryId));

  cache.SortedOrder(0);
  EXPECT_EQ(cache.evict_count(), 1u) << "the code copy made room";
  EXPECT_EQ(cache.resident_bytes(),
            300 * (sizeof(RowId) + sizeof(double) + sizeof(uint32_t)) +
                (cache.DistinctValues(0) + 1) * sizeof(uint32_t))
      << "order, values and ranks per row; a start per group";

  EXPECT_EQ(cache.Codes(2), dataset.categorical_column(2)) << "rebuilt";
  EXPECT_EQ(cache.evict_count(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 300 * sizeof(CategoryId));
}

TEST(SortedColumnCacheTest, SearchAndCoverageAreBitIdenticalAtAnyBudget) {
  const Dataset dataset = MakeMixedDataset(2000, 10);
  RowSubset all = dataset.AllRows();
  RowSubset small, large;
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    if (r % 40 == 3) small.push_back(r);
    if (r % 5 != 2) large.push_back(r);
  }
  const auto scorer = [](const RuleStats& stats) {
    return stats.positive - stats.negative();
  };
  ConditionSearchEngine reference(dataset);
  for (size_t budget : {size_t{1}, 2000 * sizeof(CategoryId),
                        2000 * sizeof(double) * 3}) {
    ConditionSearchEngine engine(dataset, 1, budget);
    for (const RowSubset* rows :
         {&large, &small, &all, &large, &small}) {
      const auto best = engine.FindBest(*rows, kPos, scorer);
      const auto expected = reference.FindBest(*rows, kPos, scorer);
      ASSERT_TRUE(best.has_value() && expected.has_value());
      EXPECT_EQ(best->condition, expected->condition) << budget;
      EXPECT_EQ(best->stats.covered, expected->stats.covered) << budget;
      EXPECT_EQ(best->stats.positive, expected->stats.positive) << budget;
      EXPECT_EQ(best->value, expected->value) << budget;
      for (const Condition& condition :
           {best->condition, Condition::CatEqual(2, 1),
            Condition::LessEqual(0, 2.0)}) {
        EXPECT_EQ(engine.CoveredRows(condition, *rows),
                  reference.CoveredRows(condition, *rows))
            << budget;
      }
    }
    EXPECT_EQ(engine.PossibleConditions(), reference.PossibleConditions());
  }
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// -0.0 and +0.0 are one value but differ in bits, so the zero group's first
// and last members decide the bits of the cuts on either side of it, and
// the two members change with the subset. Every build path must cut with
// exactly the values a column of one entry per row would have used.
TEST(SortedColumnCacheTest, SignedZeroCutsMatchThePerRowColumnBitForBit) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> palette = {-0.0, 0.0, -0.0, 0.0, denorm,
                                       -denorm, 5.0, -5.0, 0.0, -0.0};
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  Dataset dataset(std::move(schema));
  Rng rng(11);
  for (size_t i = 0; i < 2000; ++i) {
    const RowId r = dataset.AddRow();
    dataset.set_numeric(r, 0, palette[rng.NextBelow(palette.size())]);
    dataset.set_label(r, rng.NextBool(0.3) ? kPos : 0);
  }
  SortedColumnCache cache(dataset);
  std::vector<RowSubset> subsets = {dataset.AllRows()};
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng pick(100 + seed);
    // Alternately 30 rows (rank sort) and about 1500 rows (group filter).
    const double keep = seed % 2 == 0 ? 30.0 / 2000 : 0.75;
    RowSubset rows;
    for (RowId r = 0; r < dataset.num_rows(); ++r) {
      if (pick.NextBool(keep)) rows.push_back(r);
    }
    subsets.push_back(rows);
  }
  size_t mixed_cuts = 0;
  for (const RowSubset& rows : subsets) {
    std::vector<uint8_t> mask(dataset.num_rows(), 0);
    for (RowId r : rows) mask[r] = 1;
    SortedColumn scratch;
    const SortedColumn& col = cache.Column(0, kPos, rows, mask, &scratch);
    const SortedColumn expected = ReferenceColumn(dataset, 0, rows);
    ASSERT_EQ(col.size(), expected.size()) << rows.size() << " rows";
    for (size_t g = 0; g < col.size(); ++g) {
      EXPECT_EQ(Bits(col.values[g]), Bits(expected.values[g])) << g;
      EXPECT_EQ(Bits(col.last_values[g]), Bits(expected.last_values[g])) << g;
      if (Bits(expected.values[g]) != Bits(expected.last_values[g])) {
        ++mixed_cuts;
      }
    }
    EXPECT_EQ(col.prefix_weight, expected.prefix_weight);
    EXPECT_EQ(col.prefix_positive, expected.prefix_positive);
    for (size_t cut = 1; cut < col.size(); ++cut) {
      EXPECT_EQ(Bits(col.CutValue(cut)), Bits(expected.CutValue(cut)))
          << rows.size() << " rows, cut " << cut;
      EXPECT_EQ(Bits(col.LowerCutValue(cut)),
                Bits(expected.LowerCutValue(cut)))
          << rows.size() << " rows, cut " << cut;
    }
  }
  EXPECT_GT(mixed_cuts, 0u) << "no subset mixed the two zeros";
}

}  // namespace
}  // namespace pnr
