// SortedColumnCache invalidation semantics — the contract the engine's
// correctness rests on: columns are sorted once per dataset, full-row
// prefix sums are rebuilt only when weights (or values) change, and the
// subset path produces bit-identical columns whichever build strategy it
// picks. Registered under the `sanitize` ctest label so the TSan/ASan
// builds exercise it (tools/run_sanitizers.sh).

#include "induction/sorted_column_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
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

  ASSERT_EQ(col.values.size(), dataset.num_rows());
  for (size_t i = 1; i < col.values.size(); ++i) {
    EXPECT_LE(col.values[i - 1], col.values[i]);
  }
  ASSERT_EQ(col.prefix_weight.size(), col.values.size() + 1);
  EXPECT_DOUBLE_EQ(col.prefix_weight.front(), 0.0);
  EXPECT_DOUBLE_EQ(col.prefix_weight.back(), dataset.TotalWeight(rows));
  EXPECT_DOUBLE_EQ(col.prefix_positive.back(),
                   dataset.ClassWeight(rows, kPos));
  // Boundaries mark exactly the distinct-value steps.
  for (size_t b : col.boundaries) {
    ASSERT_GT(b, 0u);
    EXPECT_LT(col.values[b - 1], col.values[b]);
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
    // Reference: brute-force (value, row id) sort of the subset.
    std::vector<std::pair<double, RowId>> entries;
    for (RowId r : rows) entries.push_back({dataset.numeric(r, 0), r});
    std::sort(entries.begin(), entries.end());
    ASSERT_EQ(via_cache.values.size(), entries.size());
    double w = 0.0, p = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(via_cache.values[i], entries[i].first);
      w += dataset.weight(entries[i].second);
      if (dataset.label(entries[i].second) == kPos) {
        p += dataset.weight(entries[i].second);
      }
      // Bitwise: the accumulation order is pinned by the (value, row id)
      // total order, so the sums are exactly reproducible.
      EXPECT_EQ(via_cache.prefix_weight[i + 1], w);
      EXPECT_EQ(via_cache.prefix_positive[i + 1], p);
    }
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
    ASSERT_EQ(col.values.size(), valued.size()) << rows.size() << " rows";
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
            300 * (sizeof(RowId) + sizeof(double) + sizeof(uint32_t)));

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

}  // namespace
}  // namespace pnr
