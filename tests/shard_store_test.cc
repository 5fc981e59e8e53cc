// Shard-store format tests: round-trip fidelity, serialize/load fixpoint,
// strict validation with located errors, zonemap range hints, and the
// demand-paged Dataset built over a reader (fault/evict accounting, pins,
// per-learner paged views).

#include "data/shard_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace pnr {
namespace {

Schema MixedSchema() {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.AddAttribute(Attribute::Categorical("color", {"red", "green", "blue"}));
  schema.AddAttribute(Attribute::Numeric("flat"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  schema.GetOrAddClass("rare");
  return schema;
}

// 23 rows (indivisible by most shard counts) of varied cells, including a
// constant numeric column and a missing categorical cell.
Dataset MixedDataset() {
  Dataset dataset(MixedSchema());
  dataset.AppendRows(23);
  for (RowId row = 0; row < 23; ++row) {
    dataset.set_numeric(row, 0, std::sin(0.7 * row) * 100.0);
    dataset.set_categorical(row, 1, static_cast<CategoryId>(row % 3));
    dataset.set_numeric(row, 2, 4.25);
    dataset.set_label(row, static_cast<CategoryId>(row % 2 == 0 ? 0 : row % 3));
  }
  dataset.set_categorical(5, 1, kInvalidCategory);
  return dataset;
}

std::string MustSerialize(const Dataset& dataset, uint32_t num_shards) {
  ShardStoreWriteOptions options;
  options.num_shards = num_shards;
  auto bytes = SerializeShardStore(dataset, options);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return std::move(bytes).value();
}

std::shared_ptr<const ShardStoreReader> MustOpen(std::string bytes) {
  auto reader = ShardStoreReader::OpenBuffer(std::move(bytes), "test.pns");
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(reader).value();
}

void ExpectSameData(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema().num_attributes(), b.schema().num_attributes());
  for (RowId row = 0; row < a.num_rows(); ++row) {
    EXPECT_EQ(a.label(row), b.label(row)) << "row " << row;
    EXPECT_DOUBLE_EQ(a.weight(row), b.weight(row)) << "row " << row;
    const auto num_attrs =
        static_cast<AttrIndex>(a.schema().num_attributes());
    for (AttrIndex attr = 0; attr < num_attrs; ++attr) {
      if (a.schema().attribute(attr).is_numeric()) {
        EXPECT_EQ(a.numeric(row, attr), b.numeric(row, attr))
            << "row " << row << " attr " << attr;
      } else {
        EXPECT_EQ(a.categorical(row, attr), b.categorical(row, attr))
            << "row " << row << " attr " << attr;
      }
    }
  }
}

TEST(ShardStoreTest, RoundTripAnyShardCount) {
  const Dataset original = MixedDataset();
  for (uint32_t shards : {1u, 2u, 4u, 7u, 23u}) {
    const std::string bytes = MustSerialize(original, shards);
    EXPECT_TRUE(LooksLikeShardStore(bytes));
    auto reader = MustOpen(bytes);
    EXPECT_EQ(reader->num_rows(), 23u);
    EXPECT_EQ(reader->num_shards(), shards);
    auto loaded = reader->LoadDataset();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameData(original, *loaded);
  }
}

TEST(ShardStoreTest, ShardCountClampedToRows) {
  auto reader = MustOpen(MustSerialize(MixedDataset(), 1000));
  EXPECT_EQ(reader->num_shards(), 23u);
  // Row ranges partition [0, 23) contiguously.
  uint64_t next = 0;
  for (uint32_t s = 0; s < reader->num_shards(); ++s) {
    const auto range = reader->shard_rows(s);
    EXPECT_EQ(range.first, next);
    EXPECT_LT(range.first, range.second);
    next = range.second;
  }
  EXPECT_EQ(next, 23u);
}

TEST(ShardStoreTest, SerializeLoadFixpoint) {
  const std::string s1 = MustSerialize(MixedDataset(), 4);
  auto loaded = MustOpen(s1)->LoadDataset();
  ASSERT_TRUE(loaded.ok());
  const std::string s2 = MustSerialize(*loaded, 4);
  EXPECT_EQ(s1, s2);
}

TEST(ShardStoreTest, IdentityRowListMatchesFullSerializer) {
  const Dataset dataset = MixedDataset();
  std::vector<RowId> identity(dataset.num_rows());
  for (RowId row = 0; row < dataset.num_rows(); ++row) identity[row] = row;
  for (uint32_t shards : {1u, 4u, 23u}) {
    ShardStoreWriteOptions options;
    options.num_shards = shards;
    auto full = SerializeShardStore(dataset, options);
    auto rows = SerializeShardStoreRows(dataset, identity.data(),
                                        identity.size(), options);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*full, *rows) << "shards=" << shards;
  }
}

TEST(ShardStoreTest, RowSubsetGathersInOrder) {
  const Dataset dataset = MixedDataset();
  // Out of order, with a repeat and the missing-cell row included.
  const std::vector<RowId> picks = {22, 5, 5, 0, 13, 7};
  ShardStoreWriteOptions options;
  options.num_shards = 3;
  auto bytes =
      SerializeShardStoreRows(dataset, picks.data(), picks.size(), options);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto loaded = MustOpen(std::move(bytes).value())->LoadDataset();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    const RowId src = picks[i];
    const RowId dst = static_cast<RowId>(i);
    EXPECT_EQ(loaded->label(dst), dataset.label(src)) << "row " << i;
    EXPECT_EQ(loaded->numeric(dst, 0), dataset.numeric(src, 0)) << "row " << i;
    EXPECT_EQ(loaded->categorical(dst, 1), dataset.categorical(src, 1))
        << "row " << i;
  }
  EXPECT_EQ(loaded->categorical(1, 1), kInvalidCategory);
}

TEST(ShardStoreTest, RowSubsetRejectsEmptyAndOutOfRange) {
  const Dataset dataset = MixedDataset();
  ShardStoreWriteOptions options;
  const std::vector<RowId> bad = {0, 23};
  auto out_of_range =
      SerializeShardStoreRows(dataset, bad.data(), bad.size(), options);
  EXPECT_FALSE(out_of_range.ok());
  EXPECT_NE(out_of_range.status().message().find("row id 23"),
            std::string::npos)
      << out_of_range.status().message();
  const RowId one = 0;
  auto empty = SerializeShardStoreRows(dataset, &one, 0, options);
  EXPECT_FALSE(empty.ok());
}

TEST(ShardStoreTest, RowSubsetWeightSectionFollowsSelectedRows) {
  Dataset dataset = MixedDataset();
  dataset.set_weight(3, 2.5);  // the only non-unit weight
  ShardStoreWriteOptions options;
  // A subset avoiding row 3 is canonical: no weight section.
  const std::vector<RowId> unweighted = {0, 1, 2, 4};
  auto plain = SerializeShardStoreRows(dataset, unweighted.data(),
                                       unweighted.size(), options);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(MustOpen(std::move(plain).value())->has_weights());
  // Including row 3 writes weights and round-trips the value.
  const std::vector<RowId> weighted = {2, 3, 4};
  auto with = SerializeShardStoreRows(dataset, weighted.data(),
                                      weighted.size(), options);
  ASSERT_TRUE(with.ok());
  auto loaded = MustOpen(std::move(with).value())->LoadDataset();
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->weight(1), 2.5);
}

TEST(ShardStoreTest, WeightsRoundTripAndElision) {
  Dataset weighted = MixedDataset();
  weighted.set_weight(3, 2.5);
  auto reader = MustOpen(MustSerialize(weighted, 3));
  EXPECT_TRUE(reader->has_weights());
  auto loaded = reader->LoadDataset();
  ASSERT_TRUE(loaded.ok());
  ExpectSameData(weighted, *loaded);

  // Unit weights are elided from the file but still load as 1.0.
  auto unit_reader = MustOpen(MustSerialize(MixedDataset(), 3));
  EXPECT_FALSE(unit_reader->has_weights());
  std::vector<double> weights;
  ASSERT_TRUE(unit_reader->FillWeights(&weights).ok());
  ASSERT_EQ(weights.size(), 23u);
  for (double w : weights) EXPECT_EQ(w, 1.0);
}

TEST(ShardStoreTest, NumericRangeHints) {
  auto reader = MustOpen(MustSerialize(MixedDataset(), 4));
  const auto hints = reader->NumericRangeHints();
  ASSERT_EQ(hints.size(), 3u);
  // x varies.
  EXPECT_LT(hints[0].first, hints[0].second);
  // color is categorical: unknown.
  EXPECT_EQ(hints[1].first, std::numeric_limits<double>::infinity());
  // flat is constant: a single point, which the search engine prunes.
  EXPECT_EQ(hints[2].first, 4.25);
  EXPECT_EQ(hints[2].second, 4.25);

  auto loaded = reader->LoadDataset();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->numeric_range_hints().size(), 3u);
}

TEST(ShardStoreTest, SniffRejectsOtherFormats) {
  EXPECT_FALSE(LooksLikeShardStore(""));
  EXPECT_FALSE(LooksLikeShardStore("a,b,class\n1,2,pos\n"));
  EXPECT_FALSE(LooksLikeShardStore("PNRSHRD"));  // short of the full magic
}

TEST(ShardStoreTest, TruncationYieldsLocatedError) {
  const std::string bytes = MustSerialize(MixedDataset(), 2);
  const std::vector<size_t> lengths = {0, 7, 63, bytes.size() / 2,
                                       bytes.size() - 1};
  for (size_t len : lengths) {
    auto reader =
        ShardStoreReader::OpenBuffer(bytes.substr(0, len), "trunc.pns");
    ASSERT_FALSE(reader.ok()) << "prefix length " << len;
    EXPECT_NE(reader.status().message().find("shard_store:"),
              std::string::npos)
        << reader.status().ToString();
  }
}

TEST(ShardStoreTest, EveryBitFlipIsRejectedOrLoadsConsistently) {
  // Flipping any single byte must either fail Open/LoadDataset with a
  // located error (checksums, zonemaps, bounds) or — if it lands in dead
  // space the format tolerates — still load and reserialize cleanly. It
  // must never crash or silently corrupt past the validators.
  const std::string bytes = MustSerialize(MixedDataset(), 3);
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x2b);
    auto reader = ShardStoreReader::OpenBuffer(corrupt, "flip.pns");
    if (!reader.ok()) {
      EXPECT_FALSE(reader.status().message().empty());
      continue;
    }
    auto loaded = (*reader)->LoadDataset();
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

TEST(ShardStoreTest, VersionSkewNamesTheVersion) {
  std::string bytes = MustSerialize(MixedDataset(), 1);
  bytes[8] = 9;  // version field follows the 8-byte magic
  auto reader = ShardStoreReader::OpenBuffer(bytes, "skew.pns");
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("version"), std::string::npos)
      << reader.status().ToString();
}

TEST(ShardStoreTest, RejectsEmptyDataset) {
  Dataset empty(MixedSchema());
  auto bytes = SerializeShardStore(empty, ShardStoreWriteOptions{});
  EXPECT_FALSE(bytes.ok());
}

// ---- Demand paging ---------------------------------------------------------

TEST(ShardStorePagingTest, PagedDatasetMatchesLoadedDataset) {
  auto reader = MustOpen(MustSerialize(MixedDataset(), 4));
  auto loaded = reader->LoadDataset();
  ASSERT_TRUE(loaded.ok());
  auto paged = MakePagedDataset(reader, 0);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE(paged->paged());
  EXPECT_FALSE(loaded->paged());
  ExpectSameData(*loaded, *paged);
  EXPECT_GE(paged->column_fault_count(), 3u);
}

TEST(ShardStorePagingTest, ZeroBudgetKeepsAtMostOneUnpinnedColumn) {
  auto reader = MustOpen(MustSerialize(MixedDataset(), 2));
  auto paged = MakePagedDataset(reader, 0);
  ASSERT_TRUE(paged.ok());
  // Touch all columns repeatedly: with budget 0 every newly faulted column
  // evicts the previous one, so residency never exceeds a single column.
  size_t max_resident = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (AttrIndex attr = 0; attr < 3; ++attr) {
      if (paged->schema().attribute(attr).is_numeric()) {
        (void)paged->numeric(0, attr);
      } else {
        (void)paged->categorical(0, attr);
      }
      max_resident = std::max(max_resident, paged->resident_column_bytes());
    }
  }
  EXPECT_LE(max_resident, 23u * sizeof(double));
  EXPECT_GT(paged->column_evict_count(), 0u);
  EXPECT_LE(paged->peak_resident_column_bytes(), 2 * 23 * sizeof(double));
}

TEST(ShardStorePagingTest, GenerousBudgetNeverEvicts) {
  auto reader = MustOpen(MustSerialize(MixedDataset(), 2));
  auto paged = MakePagedDataset(reader, 1 << 20);
  ASSERT_TRUE(paged.ok());
  for (RowId row = 0; row < paged->num_rows(); ++row) {
    (void)paged->numeric(row, 0);
    (void)paged->categorical(row, 1);
    (void)paged->numeric(row, 2);
  }
  EXPECT_EQ(paged->column_evict_count(), 0u);
  EXPECT_EQ(paged->column_fault_count(), 3u);  // one fault per column
}

TEST(ShardStorePagingTest, PinnedColumnSurvivesEvictionPressure) {
  auto reader = MustOpen(MustSerialize(MixedDataset(), 2));
  auto paged = MakePagedDataset(reader, 0);
  ASSERT_TRUE(paged.ok());
  {
    Dataset::ColumnPin pin = paged->PinColumn(0);
    const uint64_t faults_after_pin = paged->column_fault_count();
    // Hammer the other columns; the pinned column must not re-fault.
    for (int pass = 0; pass < 4; ++pass) {
      (void)paged->categorical(0, 1);
      (void)paged->numeric(0, 2);
      (void)paged->numeric(0, 0);
    }
    EXPECT_EQ(paged->column_fault_count() - faults_after_pin, 8u)
        << "only the two unpinned columns may re-fault";
  }
  // After the pin is released the column becomes evictable again: the next
  // foreign fault flushes it (budget 0), so touching it re-faults.
  const uint64_t before = paged->column_fault_count();
  (void)paged->categorical(0, 1);
  (void)paged->numeric(0, 0);
  EXPECT_EQ(paged->column_fault_count(), before + 2);
}

TEST(ShardStorePagingTest, ClonedViewsPageIndependently) {
  auto reader = MustOpen(MustSerialize(MixedDataset(), 4));
  auto paged = MakePagedDataset(reader, 0);
  ASSERT_TRUE(paged.ok());
  const Dataset view = paged->ClonePagedView();
  EXPECT_TRUE(view.paged());
  ExpectSameData(*paged, view);
  // Counters are per view: the original's eviction churn from the
  // interleaved reads above does not show up in a fresh clone.
  const Dataset fresh = paged->ClonePagedView();
  EXPECT_EQ(fresh.column_fault_count(), 0u);
}

}  // namespace
}  // namespace pnr
