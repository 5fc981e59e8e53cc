// Shared helpers for building tiny hand-crafted datasets in tests.

#ifndef PNR_TESTS_TEST_UTIL_H_
#define PNR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/shard_store.h"

namespace pnr {
namespace testutil {

/// Builds a dataset with one numeric attribute "x" and one categorical
/// attribute "c" (values "a", "b", "c"), classes "neg" (0) / "pos" (1).
/// Each row is (x, c-index, is_positive).
struct MixedRow {
  double x;
  CategoryId c;
  bool positive;
};

inline Dataset MakeMixedDataset(const std::vector<MixedRow>& rows) {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.AddAttribute(Attribute::Categorical("c", {"a", "b", "c"}));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  Dataset dataset(std::move(schema));
  for (const MixedRow& row : rows) {
    const RowId r = dataset.AddRow();
    dataset.set_numeric(r, 0, row.x);
    dataset.set_categorical(r, 1, row.c);
    dataset.set_label(r, row.positive ? 1 : 0);
  }
  return dataset;
}

/// Builds a numeric-only dataset with attributes "x0".."x{k-1}"; each row
/// is (values..., is_positive).
inline Dataset MakeNumericDataset(
    size_t num_attrs, const std::vector<std::pair<std::vector<double>, bool>>&
                          rows) {
  Schema schema;
  for (size_t a = 0; a < num_attrs; ++a) {
    schema.AddAttribute(Attribute::Numeric("x" + std::to_string(a)));
  }
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  Dataset dataset(std::move(schema));
  for (const auto& [values, positive] : rows) {
    const RowId r = dataset.AddRow();
    for (size_t a = 0; a < num_attrs; ++a) {
      dataset.set_numeric(r, static_cast<AttrIndex>(a), values[a]);
    }
    dataset.set_label(r, positive ? 1 : 0);
  }
  return dataset;
}

/// A demand-paged view of `in_ram`, round-tripped through an in-memory
/// shard store, that keeps at most `budget_bytes` of columns resident.
inline Dataset PagedCopy(const Dataset& in_ram, size_t budget_bytes) {
  auto bytes = SerializeShardStore(in_ram, ShardStoreWriteOptions());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto reader =
      ShardStoreReader::OpenBuffer(std::move(bytes).value(), "test.pns");
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  auto paged = MakePagedDataset(*reader, budget_bytes);
  EXPECT_TRUE(paged.ok()) << paged.status().ToString();
  return std::move(paged).value();
}

/// The positive class id in datasets built by the helpers above.
inline constexpr CategoryId kPos = 1;

}  // namespace testutil
}  // namespace pnr

#endif  // PNR_TESTS_TEST_UTIL_H_
