// Shared helpers for building tiny hand-crafted datasets in tests.

#ifndef PNR_TESTS_TEST_UTIL_H_
#define PNR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/shard_store.h"
#include "induction/mdl.h"
#include "rules/rule_set.h"

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

/// Weighted coverage stats of `rule` over `rows`, matched row by row and
/// summed in `rows` order.
inline RuleStats EvaluateRule(const Rule& rule, const Dataset& dataset,
                              const RowSubset& rows, CategoryId target) {
  RuleStats stats;
  for (RowId row : rows) {
    if (!rule.Matches(dataset, row)) continue;
    const double w = dataset.weight(row);
    stats.covered += w;
    if (dataset.label(row) == target) stats.positive += w;
  }
  return stats;
}

/// The row-at-a-time description length of `rules` as a model of `target`
/// over `rows` (arguments as CoverageDescriptionLength's): every row is
/// matched against the rules and its weight added to the cover or uncover
/// side in `rows` order. The oracle for the mask and coverage-list forms.
inline double RuleSetDescriptionLength(const Dataset& dataset,
                                       const RowSubset& rows,
                                       CategoryId target, const RuleSet& rules,
                                       double possible_conditions,
                                       double expected_fp_ratio = 0.5,
                                       bool invert_target = false) {
  double theory = 0.0;
  for (const Rule& rule : rules.rules()) {
    theory += RuleTheoryBits(rule.size(), possible_conditions);
  }
  double cover = 0.0, uncover = 0.0, fp = 0.0, fn = 0.0;
  for (RowId row : rows) {
    const double w = dataset.weight(row);
    const bool positive = (dataset.label(row) == target) != invert_target;
    if (rules.FirstMatch(dataset, row) == kNoRule) {
      uncover += w;
      if (positive) fn += w;
    } else {
      cover += w;
      if (!positive) fp += w;
    }
  }
  if (expected_fp_ratio < 0.0) {
    return theory + ExceptionBitsEmpirical(cover, uncover, fp, fn);
  }
  return theory + ExceptionBits(expected_fp_ratio, cover, uncover, fp, fn);
}

}  // namespace testutil
}  // namespace pnr

#endif  // PNR_TESTS_TEST_UTIL_H_
