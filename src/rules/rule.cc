#include "rules/rule.h"

#include <cassert>
#include <cstddef>

namespace pnr {

void Rule::RemoveCondition(size_t index) {
  assert(index < conditions_.size());
  conditions_.erase(conditions_.begin() + static_cast<std::ptrdiff_t>(index));
}

void Rule::TruncateTo(size_t count) {
  assert(count <= conditions_.size());
  conditions_.resize(count);
}

bool Rule::Matches(const Dataset& dataset, RowId row) const {
  for (const Condition& condition : conditions_) {
    if (!condition.Matches(dataset, row)) return false;
  }
  return true;
}

namespace {

// Condition-major filter for demand-paged datasets: a row-major walk over a
// multi-condition rule alternates columns per row, and on a tight paging
// budget every alternation is a whole-column decode. Evaluating one pinned
// condition at a time over the surviving rows costs one fault per condition
// instead — identical results, since a conjunction is order-independent.
RowSubset CoveredConditionMajor(const std::vector<Condition>& conditions,
                                const Dataset& dataset, const RowSubset& rows) {
  RowSubset out = rows;
  for (const Condition& condition : conditions) {
    const Dataset::ColumnPin pin = dataset.PinColumn(condition.attr);
    RowSubset next;
    next.reserve(out.size());
    for (RowId row : out) {
      if (condition.Matches(dataset, row)) next.push_back(row);
    }
    out = std::move(next);
  }
  return out;
}

bool UseConditionMajor(const Dataset& dataset, size_t num_conditions) {
  return dataset.paged() && num_conditions > 1;
}

}  // namespace

RuleStats Rule::Evaluate(const Dataset& dataset, const RowSubset& rows,
                         CategoryId target) const {
  RuleStats stats;
  if (UseConditionMajor(dataset, conditions_.size())) {
    for (RowId row : CoveredConditionMajor(conditions_, dataset, rows)) {
      const double w = dataset.weight(row);
      stats.covered += w;
      if (dataset.label(row) == target) stats.positive += w;
    }
    return stats;
  }
  for (RowId row : rows) {
    if (!Matches(dataset, row)) continue;
    const double w = dataset.weight(row);
    stats.covered += w;
    if (dataset.label(row) == target) stats.positive += w;
  }
  return stats;
}

RowSubset Rule::CoveredRows(const Dataset& dataset,
                            const RowSubset& rows) const {
  if (UseConditionMajor(dataset, conditions_.size())) {
    return CoveredConditionMajor(conditions_, dataset, rows);
  }
  RowSubset out;
  for (RowId row : rows) {
    if (Matches(dataset, row)) out.push_back(row);
  }
  return out;
}

RowSubset Rule::UncoveredRows(const Dataset& dataset,
                              const RowSubset& rows) const {
  if (UseConditionMajor(dataset, conditions_.size())) {
    return RowsOutside(rows,
                       CoveredConditionMajor(conditions_, dataset, rows));
  }
  RowSubset out;
  for (RowId row : rows) {
    if (!Matches(dataset, row)) out.push_back(row);
  }
  return out;
}

RowSubset RowsOutside(const RowSubset& rows, const RowSubset& covered) {
  // One merge walk: `covered` is a subsequence of `rows`.
  RowSubset out;
  out.reserve(rows.size() - covered.size());
  size_t c = 0;
  for (RowId row : rows) {
    if (c < covered.size() && covered[c] == row) {
      ++c;
    } else {
      out.push_back(row);
    }
  }
  return out;
}

std::string Rule::ToString(const Schema& schema) const {
  if (conditions_.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < conditions_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conditions_[i].ToString(schema);
  }
  return out;
}

}  // namespace pnr
