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
