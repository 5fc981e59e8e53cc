#include "rules/rule_set.h"

#include <cassert>
#include <cstddef>

#include "common/string_util.h"

namespace pnr {

size_t RuleSet::AddRule(Rule rule) {
  rules_.push_back(std::move(rule));
  return rules_.size() - 1;
}

void RuleSet::RemoveRule(size_t index) {
  assert(index < rules_.size());
  rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(index));
}

int RuleSet::FirstMatch(const Dataset& dataset, RowId row) const {
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].Matches(dataset, row)) return static_cast<int>(i);
  }
  return kNoRule;
}

std::string RuleSet::ToString(const Schema& schema) const {
  std::string out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    out += "[" + std::to_string(i) + "] " + rules_[i].ToString(schema);
    const RuleStats& stats = rules_[i].train_stats;
    if (stats.covered > 0.0) {
      out += "   (cov=" + FormatDouble(stats.covered, 1) +
             ", pos=" + FormatDouble(stats.positive, 1) +
             ", acc=" + FormatDouble(stats.accuracy(), 4) + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace pnr
