// Ordered rule lists (decision lists).

#ifndef PNR_RULES_RULE_SET_H_
#define PNR_RULES_RULE_SET_H_

#include <string>
#include <vector>

#include "rules/rule.h"

namespace pnr {

/// Index returned when no rule in a RuleSet matches.
inline constexpr int kNoRule = -1;

/// An ordered list of rules, applied first-match-wins (the order of
/// discovery is the order of significance in all learners here).
class RuleSet {
 public:
  RuleSet() = default;
  explicit RuleSet(std::vector<Rule> rules) : rules_(std::move(rules)) {}

  const std::vector<Rule>& rules() const { return rules_; }
  std::vector<Rule>& mutable_rules() { return rules_; }
  size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }

  const Rule& rule(size_t index) const { return rules_[index]; }
  Rule& mutable_rule(size_t index) { return rules_[index]; }

  /// Appends a rule; returns its index.
  size_t AddRule(Rule rule);

  /// Removes the rule at `index`.
  void RemoveRule(size_t index);

  /// Index of the first rule matching the record, or kNoRule.
  int FirstMatch(const Dataset& dataset, RowId row) const;

  /// Multi-line listing with per-rule training stats.
  std::string ToString(const Schema& schema) const;

 private:
  std::vector<Rule> rules_;
};

}  // namespace pnr

#endif  // PNR_RULES_RULE_SET_H_
