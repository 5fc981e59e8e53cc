// Conjunctive rules and their coverage statistics.

#ifndef PNR_RULES_RULE_H_
#define PNR_RULES_RULE_H_

#include <string>
#include <vector>

#include "rules/condition.h"

namespace pnr {

/// Weighted coverage counts of a rule against a (sub)set of records.
struct RuleStats {
  double covered = 0.0;   ///< total weight of covered records
  double positive = 0.0;  ///< weight of covered records of the target class

  /// Weight of covered non-target records.
  double negative() const { return covered - positive; }
  /// Fraction of covered weight belonging to the target (0 if empty).
  double accuracy() const { return covered > 0.0 ? positive / covered : 0.0; }
};

/// A conjunction of conditions. An empty rule matches every record.
class Rule {
 public:
  Rule() = default;
  explicit Rule(std::vector<Condition> conditions)
      : conditions_(std::move(conditions)) {}

  const std::vector<Condition>& conditions() const { return conditions_; }
  bool empty() const { return conditions_.empty(); }
  size_t size() const { return conditions_.size(); }

  /// Appends a condition.
  void AddCondition(Condition condition) {
    conditions_.push_back(std::move(condition));
  }

  /// Removes the condition at `index`.
  void RemoveCondition(size_t index);

  /// Truncates to the first `count` conditions (generalization by prefix,
  /// as in RIPPER's pruning of a final condition sequence).
  void TruncateTo(size_t count);

  /// True iff every condition matches the record.
  bool Matches(const Dataset& dataset, RowId row) const;

  /// "cond1 AND cond2 AND ..." ("TRUE" for the empty rule).
  std::string ToString(const Schema& schema) const;

  /// Structural equality.
  bool operator==(const Rule& other) const {
    return conditions_ == other.conditions_;
  }

  /// Training-time stats attached to the rule for reporting / scoring.
  RuleStats train_stats;

 private:
  std::vector<Condition> conditions_;
};

/// The rows of `rows` that are not in `covered`, which must be a
/// subsequence of `rows` (e.g. a rule's coverage of them), in `rows` order.
RowSubset RowsOutside(const RowSubset& rows, const RowSubset& covered);

}  // namespace pnr

#endif  // PNR_RULES_RULE_H_
