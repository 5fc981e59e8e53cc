// N-phase: collective false-positive removal.
//
// All records covered by the union of P-rules — true and false positives
// together — form the N-phase training collection. Sequential covering then
// learns *absence* rules (N-rules) whose pseudo-target class is "not the
// original target". Gathering the false positives first is what shields
// PNrule from the splintered-false-positives problem.
//
// Two controls distinguish this phase:
//   * rn (n_recall_lower_limit): a rule is refined past its metric optimum
//     whenever stopping early would drag the model's recall of the original
//     target class below rn;
//   * the MDL window: rule addition stops once the description length of
//     the N-rule set exceeds its minimum so far by mdl_window_bits.

#ifndef PNR_PNRULE_N_PHASE_H_
#define PNR_PNRULE_N_PHASE_H_

#include <optional>
#include <vector>

#include "induction/condition_search.h"
#include "pnrule/config.h"
#include "rules/rule_set.h"

namespace pnr {

/// Output of the N-phase.
struct NPhaseResult {
  /// Learned N-rules in order of discovery. Each rule's train_stats are
  /// with respect to the pseudo-target ("absence"): `positive` counts
  /// non-target weight the rule covered.
  RuleSet rules;
  /// Weight of original-target records erased (covered) by the N-rules —
  /// the false negatives the N-phase introduced on the training set.
  double erased_positive_weight = 0.0;
  /// Description length of the N-rule set at each MDL check, in order:
  /// first the empty set, then the set after each added rule — including,
  /// last, the one the MDL window rejected (see `rejected_rule`).
  std::vector<double> description_lengths;
  /// The rule whose addition overran the MDL window, if that is what
  /// stopped the phase. It is not part of `rules`.
  std::optional<Rule> rejected_rule;
};

/// Runs the N-phase on `covered_rows` (the union coverage of the P-rules).
///
/// `total_positive_weight` is the target-class weight of the *full* training
/// rows (the recall denominator); `covered_positive_weight` is the part the
/// P-rules captured. `config` must already be validated.
NPhaseResult RunNPhase(ConditionSearchEngine& engine,
                       const RowSubset& covered_rows, CategoryId target,
                       double total_positive_weight,
                       double covered_positive_weight,
                       const PnruleConfig& config);

/// Convenience overload: builds a transient engine (config.num_threads).
NPhaseResult RunNPhase(const Dataset& dataset, const RowSubset& covered_rows,
                       CategoryId target, double total_positive_weight,
                       double covered_positive_weight,
                       const PnruleConfig& config);

}  // namespace pnr

#endif  // PNR_PNRULE_N_PHASE_H_
