// P-phase: sequential covering for *presence* rules with high support.
//
// Unlike classic sequential covering, rule growth stops as soon as the
// evaluation metric (Z-number by default) stops improving — high-support,
// moderate-accuracy rules are preferred over splintered high-accuracy ones.
// Rules are added until the target-class coverage reaches rp
// (min_coverage_fraction); past that point a rule must clear an accuracy
// gate to enter the model.

#ifndef PNR_PNRULE_P_PHASE_H_
#define PNR_PNRULE_P_PHASE_H_

#include "induction/condition_search.h"
#include "pnrule/config.h"
#include "rules/rule_set.h"

namespace pnr {

/// Output of the P-phase.
struct PPhaseResult {
  /// Learned P-rules in order of discovery (== significance).
  RuleSet rules;
  /// All training rows covered by the union of P-rules (input to N-phase).
  RowSubset covered_rows;
  /// Weight of target-class records in covered_rows.
  double covered_positive_weight = 0.0;
  /// Weight of all target-class records in the training rows.
  double total_positive_weight = 0.0;

  /// Fraction of the target class captured by the P-rules (upper bound on
  /// the final model's recall).
  double coverage_fraction() const {
    return total_positive_weight > 0.0
               ? covered_positive_weight / total_positive_weight
               : 0.0;
  }
};

/// Runs the P-phase of PNrule for `target` over `rows` of the engine's
/// dataset. `config` must already be validated. The engine's sorted-column
/// cache and thread pool are reused across every refinement search.
PPhaseResult RunPPhase(ConditionSearchEngine& engine, const RowSubset& rows,
                       CategoryId target, const PnruleConfig& config);

/// Convenience overload: builds a transient engine (config.num_threads).
PPhaseResult RunPPhase(const Dataset& dataset, const RowSubset& rows,
                       CategoryId target, const PnruleConfig& config);

/// Grows a single rule from empty over `remaining` (records left after
/// earlier rules), judged against `dist` (the remaining-data distribution),
/// accepting refinements only while the metric improves by at least
/// `min_refinement_gain` (relative) and support stays above
/// `min_support_weight`. `covered_rows`, when non-null, receives the rows
/// of `remaining` the grown rule covers, in `remaining` order: growth
/// filters them by each accepted condition through the engine, so the
/// caller need not evaluate the rule again. Exposed for testing and reuse.
Rule GrowPresenceRule(ConditionSearchEngine& engine, const RowSubset& remaining,
                      CategoryId target, const RuleMetric& metric,
                      const ClassDistribution& dist, double min_support_weight,
                      size_t max_length, bool enable_range_conditions,
                      double min_refinement_gain = 0.0,
                      RowSubset* covered_rows = nullptr);

/// Convenience overload: builds a transient serial engine.
Rule GrowPresenceRule(const Dataset& dataset, const RowSubset& remaining,
                      CategoryId target, const RuleMetric& metric,
                      const ClassDistribution& dist, double min_support_weight,
                      size_t max_length, bool enable_range_conditions,
                      double min_refinement_gain = 0.0);

/// True iff `value` clears `current` by the relative `min_gain` margin
/// (any strict improvement when `current` <= 0).
bool ClearsRefinementGain(double value, double current, double min_gain);

}  // namespace pnr

#endif  // PNR_PNRULE_P_PHASE_H_
