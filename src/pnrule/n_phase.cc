#include "pnrule/n_phase.h"

#include "pnrule/p_phase.h"

#include <cassert>

#include "induction/condition_search.h"
#include "induction/mdl.h"

namespace pnr {
namespace {

// Flips coverage stats so that "positive" means the pseudo-target of the
// N-phase: absence of the original target class.
RuleStats FlipStats(const RuleStats& stats) {
  RuleStats flipped;
  flipped.covered = stats.covered;
  flipped.positive = stats.negative();
  return flipped;
}

// Grows one N-rule over `remaining`. `recall_floor_weight` is the minimum
// target-class weight the model must keep; `kept_positive_weight` is what it
// currently keeps (before this rule). The rn guard: if stopping at the
// current rule R would drop kept weight below the floor, refinement is
// forced even when the metric does not improve. `*covered_rows` receives
// the rows of `remaining` the grown rule covers, in `remaining` order.
Rule GrowAbsenceRule(ConditionSearchEngine& engine, const RowSubset& remaining,
                     CategoryId target, const RuleMetric& metric,
                     const ClassDistribution& absence_dist,
                     double kept_positive_weight, double recall_floor_weight,
                     size_t max_length, bool enable_range_conditions,
                     bool legacy_mode, double min_refinement_gain,
                     RowSubset* covered_rows) {
  const Dataset& dataset = engine.dataset();
  Rule rule;
  RowSubset covered = remaining;
  double current_value = 0.0;
  // True-positive weight the current rule R erases (empty rule: all of it).
  double rule_erased = dataset.ClassWeight(remaining, target);

  ConditionSearchOptions options;
  options.enable_range_conditions = enable_range_conditions;

  ConditionScorer scorer = [&](const RuleStats& stats) {
    return metric.Evaluate(FlipStats(stats), absence_dist);
  };

  while (max_length == 0 || rule.size() < max_length) {
    const auto candidate = engine.FindBest(covered, target, scorer, options);
    if (!candidate.has_value()) break;
    const bool improves = ClearsRefinementGain(
        candidate->value, current_value, min_refinement_gain);
    if (rule.empty()) {
      // The first condition must carry a positive metric value; an empty
      // N-rule (match-everything) is never admissible.
      if (!improves) break;
    } else {
      // Paper section 2.2: accept R1 when the metric improves, or when
      // keeping R would push recall below the lower limit rn. Forced
      // refinement only makes sense while the rule erases true positives
      // and the refinement actually reduces that erasure — otherwise the
      // loop would grow unboundedly specific rules whenever the floor is
      // unreachable (e.g. the P-phase coverage already sits at the floor).
      const bool recall_violated =
          !legacy_mode && rule_erased > 0.0 &&
          kept_positive_weight - rule_erased < recall_floor_weight;
      if (!improves &&
          (!recall_violated || candidate->stats.positive >= rule_erased)) {
        break;
      }
    }
    rule.AddCondition(candidate->condition);
    rule.train_stats = FlipStats(candidate->stats);
    current_value = improves ? candidate->value : current_value;
    covered = engine.CoveredRows(candidate->condition, covered);
    rule_erased = candidate->stats.positive;
    if (rule.train_stats.negative() <= 0.0) break;  // pure absence rule
  }
  *covered_rows = std::move(covered);
  return rule;
}

}  // namespace

NPhaseResult RunNPhase(ConditionSearchEngine& engine,
                       const RowSubset& covered_rows, CategoryId target,
                       double total_positive_weight,
                       double covered_positive_weight,
                       const PnruleConfig& config) {
  const Dataset& dataset = engine.dataset();
  NPhaseResult result;
  if (covered_rows.empty()) return result;

  const auto metric = MakeRuleMetric(config.metric);
  const bool enable_range =
      config.enable_range_conditions && !config.legacy_mode;
  const double possible_conditions = engine.PossibleConditions();
  const double recall_floor_weight =
      config.n_recall_lower_limit * total_positive_weight;

  // MDL stop (paper section 2.1): keep adding N-rules only while the total
  // description length stays within the window of the minimum seen. The
  // exception bits need the rows no N-rule covers, which is exactly
  // `remaining`, so every check is a walk over weights and labels — no
  // re-evaluation of the rule set.
  RowSubset remaining = covered_rows;
  double min_dl = CoverageDescriptionLength(
      dataset, covered_rows, remaining, target, result.rules,
      possible_conditions, -1.0, /*invert_target=*/true);
  result.description_lengths.push_back(min_dl);

  while (result.rules.size() < config.max_n_rules) {
    ClassDistribution absence_dist;
    const double remaining_pos = dataset.ClassWeight(remaining, target);
    const double remaining_total = dataset.TotalWeight(remaining);
    absence_dist.positives = remaining_total - remaining_pos;  // absence
    absence_dist.negatives = remaining_pos;
    if (absence_dist.positives <= 0.0) break;  // no false positives left

    const double kept_positive_weight =
        covered_positive_weight - result.erased_positive_weight;
    RowSubset covered;
    Rule rule = GrowAbsenceRule(
        engine, remaining, target, *metric, absence_dist,
        kept_positive_weight, recall_floor_weight, config.max_n_rule_length,
        enable_range, config.legacy_mode, config.min_refinement_gain,
        &covered);
    if (rule.empty() || rule.train_stats.positive <= 0.0) break;

    const double rule_erased =
        rule.train_stats.negative();  // original-target weight it removes
    RowSubset uncovered = RowsOutside(remaining, covered);
    result.rules.AddRule(rule);
    const double dl = CoverageDescriptionLength(
        dataset, covered_rows, uncovered, target, result.rules,
        possible_conditions, -1.0, /*invert_target=*/true);
    result.description_lengths.push_back(dl);
    if (dl > min_dl + config.mdl_window_bits) {
      result.rules.RemoveRule(result.rules.size() - 1);
      result.rejected_rule = std::move(rule);
      break;
    }
    if (dl < min_dl) min_dl = dl;

    result.erased_positive_weight += rule_erased;
    remaining = std::move(uncovered);
  }
  return result;
}

NPhaseResult RunNPhase(const Dataset& dataset, const RowSubset& covered_rows,
                       CategoryId target, double total_positive_weight,
                       double covered_positive_weight,
                       const PnruleConfig& config) {
  ConditionSearchEngine engine(dataset, config.num_threads);
  return RunNPhase(engine, covered_rows, target, total_positive_weight,
                   covered_positive_weight, config);
}

}  // namespace pnr
