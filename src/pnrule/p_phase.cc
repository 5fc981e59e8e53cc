#include "pnrule/p_phase.h"

#include <cassert>

#include "induction/condition_search.h"

namespace pnr {

bool ClearsRefinementGain(double value, double current, double min_gain) {
  if (current <= 0.0) return value > current;
  return value > current * (1.0 + min_gain);
}

Rule GrowPresenceRule(ConditionSearchEngine& engine, const RowSubset& remaining,
                      CategoryId target, const RuleMetric& metric,
                      const ClassDistribution& dist, double min_support_weight,
                      size_t max_length, bool enable_range_conditions,
                      double min_refinement_gain, RowSubset* covered_rows) {
  Rule rule;
  RowSubset covered = remaining;
  // The empty rule covers everything: metric value 0 by construction for
  // Z-number (accuracy equals the prior); other metrics also yield 0 for a
  // non-split. Any useful first condition must therefore score > 0.
  double current_value = 0.0;

  ConditionSearchOptions options;
  options.enable_range_conditions = enable_range_conditions;
  options.min_covered_weight = min_support_weight;

  ConditionScorer scorer = [&](const RuleStats& stats) {
    return metric.Evaluate(stats, dist);
  };

  while (max_length == 0 || rule.size() < max_length) {
    const auto candidate = engine.FindBest(covered, target, scorer, options);
    if (!candidate.has_value()) break;
    // Accept the refinement R1 over R only if the metric value improves
    // meaningfully (paper section 2.2); the support constraint is enforced
    // inside the search.
    if (!ClearsRefinementGain(candidate->value, current_value,
                              min_refinement_gain)) {
      break;
    }
    rule.AddCondition(candidate->condition);
    rule.train_stats = candidate->stats;
    current_value = candidate->value;
    covered = engine.CoveredRows(candidate->condition, covered);
    // All positives captured and no negatives left: nothing to refine.
    if (candidate->stats.negative() <= 0.0) break;
  }
  if (covered_rows != nullptr) *covered_rows = std::move(covered);
  return rule;
}

Rule GrowPresenceRule(const Dataset& dataset, const RowSubset& remaining,
                      CategoryId target, const RuleMetric& metric,
                      const ClassDistribution& dist, double min_support_weight,
                      size_t max_length, bool enable_range_conditions,
                      double min_refinement_gain) {
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  return GrowPresenceRule(engine, remaining, target, metric, dist,
                          min_support_weight, max_length,
                          enable_range_conditions, min_refinement_gain);
}

PPhaseResult RunPPhase(ConditionSearchEngine& engine, const RowSubset& rows,
                       CategoryId target, const PnruleConfig& config) {
  const Dataset& dataset = engine.dataset();
  PPhaseResult result;
  result.total_positive_weight = dataset.ClassWeight(rows, target);
  if (result.total_positive_weight <= 0.0) return result;

  const auto metric = MakeRuleMetric(config.metric);
  const double min_support_weight =
      config.min_support_fraction * result.total_positive_weight;
  const bool enable_range =
      config.enable_range_conditions && !config.legacy_mode;

  RowSubset remaining = rows;
  while (result.rules.size() < config.max_p_rules) {
    ClassDistribution dist;
    dist.positives = dataset.ClassWeight(remaining, target);
    dist.negatives = dataset.TotalWeight(remaining) - dist.positives;
    if (dist.positives <= 0.0) break;

    RowSubset covered;
    Rule rule = GrowPresenceRule(engine, remaining, target, *metric, dist,
                                 min_support_weight, config.max_p_rule_length,
                                 enable_range, config.min_refinement_gain,
                                 &covered);
    if (rule.empty() || rule.train_stats.positive <= 0.0) break;

    if (!config.legacy_mode &&
        result.coverage_fraction() >= config.min_coverage_fraction) {
      // Coverage goal met: only high-accuracy rules may still enter.
      if (rule.train_stats.accuracy() < config.p_accuracy_after_coverage) {
        break;
      }
    }

    result.covered_positive_weight += rule.train_stats.positive;
    result.rules.AddRule(std::move(rule));
    // Sequential covering: remove every record the rule supports (positive
    // and negative) before learning the next rule.
    result.covered_rows.insert(result.covered_rows.end(), covered.begin(),
                               covered.end());
    remaining = RowsOutside(remaining, covered);
  }
  return result;
}

PPhaseResult RunPPhase(const Dataset& dataset, const RowSubset& rows,
                       CategoryId target, const PnruleConfig& config) {
  ConditionSearchEngine engine(dataset, config.num_threads);
  return RunPPhase(engine, rows, target, config);
}

}  // namespace pnr
