#include "ripper/grow_prune.h"

#include "induction/condition_search.h"
#include "induction/metric.h"

namespace pnr {

Rule GrowRuleFoil(ConditionSearchEngine& engine, const RowSubset& grow_rows,
                  CategoryId target, const Rule& seed) {
  const Dataset& dataset = engine.dataset();
  Rule rule = seed;
  RowSubset covered = grow_rows;
  for (const Condition& condition : rule.conditions()) {
    covered = engine.CoveredRows(condition, covered);
  }
  RuleStats parent = rule.Evaluate(dataset, grow_rows, target);

  ConditionSearchOptions options;
  // RIPPER considers single-sided numeric tests only.
  options.enable_range_conditions = false;
  // A refinement must keep at least some positive coverage to have gain.
  options.min_positive_weight = 1e-9;

  for (;;) {
    if (parent.covered > 0.0 && parent.negative() <= 0.0) break;  // pure
    ConditionScorer scorer = [&parent](const RuleStats& refined) {
      return FoilGain(parent, refined);
    };
    const auto candidate = engine.FindBest(covered, target, scorer, options);
    if (!candidate.has_value() || candidate->value <= 0.0) break;
    rule.AddCondition(candidate->condition);
    covered = engine.CoveredRows(candidate->condition, covered);
    parent = candidate->stats;
    rule.train_stats = parent;
  }
  return rule;
}

Rule GrowRuleFoil(const Dataset& dataset, const RowSubset& grow_rows,
                  CategoryId target, const Rule& seed) {
  ConditionSearchEngine engine(dataset, /*num_threads=*/1);
  return GrowRuleFoil(engine, grow_rows, target, seed);
}

Rule PruneRuleIrep(const Dataset& dataset, const RowSubset& prune_rows,
                   CategoryId target, const Rule& rule) {
  // Evaluate every prefix (deleting a final sequence of conditions).
  // v(R) = (p - n) / (p + n) over the prune set; for the prefix of length 0
  // the rule covers everything.
  double best_value = -2.0;
  size_t best_length = rule.size();
  RuleStats best_stats;
  Rule prefix;
  // Walk lengths from 0 upward, reusing coverage refinement.
  RowSubset covered = prune_rows;
  for (size_t len = 0; len <= rule.size(); ++len) {
    if (len > 0) {
      prefix.AddCondition(rule.conditions()[len - 1]);
      RowSubset next;
      next.reserve(covered.size());
      const Condition& condition = rule.conditions()[len - 1];
      for (RowId row : covered) {
        if (condition.Matches(dataset, row)) next.push_back(row);
      }
      covered = std::move(next);
    }
    RuleStats stats;
    for (RowId row : covered) {
      const double w = dataset.weight(row);
      stats.covered += w;
      if (dataset.label(row) == target) stats.positive += w;
    }
    if (stats.covered <= 0.0) continue;
    const double value =
        (stats.positive - stats.negative()) / stats.covered;
    // Strictly-greater keeps the shortest rule among ties, maximizing
    // generalization (Cohen prefers the more general rule on ties).
    if (value > best_value) {
      best_value = value;
      best_length = len;
      best_stats = stats;
    }
  }
  Rule pruned = rule;
  pruned.TruncateTo(best_length);
  pruned.train_stats = best_stats;
  return pruned;
}

}  // namespace pnr
