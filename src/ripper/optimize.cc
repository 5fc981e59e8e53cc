#include "ripper/optimize.h"

#include <algorithm>
#include <utility>

#include "data/weighting.h"
#include "induction/mdl.h"
#include "induction/metric.h"
#include "rules/compiled_rule_set.h"

namespace pnr {
namespace {

// The coverage of every prefix of `rule` over `rows`: bit i of result[k] is
// set iff rows[i] satisfies the first k conditions, so result.back() is the
// rule's coverage. One CompiledRuleSet column sweep per distinct condition.
std::vector<BitMask> PrefixCoverage(const Dataset& dataset,
                                    const RowSubset& rows, const Rule& rule) {
  const CompiledRuleSet program = CompiledRuleSet::Compile(RuleSet({rule}));
  const std::vector<BitMask> masks =
      program.ConditionMasks(dataset, rows.data(), rows.size());
  std::vector<BitMask> prefixes;
  prefixes.emplace_back(rows.size(), true);
  for (const Condition& condition : rule.conditions()) {
    prefixes.push_back(prefixes.back() &
                       masks[static_cast<size_t>(
                           program.ConditionIndex(condition))]);
  }
  return prefixes;
}

}  // namespace

Rule GrowRuleFoil(ConditionSearchEngine& engine, const RowSubset& grow_rows,
                  CategoryId target, const Rule& seed) {
  const Dataset& dataset = engine.dataset();
  Rule rule = seed;
  RowSubset covered = grow_rows;
  for (const Condition& condition : rule.conditions()) {
    covered = engine.CoveredRows(condition, covered);
  }
  // `covered` keeps grow_rows' order, so these are the row walk's sums.
  RuleStats parent{dataset.TotalWeight(covered),
                   dataset.ClassWeight(covered, target)};

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

Rule PruneRuleIrep(const Dataset& dataset, const RowSubset& prune_rows,
                   CategoryId target, const Rule& rule) {
  // Evaluate every prefix (deleting a final sequence of conditions).
  // v(R) = (p - n) / (p + n) over the prune set; for the prefix of length 0
  // the rule covers everything.
  const WeightCounter counter(dataset, prune_rows);
  const BitMask positive = ClassMask(dataset, prune_rows, target);
  const std::vector<BitMask> prefixes =
      PrefixCoverage(dataset, prune_rows, rule);
  double best_value = -2.0;
  size_t best_length = rule.size();
  RuleStats best_stats;
  for (size_t len = 0; len <= rule.size(); ++len) {
    const RuleStats stats{counter.Weight(prefixes[len]),
                          counter.WeightAnd(prefixes[len], positive)};
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

CoveredRuleSet::CoveredRuleSet(const Dataset& dataset, const RowSubset& rows,
                               CategoryId target, double possible_conditions)
    : counter_(dataset, rows),
      target_(target),
      possible_conditions_(possible_conditions),
      positive_(ClassMask(dataset, rows, target)) {}

BitMask CoveredRuleSet::MaskOf(const Rule& rule) const {
  return std::move(
      PrefixCoverage(*counter_.dataset, *counter_.rows, rule).back());
}

void CoveredRuleSet::Add(Rule rule, BitMask mask) {
  rules_.AddRule(std::move(rule));
  masks_.push_back(std::move(mask));
}

void CoveredRuleSet::Swap(size_t index, Rule* rule, BitMask* mask) {
  std::swap(rules_.mutable_rule(index), *rule);
  std::swap(masks_[index], *mask);
}

void CoveredRuleSet::Remove(size_t index) {
  rules_.RemoveRule(index);
  masks_.erase(masks_.begin() + static_cast<std::ptrdiff_t>(index));
}

BitMask CoveredRuleSet::Uncovered(size_t skip) const {
  BitMask uncovered(counter_.rows->size(), true);
  for (size_t i = 0; i < masks_.size(); ++i) {
    if (i != skip) uncovered.AndNot(masks_[i]);
  }
  return uncovered;
}

RuleStats CoveredRuleSet::Stats(const BitMask& mask) const {
  return {counter_.Weight(mask), counter_.WeightAnd(mask, positive_)};
}

RowSubset CoveredRuleSet::RowsOf(const BitMask& mask) const {
  RowSubset out;
  mask.ForEachSet([&](size_t i) { out.push_back((*counter_.rows)[i]); });
  return out;
}

double CoveredRuleSet::DescriptionLength(size_t skip) const {
  std::vector<size_t> sizes;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (i != skip) sizes.push_back(rules_.rule(i).size());
  }
  return MaskDescriptionLength(counter_, positive_, Uncovered(skip), sizes,
                               possible_conditions_);
}

RuleSet CoveredRuleSet::DecisionList() const {
  RuleSet list = rules_;
  BitMask unclaimed(counter_.rows->size(), true);
  for (size_t i = 0; i < masks_.size(); ++i) {
    list.mutable_rule(i).train_stats = Stats(unclaimed & masks_[i]);
    unclaimed.AndNot(masks_[i]);
  }
  return list;
}

void CoverPositives(ConditionSearchEngine& engine, BitMask remaining,
                    const RipperConfig& config, Rng* rng,
                    CoveredRuleSet* rules) {
  const Dataset& dataset = engine.dataset();
  const CategoryId target = rules->target();
  double min_dl = rules->DescriptionLength();

  while (rules->rules().size() < config.max_rules &&
         rules->Stats(remaining).positive > 0.0) {
    auto [grow_rows, prune_rows] =
        StratifiedSplitRows(dataset, rules->RowsOf(remaining), target,
                            config.grow_fraction, rng);
    Rule rule = GrowRuleFoil(engine, grow_rows, target, Rule());
    rule = PruneRuleIrep(dataset, prune_rows, target, rule);
    if (rule.empty()) break;

    // Prune-set error gate (Cohen): reject rules that are wrong more often
    // than not on held-out data, and stop adding rules.
    const RuleStats prune_stats = rule.train_stats;  // set by PruneRuleIrep
    if (prune_stats.covered > 0.0 &&
        prune_stats.negative() / prune_stats.covered >=
            config.max_prune_error_rate) {
      break;
    }

    BitMask mask = rules->MaskOf(rule);
    rule.train_stats = rules->Stats(remaining & mask);
    if (rule.train_stats.positive <= 0.0) break;

    remaining.AndNot(mask);
    rules->Add(std::move(rule), std::move(mask));
    const double dl = rules->DescriptionLength();
    if (dl > min_dl + config.mdl_window_bits) {
      rules->Remove(rules->rules().size() - 1);
      break;
    }
    min_dl = std::min(min_dl, dl);
  }
}

void DeleteHarmfulRules(CoveredRuleSet* rules) {
  double current_dl = rules->DescriptionLength();
  for (size_t i = rules->rules().size(); i-- > 0;) {
    const double dl = rules->DescriptionLength(/*skip=*/i);
    if (dl < current_dl) {
      rules->Remove(i);
      current_dl = dl;
    }
  }
}

void OptimizeRuleSet(ConditionSearchEngine& engine, const RipperConfig& config,
                     Rng* rng, CoveredRuleSet* rules) {
  const Dataset& dataset = engine.dataset();
  const CategoryId target = rules->target();
  for (size_t i = 0; i < rules->rules().size(); ++i) {
    // The rule's niche: records no *other* rule covers. The replacement and
    // revision are grown/pruned on this context so they compete for the
    // same part of the space.
    const BitMask context = rules->Uncovered(i);
    if (rules->Stats(context).positive <= 0.0) continue;

    auto [grow_rows, prune_rows] =
        StratifiedSplitRows(dataset, rules->RowsOf(context), target,
                            config.grow_fraction, rng);

    Rule replacement = GrowRuleFoil(engine, grow_rows, target, Rule());
    replacement = PruneRuleIrep(dataset, prune_rows, target, replacement);

    Rule revision =
        GrowRuleFoil(engine, grow_rows, target, rules->rules().rule(i));
    revision = PruneRuleIrep(dataset, prune_rows, target, revision);

    // Choose among {original, replacement, revision} by the DL of the whole
    // rule set with the variant swapped in; one that does not lower it is
    // swapped back out.
    double best_dl = rules->DescriptionLength();
    for (Rule* variant : {&replacement, &revision}) {
      if (variant->empty()) continue;
      BitMask mask = rules->MaskOf(*variant);
      rules->Swap(i, variant, &mask);
      const double dl = rules->DescriptionLength();
      if (dl < best_dl) {
        best_dl = dl;
      } else {
        rules->Swap(i, variant, &mask);
      }
    }
  }

  // Cover any positives the optimized rules no longer reach.
  CoverPositives(engine, rules->Uncovered(), config, rng, rules);
  DeleteHarmfulRules(rules);
}

}  // namespace pnr
