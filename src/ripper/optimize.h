// RIPPER's steps: IREP* growth and pruning of one rule, then the set-level
// covering loop, global optimization pass (the "k" in RIPPERk) and MDL rule
// deletion, which work on coverage masks.

#ifndef PNR_RIPPER_OPTIMIZE_H_
#define PNR_RIPPER_OPTIMIZE_H_

#include <cstdint>
#include <vector>

#include "common/bitmask.h"
#include "common/rng.h"
#include "data/weight_counter.h"
#include "induction/condition_search.h"
#include "ripper/ripper.h"

namespace pnr {

/// Grows a rule over `grow_rows` by repeatedly adding the condition with the
/// highest FOIL information gain, starting from `seed` (empty for a fresh
/// rule; the current rule for RIPPER's "revision" variant). Growth stops
/// when the rule covers no negatives or no condition has positive gain.
Rule GrowRuleFoil(ConditionSearchEngine& engine, const RowSubset& grow_rows,
                  CategoryId target, const Rule& seed);

/// IREP* pruning: among all truncations of `rule` to a prefix of its
/// conditions (deleting a final sequence), returns the one maximizing
///   v(R) = (p - n) / (p + n)
/// on `prune_rows`. Ties prefer the shorter rule. May return an empty rule
/// (rejected later by the error gate). The returned rule's train_stats hold
/// its prune-set coverage, summed in `prune_rows` order.
Rule PruneRuleIrep(const Dataset& dataset, const RowSubset& prune_rows,
                   CategoryId target, const Rule& rule);

/// A RIPPER rule list and each rule's coverage of the training rows as a
/// BitMask (bit i stands for rows[i]), built once per rule. Contexts,
/// description lengths and decision-list stats are mask algebra over these.
class CoveredRuleSet {
 public:
  /// `dataset` and `rows` must outlive the object.
  CoveredRuleSet(const Dataset& dataset, const RowSubset& rows,
                 CategoryId target, double possible_conditions);

  const RuleSet& rules() const { return rules_; }
  CategoryId target() const { return target_; }

  /// The coverage mask of any rule.
  BitMask MaskOf(const Rule& rule) const;
  void Add(Rule rule, BitMask mask);
  /// Exchanges rule `index` and its mask with `*rule` and `*mask`.
  void Swap(size_t index, Rule* rule, BitMask* mask);
  void Remove(size_t index);

  /// The rows no rule other than rule `skip` covers (no rule at all by
  /// default).
  BitMask Uncovered(size_t skip = SIZE_MAX) const;
  /// Weight and target-class weight of the rows of `mask`.
  RuleStats Stats(const BitMask& mask) const;
  /// The rows of `mask`, in training-row order.
  RowSubset RowsOf(const BitMask& mask) const;
  /// MaskDescriptionLength of the set without rule `skip` (of the whole
  /// set by default).
  double DescriptionLength(size_t skip = SIZE_MAX) const;
  /// The rule list, each rule's train_stats the weight it wins under
  /// first-match semantics (what the classifier's Laplace score uses).
  RuleSet DecisionList() const;

 private:
  WeightCounter counter_;
  CategoryId target_;
  double possible_conditions_;
  BitMask positive_;  ///< bit i set iff rows[i] is of the target class
  RuleSet rules_;
  std::vector<BitMask> masks_;  ///< masks_[i]: coverage of rules_.rule(i)
};

/// IREP* covering loop: appends rules to `rules` learned from the rows of
/// `remaining` until the MDL window or the prune-error gate stops it.
/// Exposed so the optimization pass can cover residual positives.
void CoverPositives(ConditionSearchEngine& engine, BitMask remaining,
                    const RipperConfig& config, Rng* rng,
                    CoveredRuleSet* rules);

/// One optimization pass: for every rule, construct a *replacement* (grown
/// and pruned from scratch) and a *revision* (the rule grown further, then
/// pruned), and keep whichever of {original, replacement, revision}
/// minimizes the description length of the whole rule set. Afterwards any
/// positives left uncovered are covered by additional IREP* rules, and rules
/// whose deletion reduces the DL are removed.
void OptimizeRuleSet(ConditionSearchEngine& engine, const RipperConfig& config,
                     Rng* rng, CoveredRuleSet* rules);

/// Removes (greedily, scanning from the last rule backwards) every rule
/// whose deletion reduces the rule set's description length.
void DeleteHarmfulRules(CoveredRuleSet* rules);

}  // namespace pnr

#endif  // PNR_RIPPER_OPTIMIZE_H_
