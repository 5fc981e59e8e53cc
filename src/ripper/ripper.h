// RIPPER (Cohen 1995): the paper's primary baseline, reimplemented from the
// published algorithm description.
//
// For the binary rare-class setting RIPPER learns rules for the minority
// (target) class with "not target" as the default. Each rule is grown on a
// random 2/3 of the remaining data (maximizing FOIL information gain) and
// immediately pruned on the other 1/3 (maximizing (p - n) / (p + n));
// rule addition stops via the 64-bit MDL window, and k global optimization
// passes (k = 2, i.e. RIPPER2) revise or replace each rule. See DESIGN.md
// for the documented simplifications relative to Cohen's C implementation.

#ifndef PNR_RIPPER_RIPPER_H_
#define PNR_RIPPER_RIPPER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/classifier.h"
#include "rules/compiled_rule_set.h"
#include "rules/rule_set.h"

namespace pnr {

/// RIPPER parameters (defaults follow the recommended settings the paper
/// says it used for the comparison).
struct RipperConfig {
  /// Number of global optimization passes (2 == RIPPER2, Cohen's default).
  size_t optimization_passes = 2;

  /// Fraction of the remaining data used to grow a rule; the rest prunes it.
  double grow_fraction = 2.0 / 3.0;

  /// MDL stop window in bits.
  double mdl_window_bits = 64.0;

  /// A pruned rule whose error rate on the prune set exceeds this is
  /// rejected and rule addition stops.
  double max_prune_error_rate = 0.5;

  /// Seed for the grow/prune splits.
  uint64_t seed = 42;

  /// Safety cap on the number of rules.
  size_t max_rules = 256;

  /// Threads used by the condition-search engine during rule growth:
  /// 1 = serial, 0 = hardware concurrency. Any value produces bit-identical
  /// models (deterministic parallel reduction).
  size_t num_threads = 1;

  Status Validate() const;
};

/// A trained RIPPER model: an ordered rule list for the target class with an
/// implicit negative default.
class RipperClassifier : public BinaryClassifier {
 public:
  explicit RipperClassifier(RuleSet rules);

  /// Laplace-smoothed training precision of the first matching rule;
  /// 0 when no rule matches (default class).
  double Score(const Dataset& dataset, RowId row) const override;

  /// Compiled fast path: block-wise first match through the matcher
  /// program, then a per-rule score table lookup. Bit-identical to Score.
  void ScoreBatch(const Dataset& dataset, const RowId* rows, size_t count,
                  double* out,
                  const BatchScoreOptions& options = {}) const override;

  std::string Describe(const Schema& schema) const override;

  const RuleSet& rules() const { return rules_; }

 private:
  RuleSet rules_;
  CompiledRuleSet compiled_;          ///< matcher program for rules_
  std::vector<double> rule_scores_;   ///< per-rule Laplace precision
};

/// Trains RIPPER models.
class RipperLearner {
 public:
  explicit RipperLearner(RipperConfig config = {});

  const RipperConfig& config() const { return config_; }

  /// Learns a binary model for `target` from all rows of `dataset`.
  StatusOr<RipperClassifier> Train(const Dataset& dataset,
                                   CategoryId target) const;

  /// Learns from an explicit subset of rows.
  StatusOr<RipperClassifier> TrainOnRows(const Dataset& dataset,
                                         const RowSubset& rows,
                                         CategoryId target) const;

 private:
  RipperConfig config_;
};

}  // namespace pnr

#endif  // PNR_RIPPER_RIPPER_H_
