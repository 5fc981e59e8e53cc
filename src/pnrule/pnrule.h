// PNrule: the paper's two-phase rule-induction learner and its classifier.
//
// Usage:
//   PnruleConfig config;            // rp/rn and other controls
//   PnruleLearner learner(config);
//   auto model = learner.Train(train, target_class_id);
//   if (model.ok()) {
//     bool is_target = model->Predict(test, row);
//     double prob = model->Score(test, row);
//   }

#ifndef PNR_PNRULE_PNRULE_H_
#define PNR_PNRULE_PNRULE_H_

#include <string>

#include "eval/classifier.h"
#include "pnrule/config.h"
#include "pnrule/score_matrix.h"
#include "rules/compiled_rule_set.h"
#include "rules/rule_set.h"

namespace pnr {

class ConditionSearchEngine;

/// A trained PNrule model: ranked P-rules, ranked N-rules and the
/// ScoreMatrix that arbitrates their combinations.
class PnruleClassifier : public BinaryClassifier {
 public:
  /// The lists of the model's matcher program (and ScoreMatrix::Build's).
  static constexpr size_t kPList = 0;
  static constexpr size_t kNList = 1;

  PnruleClassifier(RuleSet p_rules, RuleSet n_rules, ScoreMatrix scores,
                   bool use_score_matrix);

  /// Classification strategy (paper section 2.3): apply P-rules in ranked
  /// order; if none applies the score is 0. Otherwise apply N-rules in
  /// ranked order and return the ScoreMatrix entry for the (first P-rule,
  /// first N-rule) combination.
  double Score(const Dataset& dataset, RowId row) const override;

  /// The score of a row whose first matching P-rule is `p` (not kNoRule)
  /// and first matching N-rule is `n` (kNoRule when none matches).
  double ScoreOf(int32_t p, int32_t n) const {
    if (!use_score_matrix_) return n == kNoRule ? 1.0 : 0.0;
    const size_t n_index =
        n == kNoRule ? n_rules_.size() : static_cast<size_t>(n);
    return scores_.Score(static_cast<size_t>(p), n_index);
  }

  /// Compiled fast path: first-match P and N resolution runs
  /// column-at-a-time per row block over one program holding both lists
  /// (rules/compiled_rule_set.h), the ScoreMatrix lookup per block.
  /// Bit-identical to Score per row.
  void ScoreBatch(const Dataset& dataset, const RowId* rows, size_t count,
                  double* out,
                  const BatchScoreOptions& options = {}) const override;

  std::string Describe(const Schema& schema) const override;

  const RuleSet& p_rules() const { return p_rules_; }
  const RuleSet& n_rules() const { return n_rules_; }
  const ScoreMatrix& score_matrix() const { return scores_; }
  bool use_score_matrix() const { return use_score_matrix_; }

 private:
  RuleSet p_rules_;
  RuleSet n_rules_;
  ScoreMatrix scores_;
  bool use_score_matrix_;
  /// Matcher program: list kPList is p_rules_, list kNList n_rules_.
  CompiledRuleSet program_;
};

/// Diagnostic summary of a training run.
struct PnruleTrainInfo {
  size_t num_p_rules = 0;
  size_t num_n_rules = 0;
  /// Fraction of the target class covered by P-rules (upper recall bound).
  double p_coverage_fraction = 0.0;
  /// Target-class weight erased by N-rules on the training set.
  double erased_positive_weight = 0.0;
};

/// Trains PNrule models.
class PnruleLearner {
 public:
  explicit PnruleLearner(PnruleConfig config = {});

  const PnruleConfig& config() const { return config_; }

  /// Learns a binary model for `target` from all rows of `dataset`.
  StatusOr<PnruleClassifier> Train(const Dataset& dataset,
                                   CategoryId target) const;

  /// Learns from an explicit subset of rows. `info`, when non-null,
  /// receives training diagnostics. Builds a search engine from the
  /// config's num_threads and search_cache_budget_bytes and delegates to
  /// the engine overload.
  StatusOr<PnruleClassifier> TrainOnRows(const Dataset& dataset,
                                         const RowSubset& rows,
                                         CategoryId target,
                                         PnruleTrainInfo* info = nullptr) const;

  /// Learns over `rows` of `engine`'s dataset, searching and computing
  /// coverage through `engine`. Models are identical to the dataset
  /// overload's; an engine shared by several runs (e.g. every class of a
  /// one-vs-rest committee) sorts and reads each column once for all.
  StatusOr<PnruleClassifier> TrainOnRows(ConditionSearchEngine& engine,
                                         const RowSubset& rows,
                                         CategoryId target,
                                         PnruleTrainInfo* info = nullptr) const;

 private:
  PnruleConfig config_;
};

}  // namespace pnr

#endif  // PNR_PNRULE_PNRULE_H_
