// Multi-class PNrule via one-vs-rest decomposition.
//
// The SIGMOD paper studies the binary problem; its companion framework [1]
// applies the same two-phase models to multi-class data (with optional
// misclassification costs). This wrapper trains one binary PNrule model
// per class and predicts the class with the highest (optionally
// cost-weighted) score — falling back to the training-majority class when
// no model fires.
//
// The per-class models are independent, so Train can fan the class loop out
// over a thread pool (set_train_threads). Each binary learner is
// thread-count-invariant and writes only its own class slot, so the
// committee is bit-identical at any train_threads x num_threads
// combination. Inside a fanned-out class task the learner's condition
// search runs serially (a pool built inside a loop body spawns no workers,
// common/thread_pool.h), so live threads never exceed the outer width plus
// the caller; num_threads widens the search only on the serial class loop.

#ifndef PNR_PNRULE_MULTICLASS_H_
#define PNR_PNRULE_MULTICLASS_H_

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "pnrule/pnrule.h"

namespace pnr {

/// True iff `weight` may scale a committee class's scores: finite and >= 0,
/// so a weighted score stays a non-negative number.
inline bool IsValidClassWeight(double weight) {
  return std::isfinite(weight) && weight >= 0.0;
}

/// One-vs-rest committee of binary PNrule models.
class MultiClassPnruleClassifier {
 public:
  MultiClassPnruleClassifier(
      std::vector<std::optional<PnruleClassifier>> models,
      std::vector<double> class_weights, CategoryId default_class);

  /// Score of `cls` for the record: the binary model's score times the
  /// class's weight (0 for classes that had no trainable model).
  double Score(const Dataset& dataset, RowId row, CategoryId cls) const;

  /// Class with the highest score; the default class when every score is
  /// zero.
  CategoryId Classify(const Dataset& dataset, RowId row) const;

  /// Batched Classify over one compiled program holding every class's P-
  /// and N-list: each row block is bound once (its scattered rows gathered
  /// once per attribute, each distinct condition evaluated at most once),
  /// then the classes resolve in ascending order — P, then N on the
  /// P-matched rows, then weight * ScoreMatrix cell against the running
  /// best. Bit-identical to Classify (same weight multiply, same
  /// ascending-class strict-`>` tie-break). Zero-weight classes are skipped
  /// outright, as are rows no P-rule matched — their scores can never beat
  /// the non-negative running best.
  void ClassifyBatch(const Dataset& dataset, const RowId* rows, size_t count,
                     CategoryId* out,
                     const BatchScoreOptions& options = {}) const;

  /// Number of classes the committee was built over.
  size_t num_classes() const { return models_.size(); }

  /// The binary model for `cls` (nullptr when the class was untrainable,
  /// e.g. it had no training examples).
  const PnruleClassifier* model_for(CategoryId cls) const;

  CategoryId default_class() const { return default_class_; }

  /// The per-class score weights (always sized num_classes()).
  const std::vector<double>& class_weights() const { return class_weights_; }

 private:
  std::vector<std::optional<PnruleClassifier>> models_;  // by class id
  std::vector<double> class_weights_;
  CategoryId default_class_;
  /// Every class's lists: 2c is class c's P-list, 2c + 1 its N-list (both
  /// empty for a class without a model).
  CompiledRuleSet program_;
};

/// Outcome of one class's training attempt, for the training report.
struct ClassTrainStatus {
  CategoryId cls = 0;
  std::string class_name;
  size_t rows = 0;        ///< training examples of the class
  Status status;          ///< OK when a model was trained; why not otherwise
  size_t num_p_rules = 0;
  size_t num_n_rules = 0;
  double train_seconds = 0.0;  ///< wall clock (diagnostic only)
};

/// Per-class account of a one-vs-rest training run. Surfaces classes the
/// committee silently falls back on (no examples, degenerate, or learner
/// failure) instead of burying them in a `continue`.
struct MultiClassTrainReport {
  std::vector<ClassTrainStatus> classes;  ///< one entry per class id
  size_t trained = 0;                     ///< classes with a model
};

/// Trains one-vs-rest PNrule committees.
class MultiClassPnruleLearner {
 public:
  explicit MultiClassPnruleLearner(PnruleConfig config = {});

  /// Per-class score weights (misclassification-cost surrogate): the score
  /// of class c is multiplied by weights[c]. Empty = all 1. Train rejects
  /// a weight that is not finite and >= 0.
  void set_class_weights(std::vector<double> weights) {
    class_weights_ = std::move(weights);
  }

  /// Outer parallelism across classes: 1 = serial class loop (the
  /// default), 0 = hardware concurrency, n = up to n concurrent class
  /// learners. The committee is bit-identical for any value.
  void set_train_threads(size_t threads) { train_threads_ = threads; }

  /// Trains a binary model for every class of the schema that has at least
  /// one training example. Fails only if *no* class is trainable. When
  /// `report` is non-null it receives one entry per class — including the
  /// failure Status of every class the committee will fall back on — and
  /// is filled even when Train itself fails.
  StatusOr<MultiClassPnruleClassifier> Train(
      const Dataset& dataset, MultiClassTrainReport* report = nullptr) const;

 private:
  PnruleConfig config_;
  std::vector<double> class_weights_;
  size_t train_threads_ = 1;
};

/// Multiclass accuracy of `classifier` over all rows of `dataset`
/// (classified via the batched path; `options` tunes it).
double MultiClassAccuracy(const MultiClassPnruleClassifier& classifier,
                          const Dataset& dataset,
                          const BatchScoreOptions& options = {});

}  // namespace pnr

#endif  // PNR_PNRULE_MULTICLASS_H_
