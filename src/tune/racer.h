// Configuration racing with successive halving and best-arm-identification
// style confidence-bound elimination.
//
// The racer evaluates hyperparameter configurations over stratified K-fold
// cross-validation, cheaply at first and precisely for the survivors: rung
// r scores every surviving configuration on a growing prefix of the folds
// (1, 2, 4, ..., K), then eliminates losers two ways before the next rung
// spends anything on them:
//
//   * confidence-bound (BAI) elimination — a configuration whose upper
//     bound mean + radius falls below the best lower bound mean - radius
//     cannot be the best arm at this confidence and is dropped. The radius
//     is the empirical-Bernstein-style  z * s / sqrt(n) + 0.5 / n  (metric
//     range 1), so single-fold estimates are never trusted enough to kill
//     an arm on their own;
//   * successive halving — of the remainder, only the top
//     ceil(survivors * keep_fraction) by mean advance (ties keep the lower
//     config index), which bounds total work at roughly
//     O(num_configs + K * log(num_configs)) fold-evaluations instead of
//     the full num_configs * K grid.
//
// Determinism contract: the race is a pure function of (dataset, configs,
// options). Fold assignment is seed-deterministic (eval/stratified_cv.h),
// training and scoring are bit-identical at any thread count, per-rung
// results are reduced in config-index order, and every elimination decision
// reads only completed-rung statistics — so the survivor set, the winner,
// and the rendered artifacts are byte-identical for any `num_threads`.
// Threads change speed, never bytes.
//
// Threading shape: rung tasks (config x new-fold pairs) fan out over one
// outer ThreadPool of min(num_threads, configs) threads. A task's training
// and scoring run inside a loop body, so their own pools spawn no workers
// (common/thread_pool.h): the inner searches run serially and the outer
// width caps live threads instead of multiplying them.

#ifndef PNR_TUNE_RACER_H_
#define PNR_TUNE_RACER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/classifier.h"

#include "common/status.h"
#include "data/dataset.h"
#include "tune/config_space.h"

namespace pnr {

/// Metric the race optimizes (always reported alongside the other two).
enum class TuneMetric { kRecall, kPrecision, kFMeasure };

/// Canonical name ("recall", "precision", "f-measure").
const char* TuneMetricName(TuneMetric metric);

/// Parses "recall" / "precision" / "f" / "f-measure"; false when unknown.
bool ParseTuneMetric(std::string_view text, TuneMetric* out);

/// Racer controls.
struct RacerOptions {
  /// Stratified CV folds K (the final rung evaluates survivors on all K).
  size_t num_folds = 5;
  /// Seed for the fold split; also recorded in artifacts.
  uint64_t seed = 20010521;
  /// Objective the elimination rules compare.
  TuneMetric metric = TuneMetric::kFMeasure;
  /// Maximum total (config, fold) evaluations; 0 = unlimited. A rung that
  /// does not fit in the remainder is not started, so the cap is never
  /// exceeded. Must cover at least rung 0 (num_configs evaluations).
  size_t max_evals = 0;
  /// Confidence-bound multiplier z; <= 0 disables CB elimination.
  double confidence_z = 2.0;
  /// Fraction of survivors successive halving keeps per rung, in (0, 1];
  /// 1.0 disables halving (pure CB racing).
  double keep_fraction = 0.5;
  /// Threads for the race's outer (config, fold) fan-out; the learners
  /// inside each task run serially. 0 = hardware concurrency.
  size_t num_threads = 1;

  Status Validate() const;
};

/// Per-fold evaluation of one configuration.
struct FoldEval {
  double recall = 0.0;
  double precision = 0.0;
  double f_measure = 0.0;
};

/// Marks a trial that survived to the end of the race.
inline constexpr size_t kNeverEliminated = static_cast<size_t>(-1);

/// Running state of one configuration in the race.
struct TrialState {
  size_t config_index = 0;
  /// Evaluations on folds 0..n-1 (the schedule's fold order).
  std::vector<FoldEval> folds;
  /// Rung after which the trial was eliminated; kNeverEliminated if it
  /// survived every rung it was offered.
  size_t eliminated_at_rung = kNeverEliminated;
  /// Statistics on the objective metric over the evaluated folds.
  double mean = 0.0;
  double stddev = 0.0;     ///< sample standard deviation (0 for n < 2)
  double radius = 0.0;     ///< last confidence radius (0 when CB disabled)
};

/// Per-rung accounting.
struct RungSummary {
  size_t folds_cumulative = 0;  ///< folds per survivor after this rung
  size_t entrants = 0;          ///< configs evaluated in this rung
  size_t evals = 0;             ///< new (config, fold) evaluations spent
  size_t eliminated_bound = 0;  ///< dropped by confidence bounds
  size_t eliminated_halving = 0;  ///< dropped by successive halving
};

/// Outcome of a race.
struct RaceResult {
  std::vector<TrialState> trials;  ///< index-aligned with the input configs
  std::vector<RungSummary> rungs;
  size_t best_config = 0;  ///< highest final mean among survivors
  size_t evals_used = 0;
  /// True when max_evals stopped the race before the full schedule ran.
  bool budget_exhausted = false;
};

/// Trains the classifier a trial describes — a PNrule model or a CBA-mined
/// associative classifier — on `rows` of `dataset` with `num_threads`
/// workers, and applies the trial's threshold. Shared by the racer's fold
/// evaluations and the CLI's held-out contender path, so both train
/// bit-identical models.
StatusOr<std::unique_ptr<BinaryClassifier>> TrainTrialClassifier(
    const TrialConfig& trial, const Dataset& dataset, const RowSubset& rows,
    CategoryId target, size_t num_threads);

/// Evaluates one configuration on one fold. Must be thread-safe and
/// deterministic per (config_index, fold) — the racer may invoke it from
/// pool workers in any order.
using TrialEvalFn =
    std::function<StatusOr<FoldEval>(const TrialConfig& config,
                                     size_t config_index, size_t fold)>;

/// The configuration-racing engine.
class Racer {
 public:
  explicit Racer(RacerOptions options) : options_(std::move(options)) {}

  const RacerOptions& options() const { return options_; }

  /// Full pipeline: stratified folds over `dataset`, one PNrule training +
  /// held-out evaluation per (config, fold), racing on `options.metric`
  /// with `target` as the positive class.
  StatusOr<RaceResult> Race(const Dataset& dataset, CategoryId target,
                            const std::vector<TrialConfig>& configs) const;

  /// The race loop with an injected evaluator (tests plug deterministic
  /// synthetic arms in here; Race uses it with the real trainer).
  StatusOr<RaceResult> RaceWithEval(const std::vector<TrialConfig>& configs,
                                    const TrialEvalFn& eval) const;

  /// Cumulative-fold rung schedule: 1, 2, 4, ... doubling up to
  /// `num_folds` (always ends exactly at num_folds).
  static std::vector<size_t> RungSchedule(size_t num_folds);

 private:
  RacerOptions options_;
};

}  // namespace pnr

#endif  // PNR_TUNE_RACER_H_
