// Distribution-drift detection for the streaming scorer.
//
// A 0.1%-positive stream starves error-rate monitors — windowed accuracy
// barely moves when the rare class mutates — so the detector watches the
// *input* and *score* distributions instead:
//
//   * numeric features: an equi-depth histogram whose bin edges are
//     quantiles of a reference sample (first `reference_windows` windows
//     after each baseline reset, capped at `max_reference_values` values
//     per attribute, taken in stream order so the reference is
//     deterministic);
//   * categorical features: per-category frequency counts plus an "unseen
//     value" bucket — dictionary misses are exactly what a novel attack
//     subclass produces;
//   * model scores: the fixed kStreamScoreBins histogram of window.h,
//     which catches calibration shift even when no single feature moves;
//   * the delayed-label positive rate: a two-bin target-vs-rest histogram
//     over the rows whose labels have arrived. This is the channel that
//     actually fires on a rare-class surge — when the positive rate moves
//     from 0.2% to 5% the *marginal* feature distributions barely budge
//     (the needle is 5% of the haystack and reuses its feature values),
//     but the label-rate PSI jumps two orders of magnitude above its
//     noise floor, so it gets its own, much lower threshold.
//
// Each completed window is compared to the reference with the Population
// Stability Index, PSI = sum_i (q_i - p_i) * ln(q_i / p_i) over smoothed
// bin frequencies (0.5 pseudo-count, so empty bins never divide by zero).
// A window is "over threshold" when any feature PSI exceeds psi_threshold
// or the score PSI exceeds score_psi_threshold; drift is *confirmed* only
// after `confirm_windows` consecutive over-threshold windows (hysteresis —
// one noisy window never flaps the retrain loop). After the orchestrator
// acts (swap or failed retrain), ResetBaseline() rebuilds the reference
// from post-action traffic, which doubles as the retrain cooldown.
//
// The whole detector state serializes to a line-oriented text blob
// ("pnr-stream-drift v1") embedded in the stream checkpoint; Restore is
// strict with located errors, and serialize-restore-serialize is a
// fixpoint (fuzzed via the `stream` target).

#ifndef PNR_STREAM_DRIFT_H_
#define PNR_STREAM_DRIFT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "stream/window.h"

namespace pnr {

struct DriftOptions {
  /// Windows that build the reference after each baseline reset.
  size_t reference_windows = 4;
  /// Per-feature PSI trigger.
  double psi_threshold = 0.25;
  /// Score-histogram PSI trigger.
  double score_psi_threshold = 0.25;
  /// Labeled positive-rate PSI trigger (two bins, so the noise floor is
  /// far lower than the feature channels' — see the header comment).
  double label_psi_threshold = 0.05;
  /// Consecutive over-threshold windows required to confirm drift.
  size_t confirm_windows = 2;
  /// Bins of the numeric equi-depth histograms.
  size_t numeric_bins = 8;
  /// Per-attribute cap on reference sample values (bounds checkpoint size).
  size_t max_reference_values = 4096;
};

class DriftDetector {
 public:
  /// What one Observe() concluded. All fields are pure functions of the
  /// rows observed since construction/restore — never of timing.
  struct WindowReport {
    bool warmup = false;  ///< window went into the reference, no comparison
    double max_feature_psi = 0.0;
    AttrIndex worst_attr = -1;  ///< arg-max feature (-1 during warmup)
    double score_psi = 0.0;
    double label_psi = 0.0;  ///< 0 when the window had no labeled rows
    bool over_threshold = false;
    size_t consecutive = 0;  ///< current over-threshold streak
    bool confirmed = false;  ///< streak reached confirm_windows
  };

  /// `schema` must outlive the detector.
  DriftDetector(const Schema* schema, DriftOptions options);

  /// Folds one completed window in: `rows[0..count)` index `dataset` (the
  /// engine's rolling buffer), `scores[i]` is the model score of rows[i].
  /// Labels come from the dataset (kInvalidCategory = not yet arrived);
  /// `target` selects the positive bin of the label-rate channel.
  WindowReport Observe(const Dataset& dataset, const RowId* rows,
                       size_t count, const double* scores,
                       CategoryId target);

  /// Discards the reference and streak; the next `reference_windows`
  /// observed windows rebuild it. Called after every swap or failed
  /// retrain (cooldown).
  void ResetBaseline();

  bool baseline_ready() const { return ready_; }
  size_t warmup_windows_seen() const { return warmup_seen_; }
  size_t consecutive_over() const { return consecutive_; }
  uint64_t resets() const { return resets_; }
  const DriftOptions& options() const { return options_; }

  /// Renders the full detector state as the v1 text blob.
  std::string Serialize() const;

  /// Replaces this detector's state from a v1 blob. The blob must agree
  /// with the schema and options the detector was constructed with;
  /// malformed or inconsistent input fails with a located error
  /// ("stream-drift parse error at line N: ...", common/line_format.h) and
  /// leaves the detector unchanged.
  Status Restore(const std::string& text);

 private:
  struct NumericState {
    std::vector<double> sample;    ///< warmup values (stream order, capped)
    std::vector<double> edges;     ///< numeric_bins - 1 ascending cut points
    std::vector<uint64_t> counts;  ///< reference counts per bin
  };
  struct CategoricalState {
    std::vector<uint64_t> counts;  ///< num_categories + 1 ("unseen" last)
  };

  void FinalizeBaseline();
  size_t NumericBin(const NumericState& state, double value) const;

  const Schema* schema_;
  DriftOptions options_;
  std::vector<NumericState> numeric_;          ///< indexed by attr
  std::vector<CategoricalState> categorical_;  ///< indexed by attr
  std::vector<uint64_t> score_counts_;         ///< kStreamScoreBins
  std::vector<uint64_t> label_counts_;         ///< {target, other-labeled}
  bool ready_ = false;
  size_t warmup_seen_ = 0;
  size_t consecutive_ = 0;
  uint64_t resets_ = 0;
};

/// Smoothed PSI between a reference and a window count vector of equal
/// length (0.5 pseudo-count per bin). Exposed for tests.
double SmoothedPsi(const std::vector<uint64_t>& reference,
                   const std::vector<uint64_t>& window);

}  // namespace pnr

#endif  // PNR_STREAM_DRIFT_H_
