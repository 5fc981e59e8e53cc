// StreamEngine: the `pnr stream` core loop tying the feed parser, windowed
// scorer, drift detector, and retrain orchestrator together.
//
// The engine owns a rolling in-RAM buffer of recent rows. Ingest() appends
// schema-valid rows (from a FeedParser callback); Pump() processes every
// complete tumbling window: score through the current model, fold window
// metrics, feed the drift detector, and — on a confirmed drift — hand the
// trailing labeled rows to the retrain orchestrator.
//
// Determinism contract (pinned by tests/stream_test.cc): the journal, every
// retrained model file, and the registry swap sequence are byte-identical
// at any --threads and any feed fragmentation. Three rules make that hold:
//
//   * window boundaries are row ordinals (window w = ordinals
//     [w*window_rows, (w+1)*window_rows)), never poll timing;
//   * a retrain's training set is the trailing labeled rows *at or before
//     the confirming window's end ordinal* — rows that happen to be
//     buffered past the boundary are invisible to it;
//   * while a retrain is in flight, window *processing* defers (ingestion
//     continues — the feed never stalls and the buffer keeps absorbing
//     rows); deferred windows are processed after the hand-off, so window
//     W+1 onward is always scored by the post-swap model no matter how
//     long training took. The swap point in the journal is therefore a
//     stream position, not a wall-clock event.
//
// Model versions in the journal are *logical* (1 + completed swaps,
// restored from checkpoints), so a resumed run renders the same lines as
// an uninterrupted one even though the process-local registry restarts its
// version counter.
//
// Checkpoints ("pnr-stream-checkpoint v1") capture the stream position,
// swap count, current model path, and the drift detector blob; they are
// written atomically (tmp + rename) at window boundaries while no retrain
// is in flight. Resume = reinstall the checkpointed model, Restore the
// engine, and replay the feed: already-processed rows fast-forward (the
// trailing retain span refills the buffer), and processing continues at
// the checkpointed window. The sliding aggregate intentionally restarts
// empty — it is a display smoother, not state the drift or retrain logic
// depends on.

#ifndef PNR_STREAM_ENGINE_H_
#define PNR_STREAM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/registry.h"
#include "stream/drift.h"
#include "stream/feed.h"
#include "stream/retrain.h"
#include "stream/window.h"

namespace pnr {

struct StreamEngineOptions {
  /// Tumbling window size in schema-valid rows.
  uint64_t window_rows = 1000;
  /// Trailing windows in the sliding aggregate.
  size_t sliding_windows = 5;
  /// Score >= threshold predicts the target class.
  double threshold = 0.5;
  /// ScoreBatch fan-out width (bit-identical at any value).
  size_t score_threads = 1;
  /// The rare class being watched.
  CategoryId target = kInvalidCategory;
  /// Master switch for drift-triggered retraining.
  bool retrain_enabled = true;
  /// Trailing labeled rows per retrain snapshot.
  uint64_t retrain_rows = 6000;
  /// Cap on completed swaps (~0 = unlimited).
  uint64_t max_swaps = ~uint64_t{0};
  /// Path of the initial model artifact (recorded in checkpoints).
  std::string model_path;
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  DriftOptions drift;
  RetrainOptions retrain;
  /// Journal sink (e.g. file writer). Lines are also retained in
  /// journal() regardless.
  std::function<void(const std::string&)> line_fn;
};

/// The serializable engine state between runs.
struct StreamCheckpoint {
  uint64_t windows = 0;        ///< tumbling windows fully processed
  uint64_t rows = 0;           ///< rows consumed == windows * window_rows
  uint64_t swaps = 0;          ///< completed hot-swaps
  uint64_t model_version = 1;  ///< logical version of the current model
  std::string model_path;      ///< model file to reinstall on resume
  std::string drift_blob;      ///< embedded DriftDetector v1 blob, verbatim
};

/// Renders / parses the v1 checkpoint. Parse is strict — every accepted
/// input serializes back byte-identically (fuzzed via the `stream`
/// target); the drift blob is carried verbatim and validated separately by
/// DriftDetector::Restore.
std::string SerializeStreamCheckpoint(const StreamCheckpoint& checkpoint);
StatusOr<StreamCheckpoint> ParseStreamCheckpoint(const std::string& text);

class StreamEngine {
 public:
  /// `schema`, `registry`, and `budget` must outlive the engine. The
  /// current model is looked up in `registry` under
  /// options.retrain.model_name.
  StreamEngine(const Schema* schema, ModelRegistry* registry,
               ThreadBudget* budget, StreamEngineOptions options);

  /// Adopts a checkpoint. Call before Start()/Ingest(): positions the
  /// stream (already-processed rows will fast-forward), restores the swap
  /// count, logical model version, and drift detector.
  Status RestoreCheckpoint(const StreamCheckpoint& checkpoint);

  /// Resolves the current model from the registry. Call after the initial
  /// (or checkpointed) model was installed and before the first Pump().
  /// InvalidArgument when window_rows, drift.reference_windows or
  /// drift.confirm_windows is 0.
  Status Start();

  /// Appends one schema-valid row to the rolling buffer. Labels may be
  /// kInvalidCategory (delayed); such rows score and drift-count but are
  /// excluded from the confusion proxy and from retrain snapshots.
  void Ingest(const ParsedRow& row);

  /// Processes every complete window (deferring while a retrain is in
  /// flight), resolves finished retrains, compacts the buffer, and writes
  /// a checkpoint when due.
  Status Pump();

  /// Declares end-of-feed: drains deferred windows (waiting out any
  /// in-flight retrain), then emits the final partial window (scored and
  /// journaled, excluded from drift) and a final checkpoint.
  Status FinishStream();

  // -- Observability ---------------------------------------------------------

  uint64_t rows_ingested() const { return rows_ingested_; }
  uint64_t windows_processed() const { return windows_processed_; }
  uint64_t swaps_done() const { return swaps_done_; }
  uint64_t model_version() const { return logical_version_; }
  const std::string& model_path() const { return model_path_; }
  const DriftDetector& drift() const { return drift_; }
  const SlidingAggregate& sliding() const { return sliding_; }
  /// Every journal line emitted so far, in order.
  const std::vector<std::string>& journal() const { return journal_; }
  /// Stats of every processed window (including the final partial one).
  const std::vector<WindowStats>& window_history() const { return history_; }

  /// Current engine state as a checkpoint value.
  StreamCheckpoint MakeCheckpoint() const;

 private:
  void Emit(std::string line);
  void ProcessWindow();
  void StartRetrain(uint64_t window_index);
  void Resolve(const RetrainOrchestrator::Result& result);
  void MaybeCompact();
  Status MaybeCheckpoint();
  uint64_t RetainRows() const;

  const Schema* schema_;
  ModelRegistry* registry_;
  StreamEngineOptions options_;
  RetrainOrchestrator orchestrator_;
  DriftDetector drift_;
  SlidingAggregate sliding_;
  Dataset buffer_;

  std::shared_ptr<const ServedModel> model_;
  std::string model_path_;
  uint64_t logical_version_ = 1;
  uint64_t rows_ingested_ = 0;   ///< valid rows seen (incl. fast-forwarded)
  uint64_t base_ordinal_ = 0;    ///< stream ordinal of buffer row 0
  uint64_t skip_before_ = 0;     ///< resume fast-forward boundary
  uint64_t windows_processed_ = 0;
  uint64_t swaps_done_ = 0;
  uint64_t checkpointed_windows_ = ~uint64_t{0};
  std::vector<std::string> journal_;
  std::vector<WindowStats> history_;
};

}  // namespace pnr

#endif  // PNR_STREAM_ENGINE_H_
