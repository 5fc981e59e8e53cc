#include "stream/engine.h"

#include <cassert>
#include <cstdio>
#include <utility>

#include "common/file_io.h"
#include "common/line_format.h"
#include "common/string_util.h"
#include "eval/batch.h"

namespace pnr {

StreamEngine::StreamEngine(const Schema* schema, ModelRegistry* registry,
                           ThreadBudget* budget, StreamEngineOptions options)
    : schema_(schema),
      registry_(registry),
      options_(std::move(options)),
      orchestrator_(registry, budget, options_.retrain),
      drift_(schema, options_.drift),
      sliding_(options_.sliding_windows),
      buffer_(*schema),
      model_path_(options_.model_path) {
  assert(schema_ != nullptr);
  assert(options_.window_rows > 0);
}

Status StreamEngine::RestoreCheckpoint(const StreamCheckpoint& checkpoint) {
  if (rows_ingested_ != 0 || windows_processed_ != 0) {
    return Status::FailedPrecondition(
        "stream: RestoreCheckpoint must precede ingestion");
  }
  if (checkpoint.rows != checkpoint.windows * options_.window_rows) {
    return Status::InvalidArgument(
        "stream checkpoint: rows " + std::to_string(checkpoint.rows) +
        " does not equal windows " + std::to_string(checkpoint.windows) +
        " x window_rows " + std::to_string(options_.window_rows) +
        " (was the checkpoint written with a different --window?)");
  }
  Status restored = drift_.Restore(checkpoint.drift_blob);
  if (!restored.ok()) return restored;
  windows_processed_ = checkpoint.windows;
  swaps_done_ = checkpoint.swaps;
  logical_version_ = checkpoint.model_version;
  model_path_ = checkpoint.model_path;
  // Refill only the trailing retain span on replay; older rows fast-forward.
  skip_before_ = checkpoint.rows > RetainRows()
                     ? checkpoint.rows - RetainRows()
                     : 0;
  base_ordinal_ = skip_before_;
  return Status::OK();
}

Status StreamEngine::Start() {
  model_ = registry_->Get(options_.retrain.model_name);
  if (model_ == nullptr) {
    return Status::NotFound("stream: no model named '" +
                            options_.retrain.model_name +
                            "' in the registry");
  }
  if (model_->schema.num_attributes() != schema_->num_attributes()) {
    return Status::InvalidArgument(
        "stream: model schema has " +
        std::to_string(model_->schema.num_attributes()) +
        " attributes, the feed schema has " +
        std::to_string(schema_->num_attributes()));
  }
  return Status::OK();
}

void StreamEngine::Ingest(const ParsedRow& row) {
  const uint64_t ordinal = rows_ingested_++;
  if (ordinal < skip_before_) return;  // resume fast-forward
  const RowId id = buffer_.AddRow();
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    if (schema_->attribute(attr).is_numeric()) {
      buffer_.set_numeric(id, attr, row.numeric[a]);
    } else {
      buffer_.set_categorical(id, attr, row.categorical[a]);
    }
  }
  buffer_.set_label(id, row.label);
}

void StreamEngine::Emit(std::string line) {
  if (options_.line_fn) options_.line_fn(line);
  journal_.push_back(std::move(line));
}

Status StreamEngine::Pump() {
  while (true) {
    if (orchestrator_.running()) {
      RetrainOrchestrator::Result result;
      // Window processing defers until the in-flight retrain hands off —
      // that is what pins the swap to a stream position. Ingestion has
      // already happened; nothing upstream stalls.
      if (!orchestrator_.TryTake(&result)) break;
      Resolve(result);
    }
    if (rows_ingested_ <
        (windows_processed_ + 1) * options_.window_rows) {
      break;
    }
    ProcessWindow();
  }
  MaybeCompact();
  return MaybeCheckpoint();
}

Status StreamEngine::FinishStream() {
  while (true) {
    Status pumped = Pump();
    if (!pumped.ok()) return pumped;
    if (!orchestrator_.running()) break;
    orchestrator_.Wait();  // next Pump() claims the result
  }
  // Final partial window: scored and journaled, never drift-observed (a
  // short remainder would skew the histograms it is compared against).
  const uint64_t first = windows_processed_ * options_.window_rows;
  if (rows_ingested_ > first) {
    const uint64_t count = rows_ingested_ - first;
    assert(first >= base_ordinal_);
    const size_t begin = static_cast<size_t>(first - base_ordinal_);
    std::vector<RowId> rows(count);
    std::vector<CategoryId> labels(count);
    for (uint64_t i = 0; i < count; ++i) {
      rows[i] = static_cast<RowId>(begin + i);
      labels[i] = buffer_.label(rows[i]);
    }
    std::vector<double> scores(count, 0.0);
    BatchScoreOptions score_options;
    score_options.num_threads = options_.score_threads;
    model_->model->ScoreBatch(buffer_, rows.data(), rows.size(), scores.data(),
                             ClampOptionsForDataset(buffer_, score_options));
    WindowStats stats =
        ComputeWindowStats(scores.data(), labels.data(), count,
                           options_.target, options_.threshold);
    stats.index = windows_processed_;
    stats.first_ordinal = first;
    stats.model_version = logical_version_;
    stats.partial = true;
    sliding_.Push(stats);
    Emit(RenderWindowLine(stats, sliding_));
    history_.push_back(stats);
  }
  return MaybeCheckpoint();
}

void StreamEngine::ProcessWindow() {
  const uint64_t window_index = windows_processed_;
  const uint64_t first = window_index * options_.window_rows;
  const uint64_t count = options_.window_rows;
  assert(first >= base_ordinal_);
  const size_t begin = static_cast<size_t>(first - base_ordinal_);
  assert(begin + count <= buffer_.num_rows());

  std::vector<RowId> rows(count);
  std::vector<CategoryId> labels(count);
  for (uint64_t i = 0; i < count; ++i) {
    rows[i] = static_cast<RowId>(begin + i);
    labels[i] = buffer_.label(rows[i]);
  }
  std::vector<double> scores(count, 0.0);
  BatchScoreOptions score_options;
  score_options.num_threads = options_.score_threads;
  model_->model->ScoreBatch(buffer_, rows.data(), rows.size(), scores.data(),
                           ClampOptionsForDataset(buffer_, score_options));

  WindowStats stats = ComputeWindowStats(scores.data(), labels.data(), count,
                                         options_.target, options_.threshold);
  stats.index = window_index;
  stats.first_ordinal = first;
  stats.model_version = logical_version_;
  sliding_.Push(stats);
  Emit(RenderWindowLine(stats, sliding_));
  history_.push_back(stats);
  windows_processed_ = window_index + 1;

  const DriftDetector::WindowReport report = drift_.Observe(
      buffer_, rows.data(), rows.size(), scores.data(), options_.target);
  if (report.warmup) return;
  if (report.over_threshold) {
    std::string line = "drift window=" + std::to_string(window_index);
    line += " psi=" + FormatDouble(report.max_feature_psi, 6);
    line += " attr=" +
            (report.worst_attr >= 0
                 ? schema_->attribute(report.worst_attr).name()
                 : std::string("-"));
    line += " score_psi=" + FormatDouble(report.score_psi, 6);
    line += " label_psi=" + FormatDouble(report.label_psi, 6);
    line += " streak=" + std::to_string(report.consecutive);
    if (report.confirmed) line += " confirmed";
    Emit(std::move(line));
  }
  if (report.confirmed) {
    if (!options_.retrain_enabled || swaps_done_ >= options_.max_swaps) {
      drift_.ResetBaseline();  // re-arm instead of confirming every window
      return;
    }
    StartRetrain(window_index);
  }
}

void StreamEngine::StartRetrain(uint64_t window_index) {
  // Training set: trailing labeled rows whose ordinal is at or before the
  // confirming window's end — rows buffered past the boundary are
  // invisible, so the set is a pure function of the stream position.
  const uint64_t boundary = (window_index + 1) * options_.window_rows;
  assert(boundary >= base_ordinal_);
  const size_t end = static_cast<size_t>(boundary - base_ordinal_);
  std::vector<RowId> labeled;
  for (size_t i = 0; i < end; ++i) {
    if (buffer_.label(static_cast<RowId>(i)) != kInvalidCategory) {
      labeled.push_back(static_cast<RowId>(i));
    }
  }
  if (labeled.size() > options_.retrain_rows) {
    labeled.erase(labeled.begin(),
                  labeled.end() - static_cast<size_t>(options_.retrain_rows));
  }
  if (labeled.empty()) {
    Emit("retrain skipped window=" + std::to_string(window_index) +
         ": no labeled rows");
    drift_.ResetBaseline();
    return;
  }
  Status begun = orchestrator_.Begin(buffer_, labeled.data(), labeled.size(),
                                     options_.target, window_index);
  if (!begun.ok()) {
    Emit("retrain failed window=" + std::to_string(window_index) + ": " +
         begun.message());
    drift_.ResetBaseline();
    return;
  }
  Emit("retrain start window=" + std::to_string(window_index) +
       " rows=" + std::to_string(labeled.size()));
}

void StreamEngine::Resolve(const RetrainOrchestrator::Result& result) {
  if (result.status.ok()) {
    ++swaps_done_;
    ++logical_version_;
    model_ = registry_->Get(options_.retrain.model_name);
    assert(model_ != nullptr);
    model_path_ = result.model_path;
    Emit("retrain done window=" + std::to_string(result.window_index) +
         " rows=" + std::to_string(result.trained_rows) +
         " pos=" + std::to_string(result.positives));
    Emit("swap window=" + std::to_string(result.window_index) +
         " version=v" + std::to_string(logical_version_));
  } else {
    Emit("retrain failed window=" + std::to_string(result.window_index) +
         ": " + result.status.message());
  }
  // Either way the baseline restarts from post-event traffic; the warmup
  // doubles as the retrain cooldown.
  drift_.ResetBaseline();
}

uint64_t StreamEngine::RetainRows() const {
  return std::max<uint64_t>(4 * options_.window_rows,
                            2 * options_.retrain_rows);
}

void StreamEngine::MaybeCompact() {
  const uint64_t processed = windows_processed_ * options_.window_rows;
  if (processed <= base_ordinal_) return;
  const uint64_t in_buffer = processed - base_ordinal_;
  const uint64_t retain = RetainRows();
  // Trigger on processed rows only, so compaction points are a function of
  // the window sequence — not of how far ingestion ran ahead.
  if (in_buffer <= 2 * retain) return;
  const uint64_t drop = in_buffer - retain;
  Dataset compacted(buffer_.schema());
  const size_t keep = buffer_.num_rows() - static_cast<size_t>(drop);
  compacted.AppendRows(keep);
  for (size_t i = 0; i < keep; ++i) {
    const RowId from = static_cast<RowId>(drop + i);
    const RowId to = static_cast<RowId>(i);
    for (size_t a = 0; a < schema_->num_attributes(); ++a) {
      const AttrIndex attr = static_cast<AttrIndex>(a);
      if (schema_->attribute(attr).is_numeric()) {
        compacted.set_numeric(to, attr, buffer_.numeric(from, attr));
      } else {
        compacted.set_categorical(to, attr, buffer_.categorical(from, attr));
      }
    }
    compacted.set_label(to, buffer_.label(from));
  }
  buffer_ = std::move(compacted);
  base_ordinal_ += drop;
}

StreamCheckpoint StreamEngine::MakeCheckpoint() const {
  StreamCheckpoint checkpoint;
  checkpoint.windows = windows_processed_;
  checkpoint.rows = windows_processed_ * options_.window_rows;
  checkpoint.swaps = swaps_done_;
  checkpoint.model_version = logical_version_;
  checkpoint.model_path = model_path_;
  checkpoint.drift_blob = drift_.Serialize();
  return checkpoint;
}

Status StreamEngine::MaybeCheckpoint() {
  if (options_.checkpoint_path.empty()) return Status::OK();
  if (orchestrator_.running()) return Status::OK();  // mid-retrain state
  if (windows_processed_ == checkpointed_windows_) return Status::OK();
  const std::string text = SerializeStreamCheckpoint(MakeCheckpoint());
  const std::string tmp = options_.checkpoint_path + ".tmp";
  Status written = WriteStringToFile(text, tmp);
  if (!written.ok()) return written;
  if (std::rename(tmp.c_str(), options_.checkpoint_path.c_str()) != 0) {
    return Status::IOError("stream: cannot rename " + tmp + " to " +
                           options_.checkpoint_path);
  }
  checkpointed_windows_ = windows_processed_;
  return Status::OK();
}

// -- Checkpoint serialization -------------------------------------------------

std::string SerializeStreamCheckpoint(const StreamCheckpoint& checkpoint) {
  std::string out = "pnr-stream-checkpoint v1\n";
  out += "windows " + std::to_string(checkpoint.windows) + "\n";
  out += "rows " + std::to_string(checkpoint.rows) + "\n";
  out += "swaps " + std::to_string(checkpoint.swaps) + "\n";
  out += "model_version " + std::to_string(checkpoint.model_version) + "\n";
  out += "model " + checkpoint.model_path + "\n";
  // The drift blob embeds with a line-count prefix, the same device the
  // multiclass model format uses for nested blobs.
  size_t blob_lines = 0;
  for (const char c : checkpoint.drift_blob) {
    if (c == '\n') ++blob_lines;
  }
  out += "drift " + std::to_string(blob_lines) + "\n";
  out += checkpoint.drift_blob;
  out += "end\n";
  return out;
}

StatusOr<StreamCheckpoint> ParseStreamCheckpoint(const std::string& text) {
  LineCursor cursor(text, "stream-checkpoint", LineMode::kExact);
  Status status = cursor.ReadHeader("pnr-stream-checkpoint");
  if (!status.ok()) return status;
  StreamCheckpoint checkpoint;
  for (const auto& [name, out] :
       {std::pair{"windows", &checkpoint.windows},
        std::pair{"rows", &checkpoint.rows},
        std::pair{"swaps", &checkpoint.swaps},
        std::pair{"model_version", &checkpoint.model_version}}) {
    status = cursor.ReadCount(name, out);
    if (!status.ok()) return status;
  }
  if (checkpoint.model_version == 0) {
    return cursor.Error("model_version must be >= 1");
  }
  Fields fields;
  if (!cursor.Next(&fields)) return cursor.Truncated("'model <path>'");
  if (fields.TakeKeyword("model")) checkpoint.model_path = fields.Rest();
  if (checkpoint.model_path.empty()) {
    return cursor.Error("expected 'model <path>'");
  }
  uint64_t blob_lines = 0;
  status = cursor.ReadCount("drift", &blob_lines);
  if (!status.ok()) return status;
  for (uint64_t i = 0; i < blob_lines; ++i) {
    std::string_view line;
    if (!cursor.Next(&line)) {
      return cursor.Truncated("drift blob line " + std::to_string(i + 1) +
                              " of " + std::to_string(blob_lines));
    }
    checkpoint.drift_blob.append(line);
    checkpoint.drift_blob.push_back('\n');
  }
  status = cursor.Finish();
  if (!status.ok()) return status;
  return checkpoint;
}

}  // namespace pnr
