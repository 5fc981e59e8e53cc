#include "stream/drift.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/line_format.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace pnr {

double SmoothedPsi(const std::vector<uint64_t>& reference,
                   const std::vector<uint64_t>& window) {
  assert(reference.size() == window.size());
  const size_t bins = reference.size();
  if (bins == 0) return 0.0;
  uint64_t ref_total = 0;
  uint64_t win_total = 0;
  for (size_t i = 0; i < bins; ++i) {
    ref_total += reference[i];
    win_total += window[i];
  }
  const double ref_denom =
      static_cast<double>(ref_total) + 0.5 * static_cast<double>(bins);
  const double win_denom =
      static_cast<double>(win_total) + 0.5 * static_cast<double>(bins);
  double psi = 0.0;
  for (size_t i = 0; i < bins; ++i) {
    const double p = (static_cast<double>(reference[i]) + 0.5) / ref_denom;
    const double q = (static_cast<double>(window[i]) + 0.5) / win_denom;
    psi += (q - p) * std::log(q / p);
  }
  return psi;
}

DriftDetector::DriftDetector(const Schema* schema, DriftOptions options)
    : schema_(schema), options_(options) {
  assert(schema_ != nullptr);
  assert(options_.numeric_bins >= 2);
  const size_t num_attrs = schema_->num_attributes();
  numeric_.resize(num_attrs);
  categorical_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    const Attribute& attribute = schema_->attribute(static_cast<AttrIndex>(a));
    if (!attribute.is_numeric()) {
      categorical_[a].counts.assign(attribute.num_categories() + 1, 0);
    }
  }
  score_counts_.assign(kStreamScoreBins, 0);
  label_counts_.assign(2, 0);
}

void DriftDetector::ResetBaseline() {
  for (NumericState& state : numeric_) {
    state.sample.clear();
    state.edges.clear();
    state.counts.clear();
  }
  for (CategoricalState& state : categorical_) {
    std::fill(state.counts.begin(), state.counts.end(), 0);
  }
  std::fill(score_counts_.begin(), score_counts_.end(), 0);
  std::fill(label_counts_.begin(), label_counts_.end(), 0);
  ready_ = false;
  warmup_seen_ = 0;
  consecutive_ = 0;
  ++resets_;
}

size_t DriftDetector::NumericBin(const NumericState& state,
                                 double value) const {
  // First edge strictly greater than `value`: equal values fall into the
  // lower bin, which keeps binning independent of how ties were sampled.
  return static_cast<size_t>(
      std::upper_bound(state.edges.begin(), state.edges.end(), value) -
      state.edges.begin());
}

void DriftDetector::FinalizeBaseline() {
  const size_t bins = options_.numeric_bins;
  for (size_t a = 0; a < numeric_.size(); ++a) {
    const Attribute& attribute = schema_->attribute(static_cast<AttrIndex>(a));
    if (!attribute.is_numeric()) continue;
    NumericState& state = numeric_[a];
    // Equi-depth cut points from the sorted reference sample (the shared
    // EquiDepthEdges rule, also used by the associative-miner discretizer).
    // A constant column yields equal edges; every value then lands in bin 0
    // and PSI only moves when genuinely new values appear.
    std::vector<double> sorted = state.sample;
    std::sort(sorted.begin(), sorted.end());
    state.edges = EquiDepthEdges(sorted, bins);
    state.counts.assign(bins, 0);
    for (const double value : state.sample) {
      ++state.counts[NumericBin(state, value)];
    }
    state.sample.clear();
    state.sample.shrink_to_fit();
  }
  ready_ = true;
}

DriftDetector::WindowReport DriftDetector::Observe(const Dataset& dataset,
                                                   const RowId* rows,
                                                   size_t count,
                                                   const double* scores,
                                                   CategoryId target) {
  WindowReport report;
  const size_t num_attrs = schema_->num_attributes();
  if (!ready_) {
    // Warmup: the window extends the reference.
    for (size_t a = 0; a < num_attrs; ++a) {
      const Attribute& attribute =
          schema_->attribute(static_cast<AttrIndex>(a));
      if (attribute.is_numeric()) {
        NumericState& state = numeric_[a];
        for (size_t i = 0; i < count; ++i) {
          if (state.sample.size() >= options_.max_reference_values) break;
          state.sample.push_back(
              dataset.numeric(rows[i], static_cast<AttrIndex>(a)));
        }
      } else {
        CategoricalState& state = categorical_[a];
        const size_t unseen = state.counts.size() - 1;
        for (size_t i = 0; i < count; ++i) {
          const CategoryId value =
              dataset.categorical(rows[i], static_cast<AttrIndex>(a));
          ++state.counts[value == kInvalidCategory
                             ? unseen
                             : static_cast<size_t>(value)];
        }
      }
    }
    for (size_t i = 0; i < count; ++i) {
      ++score_counts_[StreamScoreBin(scores[i])];
      const CategoryId label = dataset.label(rows[i]);
      if (label != kInvalidCategory) {
        ++label_counts_[label == target ? 0 : 1];
      }
    }
    ++warmup_seen_;
    if (warmup_seen_ >= options_.reference_windows) FinalizeBaseline();
    report.warmup = true;
    return report;
  }

  // Comparison: bin the window and PSI it against the reference.
  std::vector<uint64_t> window_counts;
  for (size_t a = 0; a < num_attrs; ++a) {
    const Attribute& attribute = schema_->attribute(static_cast<AttrIndex>(a));
    double psi = 0.0;
    if (attribute.is_numeric()) {
      const NumericState& state = numeric_[a];
      window_counts.assign(options_.numeric_bins, 0);
      for (size_t i = 0; i < count; ++i) {
        ++window_counts[NumericBin(
            state, dataset.numeric(rows[i], static_cast<AttrIndex>(a)))];
      }
      psi = SmoothedPsi(state.counts, window_counts);
    } else {
      const CategoricalState& state = categorical_[a];
      const size_t unseen = state.counts.size() - 1;
      window_counts.assign(state.counts.size(), 0);
      for (size_t i = 0; i < count; ++i) {
        const CategoryId value =
            dataset.categorical(rows[i], static_cast<AttrIndex>(a));
        ++window_counts[value == kInvalidCategory ? unseen
                                                  : static_cast<size_t>(value)];
      }
      psi = SmoothedPsi(state.counts, window_counts);
    }
    if (psi > report.max_feature_psi) {
      report.max_feature_psi = psi;
      report.worst_attr = static_cast<AttrIndex>(a);
    }
  }
  window_counts.assign(kStreamScoreBins, 0);
  for (size_t i = 0; i < count; ++i) {
    ++window_counts[StreamScoreBin(scores[i])];
  }
  report.score_psi = SmoothedPsi(score_counts_, window_counts);

  std::vector<uint64_t> label_window(2, 0);
  for (size_t i = 0; i < count; ++i) {
    const CategoryId label = dataset.label(rows[i]);
    if (label != kInvalidCategory) ++label_window[label == target ? 0 : 1];
  }
  // A window whose labels have not arrived at all says nothing about the
  // positive rate; comparing all-zero counts against the reference would
  // manufacture a huge PSI out of the smoothing terms.
  if (label_window[0] + label_window[1] > 0) {
    report.label_psi = SmoothedPsi(label_counts_, label_window);
  }

  report.over_threshold = report.max_feature_psi > options_.psi_threshold ||
                          report.score_psi > options_.score_psi_threshold ||
                          report.label_psi > options_.label_psi_threshold;
  consecutive_ = report.over_threshold ? consecutive_ + 1 : 0;
  report.consecutive = consecutive_;
  report.confirmed = consecutive_ >= options_.confirm_windows;
  return report;
}

// -- Serialization ------------------------------------------------------------
//
// Line-oriented v1 blob, one section per attribute plus the score section:
//
//   pnr-stream-drift v1
//   state <warmup|ready>
//   warmup_seen <n>
//   consecutive <n>
//   resets <n>
//   attrs <num_attrs>
//   attr <i> numeric sample <k> [v...]            (warmup)
//   attr <i> numeric edges <k> [v...] counts <b> [c...]  (ready)
//   attr <i> cat counts <k> [c...]
//   score counts <k> [c...]
//   label counts 2 [c c]
//   end
//
// Doubles render with FormatDouble(x, 17) so restore is exact.

std::string DriftDetector::Serialize() const {
  std::string out = "pnr-stream-drift v1\n";
  out += std::string("state ") + (ready_ ? "ready" : "warmup") + "\n";
  out += "warmup_seen " + std::to_string(warmup_seen_) + "\n";
  out += "consecutive " + std::to_string(consecutive_) + "\n";
  out += "resets " + std::to_string(resets_) + "\n";
  out += "attrs " + std::to_string(schema_->num_attributes()) + "\n";
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const Attribute& attribute = schema_->attribute(static_cast<AttrIndex>(a));
    out += "attr " + std::to_string(a);
    if (attribute.is_numeric()) {
      const NumericState& state = numeric_[a];
      if (ready_) {
        out += " numeric edges " + std::to_string(state.edges.size());
        for (const double edge : state.edges) {
          out += ' ';
          out += FormatDouble(edge, 17);
        }
        out += " counts " + std::to_string(state.counts.size());
        for (const uint64_t count : state.counts) {
          out += ' ';
          out += std::to_string(count);
        }
      } else {
        out += " numeric sample " + std::to_string(state.sample.size());
        for (const double value : state.sample) {
          out += ' ';
          out += FormatDouble(value, 17);
        }
      }
    } else {
      const CategoricalState& state = categorical_[a];
      out += " cat counts " + std::to_string(state.counts.size());
      for (const uint64_t count : state.counts) {
        out += ' ';
        out += std::to_string(count);
      }
    }
    out += '\n';
  }
  out += "score counts " + std::to_string(score_counts_.size());
  for (const uint64_t count : score_counts_) {
    out += ' ';
    out += std::to_string(count);
  }
  out += "\nlabel counts " + std::to_string(label_counts_.size());
  for (const uint64_t count : label_counts_) {
    out += ' ';
    out += std::to_string(count);
  }
  out += "\nend\n";
  return out;
}

Status DriftDetector::Restore(const std::string& text) {
  LineCursor cursor(text, "stream-drift", LineMode::kExact);
  Status status = cursor.ReadHeader("pnr-stream-drift");
  if (!status.ok()) return status;

  // Parse into a scratch copy; commit only on full success.
  uint64_t warmup_seen = 0;
  uint64_t consecutive = 0;
  uint64_t resets = 0;
  std::vector<NumericState> numeric(numeric_.size());
  std::vector<CategoricalState> categorical(categorical_.size());
  std::vector<uint64_t> score_counts;
  std::vector<uint64_t> label_counts;

  Fields fields;
  if (!cursor.Next(&fields)) return cursor.Truncated("'state' line");
  std::string_view state;
  if (!fields.TakeKeyword("state") || !fields.Take(&state) ||
      !fields.Exhausted() || (state != "warmup" && state != "ready")) {
    return cursor.Error("expected 'state warmup|ready'");
  }
  const bool ready = state == "ready";
  // Take exactly `size` values into `out`.
  const auto take_counts = [&fields](std::vector<uint64_t>* out,
                                     uint64_t size) {
    out->resize(size);
    for (uint64_t& count : *out) {
      if (!fields.TakeUint(&count)) return false;
    }
    return true;
  };
  // Doubles must be finite and spelled as Serialize spells them, so an
  // accepted blob serializes back byte-identically.
  const auto take_doubles = [&fields](std::vector<double>* out,
                                      uint64_t size) {
    out->resize(size);
    for (double& value : *out) {
      std::string_view field;
      if (!fields.Take(&field) || !ParseDouble(field, &value) ||
          !std::isfinite(value) || FormatDouble(value, 17) != field) {
        return false;
      }
    }
    return true;
  };

  status = cursor.ReadCount("warmup_seen", &warmup_seen);
  if (!status.ok()) return status;
  if (ready ? warmup_seen < options_.reference_windows
            : warmup_seen >= options_.reference_windows) {
    return cursor.Error("warmup_seen inconsistent with state");
  }
  status = cursor.ReadCount("consecutive", &consecutive);
  if (!status.ok()) return status;
  if (!ready && consecutive != 0) {
    return cursor.Error("consecutive must be 0 during warmup");
  }
  status = cursor.ReadCount("resets", &resets);
  if (!status.ok()) return status;
  uint64_t attr_count = 0;
  status = cursor.ReadCount("attrs", &attr_count);
  if (!status.ok()) return status;
  if (attr_count != schema_->num_attributes()) {
    return cursor.Error("blob has " + std::to_string(attr_count) +
                        " attributes, schema has " +
                        std::to_string(schema_->num_attributes()));
  }

  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const Attribute& attribute = schema_->attribute(static_cast<AttrIndex>(a));
    if (!cursor.Next(&fields)) {
      return cursor.Truncated("'attr " + std::to_string(a) + "'");
    }
    uint64_t index = 0;
    std::string_view kind;
    if (!fields.TakeKeyword("attr") || !fields.TakeUint(&index) ||
        index != a || !fields.Take(&kind)) {
      return cursor.Error("expected 'attr " + std::to_string(a) + " ...'");
    }
    uint64_t size = 0;
    if (attribute.is_numeric()) {
      if (kind != "numeric") {
        return cursor.Error("attribute " + std::to_string(a) +
                            " is numeric in the schema");
      }
      NumericState& numeric_state = numeric[a];
      if (ready) {
        const uint64_t edges = options_.numeric_bins - 1;
        if (!fields.TakeKeyword("edges") || !fields.TakeUint(&size) ||
            size != edges) {
          return cursor.Error("expected 'edges " + std::to_string(edges) +
                              "'");
        }
        if (!take_doubles(&numeric_state.edges, size)) {
          return cursor.Error("bad edge value");
        }
        if (!std::is_sorted(numeric_state.edges.begin(),
                            numeric_state.edges.end())) {
          return cursor.Error("edges must be ascending");
        }
        if (!fields.TakeKeyword("counts") || !fields.TakeUint(&size) ||
            size != options_.numeric_bins) {
          return cursor.Error("expected 'counts " +
                              std::to_string(options_.numeric_bins) + "'");
        }
        if (!take_counts(&numeric_state.counts, size)) {
          return cursor.Error("bad bin count");
        }
      } else {
        if (!fields.TakeKeyword("sample") || !fields.TakeUint(&size) ||
            size > options_.max_reference_values) {
          return cursor.Error(
              "expected 'sample <k>' with k <= " +
              std::to_string(options_.max_reference_values));
        }
        if (!take_doubles(&numeric_state.sample, size)) {
          return cursor.Error("bad sample value");
        }
      }
    } else {
      const size_t expected = attribute.num_categories() + 1;
      if (kind != "cat" || !fields.TakeKeyword("counts") ||
          !fields.TakeUint(&size) || size != expected) {
        return cursor.Error("expected 'cat counts " +
                            std::to_string(expected) + "'");
      }
      if (!take_counts(&categorical[a].counts, size)) {
        return cursor.Error("bad category count");
      }
    }
    if (!fields.Exhausted()) {
      return cursor.Error("trailing fields on attr line");
    }
  }

  // "<name> counts <size> <count>..." with a fixed size.
  const auto read_histogram = [&](const char* name, uint64_t expected,
                                  std::vector<uint64_t>* out) -> Status {
    const std::string shape = "'" + std::string(name) + " counts " +
                              std::to_string(expected) + "'";
    if (!cursor.Next(&fields)) return cursor.Truncated(shape);
    uint64_t size = 0;
    if (!fields.TakeKeyword(name) || !fields.TakeKeyword("counts") ||
        !fields.TakeUint(&size) || size != expected) {
      return cursor.Error("expected " + shape);
    }
    if (!take_counts(out, size)) {
      return cursor.Error("bad " + std::string(name) + " count");
    }
    if (!fields.Exhausted()) {
      return cursor.Error("trailing fields on " + std::string(name) +
                          " line");
    }
    return Status::OK();
  };
  status = read_histogram("score", kStreamScoreBins, &score_counts);
  if (!status.ok()) return status;
  status = read_histogram("label", 2, &label_counts);
  if (!status.ok()) return status;
  status = cursor.Finish();
  if (!status.ok()) return status;

  ready_ = ready;
  warmup_seen_ = warmup_seen;
  consecutive_ = consecutive;
  resets_ = resets;
  numeric_ = std::move(numeric);
  categorical_ = std::move(categorical);
  score_counts_ = std::move(score_counts);
  label_counts_ = std::move(label_counts);
  return Status::OK();
}

}  // namespace pnr
