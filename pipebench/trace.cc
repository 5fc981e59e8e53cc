#include "trace.h"

namespace pipebench {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_ = index_;
  tracer_->spans_.back().start = Clock::now();
}

void Tracer::Scope::End() {
  if (index_ < 0) return;
  Span& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.end = Clock::now();
  tracer_->open_ = span.parent;
  index_ = -1;
}

Ledger BuildLedger(const std::vector<Span>& spans, const std::string& root) {
  Ledger ledger;
  const size_t n = spans.size();
  std::vector<bool> in_pass(n, false);
  std::vector<double> children_s(n, 0.0);
  std::vector<Clock::time_point> last_child_end(n);
  // A span's parent is always recorded before it, so one forward sweep
  // sees every parent before its children.
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans[i];
    if (span.end < span.start) ledger.well_nested = false;
    if (span.parent < 0) {
      in_pass[i] = root == span.name;
      continue;
    }
    const size_t parent = static_cast<size_t>(span.parent);
    in_pass[i] = in_pass[parent];
    const Span& outer = spans[parent];
    if (span.start < outer.start || span.end > outer.end ||
        span.start < last_child_end[parent]) {
      ledger.well_nested = false;
    }
    last_child_end[parent] = span.end;
    children_s[parent] += Seconds(span.start, span.end);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!in_pass[i]) continue;
    const double duration = Seconds(spans[i].start, spans[i].end);
    const double self = duration - children_s[i];
    if (spans[i].parent < 0) {
      ++ledger.passes;
      ledger.total_s += duration;
      ledger.residual_s += self;
    } else {
      ledger.self_s[spans[i].name] += self;
    }
  }
  if (ledger.passes > 0) {
    const double passes = static_cast<double>(ledger.passes);
    ledger.total_s /= passes;
    ledger.residual_s /= passes;
    for (auto& entry : ledger.self_s) entry.second /= passes;
  }
  return ledger;
}

}  // namespace pipebench
