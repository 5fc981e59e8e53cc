// Span recorder for the benchmark's traced passes, and the per-layer ledger
// derived from it.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public functions; nothing inside src/ is instrumented. Every
// span is opened and closed on the benchmark's main thread, so spans nest
// strictly: a layer's self time is its span's duration minus the durations
// of its child spans, and the self times of all spans in a pass add up to
// the pass's duration.

#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to`.
double Seconds(Clock::time_point from, Clock::time_point to);

struct Span {
  const char* name = "";  ///< a string literal
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  Clock::time_point start{};
  Clock::time_point end{};  ///< stays at the epoch while the span is open
};

/// Keeps spans in memory until the run ends. While disabled it records
/// nothing and a Scope costs one branch.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }
    /// Closes the span before the scope ends (idempotent).
    void End();

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Calls `fn` inside a span named `name` and returns what it returns.
  template <typename Fn>
  auto Run(const char* name, Fn&& fn) {
    Scope scope(this, name);
    return fn();
  }

 private:
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Self times of the spans inside traced passes, averaged per pass.
struct Ledger {
  size_t passes = 0;
  double total_s = 0.0;     ///< mean duration of a pass's root span
  double residual_s = 0.0;  ///< mean root self time: pass time no layer span covers
  std::map<std::string, double> self_s;  ///< span name -> mean self seconds
  /// False when a span was left open, ended outside its parent, or
  /// overlapped an earlier sibling.
  bool well_nested = true;
};

/// Builds the ledger from the spans under root spans named `root`; spans
/// under other roots are left out.
Ledger BuildLedger(const std::vector<Span>& spans, const std::string& root);

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
