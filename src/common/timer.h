// Wall-clock timing for experiment reporting.

#ifndef PNR_COMMON_TIMER_H_
#define PNR_COMMON_TIMER_H_

#include <chrono>

namespace pnr {

/// Monotonic stopwatch; starts on construction.
class Timer {
 public:
  Timer() { Reset(); }

  /// Restarts the stopwatch.
  void Reset();

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pnr

#endif  // PNR_COMMON_TIMER_H_
