#include "common/timer.h"

namespace pnr {

void Timer::Reset() { start_ = std::chrono::steady_clock::now(); }

double Timer::ElapsedSeconds() const {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - start_).count();
}

}  // namespace pnr
