// Deterministic fault injection for the I/O boundary.
//
// Every syscall the untrusted-input subsystems make — socket reads/writes,
// accept, mmap, bulk file reads, and the large allocations that back them —
// goes through the thin wrappers in common/io_hooks.h. Those wrappers first
// consult the FaultPlan installed here, which can fail the Nth call
// outright, deliver EINTR, or truncate transfers to short reads/writes on a
// seeded pseudo-random schedule. Without an installed plan the wrappers
// pass straight through.
//
// The plan is process-global (installed/removed with RAII via
// ScopedFaultPlan) and its decisions are drawn from one seeded SplitMix64
// stream under a mutex: a given seed replays the same decision sequence for
// the same call order. Concurrent callers interleave nondeterministically,
// so multi-threaded tests assert invariants (no crash, clean error Status,
// full drain), not exact outcomes.
//
// Schedule format (the knobs of FaultPlan):
//   ops          bitmask of FaultOp values the plan applies to
//   fail_nth[op] hard-fail the Nth matching call (1-based; 0 = never)
//   eintr_prob   chance a call returns EINTR without running
//   short_prob   chance a read/recv/send transfers only 1 byte
//   fail_prob    chance a call hard-fails with `error_number`
//   max_hard_failures  cap on hard failures (-1 = unlimited)

#ifndef PNR_TESTING_FAULT_H_
#define PNR_TESTING_FAULT_H_

#include <cstddef>
#include <cstdint>

namespace pnr {
namespace fault {

/// The hook points fault plans can target.
enum class FaultOp : int {
  kRead = 0,   ///< file reads (file_io, mapped-file streaming fallback)
  kWrite,      ///< file writes (file_io)
  kRecv,       ///< socket receives (common/net RecvSome)
  kSend,       ///< socket sends (common/net SendAll)
  kAccept,     ///< accept(2) (common/net AcceptNb)
  kMmap,       ///< mmap(2) (data/mapped_file)
  kAlloc,      ///< large-buffer admission checks (file_io)
};
inline constexpr int kNumFaultOps = 7;

/// Bit for `FaultPlan::ops`.
constexpr uint32_t OpBit(FaultOp op) { return 1u << static_cast<int>(op); }
inline constexpr uint32_t kAllOps = (1u << kNumFaultOps) - 1;

/// A seeded fault schedule. See the header comment for semantics.
struct FaultPlan {
  uint64_t seed = 1;
  uint32_t ops = kAllOps;
  double eintr_prob = 0.0;
  double short_prob = 0.0;
  double fail_prob = 0.0;
  int error_number = 5;  // EIO; the errno injected hard failures carry
  int max_hard_failures = -1;
  uint64_t fail_nth[kNumFaultOps] = {0, 0, 0, 0, 0, 0, 0};
};

/// What the injector decided for one call.
enum class FaultDecision {
  kPass,   ///< perform the real operation
  kEintr,  ///< fail with EINTR without performing it
  kShort,  ///< perform it, but transfer at most 1 byte
  kFail,   ///< fail with the plan's error_number
};

/// Per-op counters of what the injector actually did (for test assertions
/// that the schedule really fired).
struct FaultStats {
  uint64_t calls[kNumFaultOps] = {};
  uint64_t eintrs[kNumFaultOps] = {};
  uint64_t shorts[kNumFaultOps] = {};
  uint64_t failures[kNumFaultOps] = {};

  uint64_t total_injected() const {
    uint64_t n = 0;
    for (int i = 0; i < kNumFaultOps; ++i) {
      n += eintrs[i] + shorts[i] + failures[i];
    }
    return n;
  }
};

/// Consults the installed plan for one call to `op`. Returns kPass when no
/// plan is installed. On kEintr/kFail, `*error_number` receives the errno
/// to report. Thread-safe.
FaultDecision Decide(FaultOp op, int* error_number);

/// Installs `plan` for the lifetime of the object (process-global; nesting
/// is not supported — constructing a second ScopedFaultPlan while one is
/// live aborts). Stats accumulate until destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  /// Snapshot of the counters so far.
  FaultStats stats() const;
};

}  // namespace fault
}  // namespace pnr

#endif  // PNR_TESTING_FAULT_H_
