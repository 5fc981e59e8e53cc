// Shared pieces of the pipeline benchmark: run options, the result record,
// the set-up and pass loops, statistics, and data plumbing several
// workloads use.

#ifndef PIPEBENCH_COMMON_H_
#define PIPEBENCH_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "trace.h"

namespace pipebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;  ///< small inputs; the benchmark's own tests use it
  std::string revision = "unknown";
};

/// One reported number and what it was measured on.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string basis;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::map<std::string, Metric> end_to_end;  ///< printed with --trace 0
  std::map<std::string, Metric> layers;      ///< printed with --trace 1
  /// The workload's metrics under the names its users know them by
  /// (train_s, serve_p99_us, swap_lag_s, ...), printed on the report line.
  std::map<std::string, Metric> named;
  /// Sizes, thread and connection counts: name -> raw JSON value.
  std::map<std::string, std::string> config;

  /// Counts one operation; a failed one counts against the failed share.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A correctness gate: a false `ok` makes the run incorrect.
  void Gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

/// Counts the operation that produced `value` and returns its value; a
/// failed operation aborts the run.
template <typename T>
const T& Require(const pnr::StatusOr<T>& value, const char* what,
                 Result* result) {
  result->Count(value.ok());
  if (!value.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             value.status().ToString());
  }
  return *value;
}

/// Wall times of one run's passes.
struct PassTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
};

constexpr size_t kSetupRepeats = 3;

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);
/// Nearest-rank quantile `q` of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
/// The highest of p50, p90, p99, p99.9 and p99.99 with at least ten of
/// `count` samples beyond it.
double TailQuantile(size_t count);
/// `q` as a percentile label: 0.999 -> "99.9".
std::string FormatQuantile(double q);

/// Builds a set-up kSetupRepeats times, reports the median as setup_s, and
/// returns the last one. `make` returns a std::unique_ptr; the previous
/// set-up is torn down before the next one is timed.
template <typename Make>
auto RepeatSetup(Make&& make, Result* result) {
  decltype(make()) state;
  std::vector<double> times;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = make();
    times.push_back(Seconds(start, Clock::now()));
  }
  result->end_to_end["setup_s"] = {Median(times), "s",
                                   "wall, median of 3 set-ups in the run"};
  return state;
}

/// Calls `pass(traced)` until at least `min_passes` passes ran and
/// `options.seconds` elapsed. With --trace 1 the passes alternate untraced
/// and traced (at least two of each), so one run yields the ledger, the
/// trace overhead, and an untraced-versus-traced identity check. Traced
/// passes run inside a root span named "pass".
template <typename Pass>
PassTimes RunPasses(const Options& options, size_t min_passes, Tracer* tracer,
                    Pass&& pass) {
  if (options.trace) min_passes = std::max<size_t>(min_passes, 4);
  PassTimes times;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    tracer->set_enabled(traced);
    const Clock::time_point pass_start = Clock::now();
    {
      Tracer::Scope root(tracer, "pass");
      pass(traced);
    }
    (traced ? times.traced : times.untraced)
        .push_back(Seconds(pass_start, Clock::now()));
    tracer->set_enabled(false);
    if (i + 1 >= min_passes && Seconds(start, Clock::now()) >= options.seconds) {
      break;
    }
  }
  return times;
}

/// Adds one metric per layer span, residual_s, trace.total_s and
/// trace.overhead_s to result->layers, and gates that the spans nest and no
/// self time is negative.
void AddLedger(const Tracer& tracer, const PassTimes& times, Result* result);

/// Feeds the ledger gate a pass with two overlapping spans and fails the
/// run unless the gate trips; --quick runs it.
void SelfTestLedgerGate(Result* result);

/// Seed of the generated datasets. Full-size runs use one fixed dataset per
/// workload, so every seed measures the same work and the same models and
/// the run's --seed picks only the order rows are scored or requested in
/// and the feed's fragment size. --quick draws the datasets from --seed
/// too, so the self-test's second seed checks the gates on other data.
uint64_t DataSeed(const Options& options);

/// An independent seed for `stream` derived from `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// 0..count-1 in a pseudo-random order drawn from `seed`.
std::vector<pnr::RowId> ShuffledRows(size_t count, uint64_t seed);

/// CPUs this process may run on (what `nproc` prints).
size_t HardwareThreads();
double PeakRssMb();

/// Rows [begin, end) of `data` as CSV with 17 significant digits and the
/// class column last, after a header line when `header` is set.
std::string RenderCsv(const pnr::Dataset& data, size_t begin, size_t end,
                      bool header);

/// Rows [begin, end) of `data` as a new in-RAM dataset with its schema.
pnr::Dataset CopyRows(const pnr::Dataset& data, size_t begin, size_t end);

std::string ReadFileBytes(const std::string& path);

/// kdd_sim training rows followed by held-out rows, as one CSV: ingesting
/// the whole text gives both splits one schema.
struct KddCsv {
  std::string text;
  size_t train_rows = 0;
};
KddCsv MakeKddCsv(uint64_t seed, size_t train_rows, size_t test_rows);

/// A scratch directory under .bench_run/ in the working directory (the
/// checkout), removed when the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The workloads; each fills `result` for one run.
void RunTrainKdd(const Options& options, Result* result);
void RunServeSyngen(const Options& options, Result* result);
void RunStreamDriftKdd(const Options& options, Result* result);
void RunBaselinesKdd(const Options& options, Result* result);

}  // namespace pipebench

#endif  // PIPEBENCH_COMMON_H_
