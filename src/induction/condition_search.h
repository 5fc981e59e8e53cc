// Greedy search for the best single condition to append to a rule.
//
// All learners grow rules one conjunct at a time; they differ only in the
// scoring function (PNrule: Z-number against the remaining-data
// distribution; RIPPER: FOIL gain against the parent rule). The search
// enumerates:
//   - every categorical value test (attr = v),
//   - every one-sided numeric cut (attr <= c, attr > c) via a single scan of
//     the rows sorted on the attribute,
//   - and, when enabled, a range condition (vl < attr <= vr) found with the
//     paper's one-extra-scan procedure: fix the limit of the better
//     one-sided condition and scan for the opposite limit.
//
// ConditionSearchEngine is the stateful fast path: it keeps a per-dataset
// SortedColumnCache (each numeric attribute sorted once, prefix sums derived
// per refinement instead of re-sorting; each categorical attribute's codes
// copied once) and a thread pool that evaluates the attributes of one call
// in parallel. The same cache answers a condition's coverage and
// the dataset's possible-condition count, so a learner that holds an
// engine reads each dataset column once per engine. Results are reduced
// under a total order on candidates — (score, attr index, condition kind,
// cut value) — so a parallel search returns bit-identical results to a
// serial one, for any thread count.

#ifndef PNR_INDUCTION_CONDITION_SEARCH_H_
#define PNR_INDUCTION_CONDITION_SEARCH_H_

#include <atomic>
#include <functional>
#include <optional>

#include "common/thread_pool.h"
#include "induction/sorted_column_cache.h"
#include "rules/rule.h"

namespace pnr {

/// A scored candidate refinement.
struct CandidateCondition {
  Condition condition;
  RuleStats stats;     ///< coverage of the refined rule over the search rows
  double value = 0.0;  ///< scorer value (higher is better)
};

/// The deterministic total order used to reduce per-attribute results:
/// higher score first, ties broken by lower attribute index, then condition
/// kind (categorical, <=, >, range), then cut value / category. Exposed for
/// the determinism tests.
bool CandidateBetter(const CandidateCondition& a, const CandidateCondition& b);

/// Scores the stats of the refined rule; return -infinity to reject.
/// When the search runs multi-threaded the scorer is invoked concurrently
/// from pool workers and must be thread-safe (the built-in metrics are pure
/// functions and qualify).
using ConditionScorer = std::function<double(const RuleStats&)>;

/// Knobs for FindBestCondition.
struct ConditionSearchOptions {
  /// Evaluate explicit range conditions on numeric attributes (the paper's
  /// extra-scan method). When false only one-sided cuts are considered.
  bool enable_range_conditions = true;

  /// Candidates whose covered weight is below this are skipped (PNrule's
  /// minimum-support constraint).
  double min_covered_weight = 0.0;

  /// Candidates whose covered *positive* weight is below this are skipped.
  double min_positive_weight = 0.0;
};

/// Reusable search engine bound to one dataset.
///
/// Construct once per training run — or once per one-vs-rest committee:
/// nothing cached depends on the target class except the full-row prefix
/// sums — and issue every FindBest through it: the sorted-column cache then
/// amortizes all O(n log n) sorting across the run's refinement calls.
/// Calls must be issued serially from one thread (the engine parallelizes
/// internally).
class ConditionSearchEngine {
 public:
  /// `num_threads`: 1 = serial, 0 = hardware concurrency, n = n workers.
  /// `cache_budget_bytes` caps the sorted-column cache's resident bytes
  /// (0 = unbounded); out-of-core training sets it so the cache spills
  /// instead of growing to O(attrs x rows). Any budget yields bit-identical
  /// results — evicted slots are rebuilt deterministically.
  explicit ConditionSearchEngine(const Dataset& dataset,
                                 size_t num_threads = 1,
                                 size_t cache_budget_bytes = 0);

  const Dataset& dataset() const { return dataset_; }

  /// Resolved thread count (never 0).
  size_t num_threads() const { return num_threads_; }

  /// Cache introspection for tests and diagnostics.
  const SortedColumnCache& cache() const { return cache_; }

  /// Finds the highest-scoring condition over `rows` (the records matched
  /// by the rule being grown). Returns nullopt when no candidate is
  /// admissible. Candidates that cover all of `rows` are skipped (they
  /// would not refine the rule), as are candidates covering nothing.
  std::optional<CandidateCondition> FindBest(
      const RowSubset& rows, CategoryId target, const ConditionScorer& scorer,
      const ConditionSearchOptions& options = {});

  /// The rows of `rows` that satisfy `condition`, in their order in `rows`
  /// — exactly the rows Condition::Matches accepts, NaN cells included.
  /// Read from the cache: a categorical test reads the code copy, a numeric
  /// one the row's sorted value (a NaN cell ranks past every number, and
  /// no numeric condition matches it).
  RowSubset CoveredRows(const Condition& condition, const RowSubset& rows);

  /// The `n` of the MDL theory cost (CountPossibleConditions), computed once
  /// per data_version from the cache: a numeric column's distinct values
  /// are counted when its order is built. Columns the zonemap proves
  /// constant contribute nothing and are not read; orders not built yet are
  /// built in parallel, as by a search over every row.
  double PossibleConditions();

  /// Numeric attribute scans skipped because the dataset's zonemap range
  /// hint proves the column constant (a constant column yields no cut,
  /// hence no candidates — skipping it never changes the result, but
  /// avoids faulting and sorting the column).
  uint64_t pruned_attr_scans() const { return pruned_attr_scans_.load(); }

 private:
  /// Runs `body(a)` for every attribute index: on the pool when `rows` rows
  /// justify more than one thread, else serially.
  void ForEachAttribute(size_t rows, const std::function<void(size_t)>& body);

  const Dataset& dataset_;
  size_t num_threads_;
  SortedColumnCache cache_;
  ThreadPool pool_;                           ///< no workers when serial
  std::vector<SortedColumn> scratch_columns_; ///< one per attribute
  std::vector<uint8_t> membership_;           ///< row mask scratch
  std::atomic<uint64_t> pruned_attr_scans_{0};
  double possible_conditions_ = 0.0;
  uint64_t possible_conditions_version_ = 0;
  bool possible_conditions_valid_ = false;
};

/// One-shot convenience wrapper: builds a transient serial engine and runs
/// a single search. Training loops should hold a ConditionSearchEngine
/// instead so column sorts are cached across refinements.
std::optional<CandidateCondition> FindBestCondition(
    const Dataset& dataset, const RowSubset& rows, CategoryId target,
    const ConditionScorer& scorer, const ConditionSearchOptions& options = {});

}  // namespace pnr

#endif  // PNR_INDUCTION_CONDITION_SEARCH_H_
