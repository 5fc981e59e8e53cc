#include "induction/condition_search.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "induction/mdl.h"

namespace pnr {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;

int ConditionKindRank(ConditionOp op) {
  switch (op) {
    case ConditionOp::kCatEqual:
      return 0;
    case ConditionOp::kLessEqual:
      return 1;
    case ConditionOp::kGreater:
      return 2;
    case ConditionOp::kInRange:
      return 3;
  }
  return 4;
}

// Mutable per-attribute search state. Each attribute is scanned by exactly
// one thread, which accumulates its own best candidate; the engine then
// reduces the per-attribute winners under CandidateBetter.
struct SearchState {
  const ConditionScorer* scorer = nullptr;
  const ConditionSearchOptions* options = nullptr;
  double total_weight = 0.0;
  std::optional<CandidateCondition> best;

  // Scores `stats`; records the candidate if it is admissible and improves
  // on the best so far. Returns the score (kNegInf if inadmissible).
  double Consider(const Condition& condition, const RuleStats& stats) {
    if (stats.covered <= kEps) return kNegInf;
    if (stats.covered >= total_weight - kEps) return kNegInf;  // no refinement
    if (stats.covered < options->min_covered_weight - kEps) return kNegInf;
    if (stats.positive < options->min_positive_weight - kEps) return kNegInf;
    const double value = (*scorer)(stats);
    if (!std::isfinite(value)) return kNegInf;
    // CandidateBetter ranks by value first: a lower value never wins.
    if (best.has_value() && value < best->value) return value;
    const CandidateCondition candidate{condition, stats, value};
    if (!best.has_value() || CandidateBetter(candidate, *best)) {
      best = candidate;
    }
    return value;
  }
};

void ScanCategorical(const Dataset& dataset,
                     const std::vector<CategoryId>& codes,
                     const RowSubset& rows, CategoryId target, AttrIndex attr,
                     SearchState* state) {
  const size_t num_categories =
      dataset.schema().attribute(attr).num_categories();
  if (num_categories == 0) return;
  std::vector<double> weight(num_categories, 0.0);
  std::vector<double> positive(num_categories, 0.0);
  for (RowId row : rows) {
    const CategoryId c = codes[row];
    if (c == kInvalidCategory) continue;
    const double w = dataset.weight(row);
    weight[static_cast<size_t>(c)] += w;
    if (dataset.label(row) == target) positive[static_cast<size_t>(c)] += w;
  }
  for (size_t c = 0; c < num_categories; ++c) {
    if (weight[c] <= kEps) continue;
    RuleStats stats;
    stats.covered = weight[c];
    stats.positive = positive[c];
    state->Consider(
        Condition::CatEqual(attr, static_cast<CategoryId>(c)), stats);
  }
}

// Stats of the slice [from, to) of the sorted column.
RuleStats SliceStats(const SortedColumn& col, size_t from, size_t to) {
  RuleStats stats;
  stats.covered = col.prefix_weight[to] - col.prefix_weight[from];
  stats.positive = col.prefix_positive[to] - col.prefix_positive[from];
  return stats;
}

void ScanNumeric(const SortedColumn& col, AttrIndex attr,
                 SearchState* state) {
  const size_t groups = col.size();
  if (groups < 2) return;  // constant attribute: no cut

  // Single scan: best one-sided conditions. Every group start but the
  // first is a cut.
  double best_le_value = kNegInf;
  double best_gt_value = kNegInf;
  size_t best_le_cut = 0;
  size_t best_gt_cut = 0;
  for (size_t b = 1; b < groups; ++b) {
    const double cut = col.CutValue(b);
    const double le_value =
        state->Consider(Condition::LessEqual(attr, cut), SliceStats(col, 0, b));
    if (le_value > best_le_value) {
      best_le_value = le_value;
      best_le_cut = b;
    }
    const double gt_value = state->Consider(Condition::Greater(attr, cut),
                                            SliceStats(col, b, groups));
    if (gt_value > best_gt_value) {
      best_gt_value = gt_value;
      best_gt_cut = b;
    }
  }

  if (!state->options->enable_range_conditions) return;
  if (!std::isfinite(best_le_value) && !std::isfinite(best_gt_value)) return;

  // Extra scan for a range condition (paper, section 2.2): fix the limit of
  // the better one-sided condition, scan for the opposite limit. The lower
  // limit uses the round-up cut because kInRange's lower test is inclusive.
  if (best_gt_value >= best_le_value) {
    // Fix the left limit vl = cut(best_gt_cut); scan right limits.
    const size_t left = best_gt_cut;
    const double lo = col.LowerCutValue(left);
    for (size_t b = left + 1; b < groups; ++b) {
      state->Consider(Condition::InRange(attr, lo, col.CutValue(b)),
                      SliceStats(col, left, b));
    }
  } else {
    // Fix the right limit vr = cut(best_le_cut); scan left limits.
    const size_t right = best_le_cut;
    const double hi = col.CutValue(right);
    for (size_t b = 1; b < right; ++b) {
      state->Consider(Condition::InRange(attr, col.LowerCutValue(b), hi),
                      SliceStats(col, b, right));
    }
  }
}

// True when the dataset's zonemap range hint for numeric `attr` is a single
// finite point: every non-NaN cell holds that value, so the column has no
// cut and at most one distinct value.
bool ConstantByHint(const Dataset& dataset, AttrIndex attr) {
  const std::vector<std::pair<double, double>>& hints =
      dataset.numeric_range_hints();
  if (hints.empty()) return false;
  const std::pair<double, double>& hint = hints[static_cast<size_t>(attr)];
  return std::isfinite(hint.first) && hint.first == hint.second;
}

}  // namespace

bool CandidateBetter(const CandidateCondition& a, const CandidateCondition& b) {
  if (a.value != b.value) return a.value > b.value;
  if (a.condition.attr != b.condition.attr) {
    return a.condition.attr < b.condition.attr;
  }
  const int rank_a = ConditionKindRank(a.condition.op);
  const int rank_b = ConditionKindRank(b.condition.op);
  if (rank_a != rank_b) return rank_a < rank_b;
  if (a.condition.category != b.condition.category) {
    return a.condition.category < b.condition.category;
  }
  if (a.condition.lo != b.condition.lo) return a.condition.lo < b.condition.lo;
  return a.condition.hi < b.condition.hi;
}

ConditionSearchEngine::ConditionSearchEngine(const Dataset& dataset,
                                            size_t num_threads,
                                            size_t cache_budget_bytes)
    : dataset_(dataset),
      num_threads_(ThreadPool::ResolveThreadCount(num_threads)),
      cache_(dataset),
      pool_(num_threads_),
      scratch_columns_(dataset.schema().num_attributes()) {
  cache_.set_memory_budget(cache_budget_bytes);
}

std::optional<CandidateCondition> ConditionSearchEngine::FindBest(
    const RowSubset& rows, CategoryId target, const ConditionScorer& scorer,
    const ConditionSearchOptions& options) {
  if (rows.empty()) return std::nullopt;

  const Schema& schema = dataset_.schema();
  const size_t num_attrs = schema.num_attributes();
  const double total_weight = dataset_.TotalWeight(rows);

  // Membership mask, read-only during the parallel phase. Only needed when
  // `rows` is a strict subset served via the cached sorted orders.
  const bool full = rows.size() == dataset_.num_rows();
  if (!full) {
    membership_.assign(dataset_.num_rows(), 0);
    for (RowId row : rows) membership_[row] = 1;
  }

  // Per-attribute winners: each slot written by exactly one task.
  std::vector<std::optional<CandidateCondition>> results(num_attrs);
  const auto scan_attribute = [&](size_t a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    SearchState state;
    state.scorer = &scorer;
    state.options = &options;
    state.total_weight = total_weight;
    // No column pin: the cache reads the dataset column only while it
    // builds the attribute's slot, and pins it itself for that.
    if (schema.attribute(attr).is_categorical()) {
      SortedColumnCache::AttrPin cache_pin = cache_.Pin(attr);
      ScanCategorical(dataset_, cache_.Codes(attr), rows, target, attr,
                      &state);
    } else {
      // Zonemap pruning: a constant column has no cut and thus no
      // candidates, so the scan is skipped without faulting or sorting it.
      if (ConstantByHint(dataset_, attr)) {
        pruned_attr_scans_.fetch_add(1);
        return;
      }
      SortedColumnCache::AttrPin cache_pin = cache_.Pin(attr);
      const SortedColumn& col = cache_.Column(attr, target, rows, membership_,
                                              &scratch_columns_[a]);
      ScanNumeric(col, attr, &state);
    }
    results[a] = std::move(state.best);
  };

  ForEachAttribute(rows.size(), scan_attribute);

  // Deterministic reduction: attribute order plus the CandidateBetter total
  // order makes the result independent of task scheduling.
  std::optional<CandidateCondition> best;
  for (size_t a = 0; a < num_attrs; ++a) {
    if (!results[a].has_value()) continue;
    if (!best.has_value() || CandidateBetter(*results[a], *best)) {
      best = std::move(results[a]);
    }
  }
  return best;
}

void ConditionSearchEngine::ForEachAttribute(
    size_t rows, const std::function<void(size_t)>& body) {
  // Small subsets are not worth fanning out: per-task overhead dominates
  // (BENCH_condition_search.json shows multi-thread configs losing to the
  // serial scan at 20k rows), so clamp by the shared rows-per-thread
  // heuristic and fall back to the serial loop.
  const size_t num_attrs = dataset_.schema().num_attributes();
  if (ThreadPool::ClampThreadsForRows(num_threads_, rows) > 1) {
    pool_.ParallelFor(num_attrs, body);
  } else {
    for (size_t a = 0; a < num_attrs; ++a) body(a);
  }
}

RowSubset ConditionSearchEngine::CoveredRows(const Condition& condition,
                                             const RowSubset& rows) {
  const SortedColumnCache::AttrPin pin = cache_.Pin(condition.attr);
  RowSubset out;
  if (condition.op == ConditionOp::kCatEqual) {
    const std::vector<CategoryId>& codes = cache_.Codes(condition.attr);
    for (RowId row : rows) {
      if (codes[row] == condition.category) out.push_back(row);
    }
    return out;
  }
  const std::vector<double>& values = cache_.SortedValues(condition.attr);
  const std::vector<uint32_t>& ranks = cache_.Ranks(condition.attr);
  for (RowId row : rows) {
    const uint32_t rank = ranks[row];
    if (rank < values.size() && condition.MatchesNumber(values[rank])) {
      out.push_back(row);
    }
  }
  return out;
}

double ConditionSearchEngine::PossibleConditions() {
  if (possible_conditions_valid_ &&
      possible_conditions_version_ == dataset_.data_version()) {
    return possible_conditions_;
  }
  // Distinct counts of the numeric attributes. One whose order is not
  // built yet is built here, over every row, so fan out like a search over
  // every row would; each attribute is handled by one task.
  const Schema& schema = dataset_.schema();
  std::vector<size_t> distinct(schema.num_attributes(), 0);
  ForEachAttribute(dataset_.num_rows(), [&](size_t a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    if (!schema.attribute(attr).is_numeric()) return;
    if (ConstantByHint(dataset_, attr)) {
      distinct[a] = 1;
      return;
    }
    const SortedColumnCache::AttrPin pin = cache_.Pin(attr);
    distinct[a] = cache_.DistinctValues(attr);
  });
  possible_conditions_ =
      PossibleConditionCount(schema, [&distinct](AttrIndex attr) {
        return distinct[static_cast<size_t>(attr)];
      });
  possible_conditions_version_ = dataset_.data_version();
  possible_conditions_valid_ = true;
  return possible_conditions_;
}

std::optional<CandidateCondition> FindBestCondition(
    const Dataset& dataset, const RowSubset& rows, CategoryId target,
    const ConditionScorer& scorer, const ConditionSearchOptions& options) {
  ConditionSearchEngine engine(dataset);
  return engine.FindBest(rows, target, scorer, options);
}

}  // namespace pnr
