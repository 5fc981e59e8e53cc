#include "rules/compiled_rule_set.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <tuple>
#include <type_traits>

#include "rules/cmp_span.h"

namespace pnr {
namespace {

/// Resolved once per process; every tier computes identical bits, so the
/// choice never affects results.
const CmpSpanFn kCmpSpan = ActiveCmpSpanKernel().span;

/// A threshold under a strict total order: numbers compare as doubles
/// (-0.0 == 0.0), and every NaN equals every other NaN and sorts last. A
/// NaN threshold fails every comparison whatever its payload, so merging
/// NaN thresholds never changes a match.
struct Threshold {
  double v;
  friend bool operator<(Threshold a, Threshold b) {
    return !std::isnan(a.v) && (std::isnan(b.v) || a.v < b.v);
  }
  friend bool operator==(Threshold a, Threshold b) {
    return std::isnan(a.v) ? std::isnan(b.v) : a.v == b.v;
  }
};

/// Total order grouping conditions by attribute (then op, then operands);
/// also the dedup equality key. Exact double comparison is intentional:
/// conditions are only shared when structurally identical, the same
/// contract as Condition::operator== (NaN thresholds aside, see Threshold).
template <typename C>  // Condition or CompiledCondition
auto ConditionKey(const C& c) {
  return std::make_tuple(c.attr, static_cast<int>(c.op), c.category,
                         Threshold{c.lo}, Threshold{c.hi});
}

/// Below this candidate density the per-row walk beats full-block scans:
/// the dense path costs one column pass per attribute group regardless of
/// how few rows need resolving.
constexpr size_t kSparseDivisor = 8;

/// A rule whose partial mask holds fewer than count / kSparseFinishFactor
/// rows finishes its remaining conjuncts row-by-row instead of
/// materializing more full-block condition masks. Deterministic: the
/// decision depends only on block contents, never on thread count.
constexpr size_t kSparseFinishFactor = 4;

}  // namespace

CompiledRuleSet CompiledRuleSet::Compile(
    const std::vector<const RuleSet*>& lists) {
  CompiledRuleSet compiled;

  // Collect and sort the distinct conditions of every list so the
  // evaluation sweep visits columns in attribute order (each column's data
  // stays hot while all its conditions evaluate) with same-op runs
  // contiguous inside each group.
  std::vector<Condition> unique;
  for (const RuleSet* rules : lists) {
    for (const Rule& rule : rules->rules()) {
      for (const Condition& c : rule.conditions()) unique.push_back(c);
    }
  }
  std::sort(unique.begin(), unique.end(),
            [](const Condition& a, const Condition& b) {
              return ConditionKey(a) < ConditionKey(b);
            });
  unique.erase(std::unique(unique.begin(), unique.end(),
                           [](const Condition& a, const Condition& b) {
                             return ConditionKey(a) == ConditionKey(b);
                           }),
               unique.end());

  compiled.conditions_.reserve(unique.size());
  for (const Condition& c : unique) {
    compiled.conditions_.push_back(
        CompiledCondition{c.attr, c.op, c.category, c.lo, c.hi});
  }

  // Attribute groups; categorical groups also get a category ->
  // group-local-slot table so one column scan resolves every equality test
  // of the group with one lookup per row.
  compiled.condition_group_.resize(compiled.conditions_.size());
  for (uint32_t ci = 0; ci < compiled.conditions_.size();) {
    AttrGroup group;
    group.attr = compiled.conditions_[ci].attr;
    group.begin = ci;
    while (ci < compiled.conditions_.size() &&
           compiled.conditions_[ci].attr == group.attr) {
      ++ci;
    }
    group.end = ci;
    group.categorical =
        compiled.conditions_[group.begin].op == ConditionOp::kCatEqual;
    if (group.categorical) {
      CategoryId max_category = -1;
      for (uint32_t j = group.begin; j < group.end; ++j) {
        max_category =
            std::max(max_category, compiled.conditions_[j].category);
      }
      group.lookup_begin = static_cast<uint32_t>(compiled.cat_lookup_.size());
      group.lookup_size = static_cast<uint32_t>(max_category + 1);
      compiled.cat_lookup_.resize(compiled.cat_lookup_.size() +
                                      group.lookup_size,
                                  -1);
      for (uint32_t j = group.begin; j < group.end; ++j) {
        compiled.cat_lookup_[group.lookup_begin +
                             static_cast<uint32_t>(
                                 compiled.conditions_[j].category)] =
            static_cast<int32_t>(j - group.begin);
      }
    }
    for (uint32_t j = group.begin; j < group.end; ++j) {
      compiled.condition_group_[j] =
          static_cast<uint32_t>(compiled.groups_.size());
    }
    compiled.groups_.push_back(group);
  }

  // Each rule becomes a span of indices into the unique-condition array,
  // sorted ascending (conjunction order is irrelevant; ascending keeps mask
  // lookups attribute-grouped too); each list a span of rules.
  for (const RuleSet* rules : lists) {
    Span list;
    list.begin = static_cast<uint32_t>(compiled.rules_.size());
    for (const Rule& rule : rules->rules()) {
      Span span;
      span.begin = static_cast<uint32_t>(compiled.rule_conditions_.size());
      for (const Condition& c : rule.conditions()) {
        compiled.rule_conditions_.push_back(
            static_cast<uint32_t>(compiled.ConditionIndex(c)));
      }
      span.end = static_cast<uint32_t>(compiled.rule_conditions_.size());
      std::sort(compiled.rule_conditions_.begin() + span.begin,
                compiled.rule_conditions_.end());
      compiled.rules_.push_back(span);
    }
    list.end = static_cast<uint32_t>(compiled.rules_.size());
    compiled.lists_.push_back(list);
  }
  return compiled;
}

int32_t CompiledRuleSet::ConditionIndex(const Condition& condition) const {
  const auto key = ConditionKey(condition);
  const auto it = std::lower_bound(
      conditions_.begin(), conditions_.end(), key,
      [](const CompiledCondition& c, const auto& k) {
        return ConditionKey(c) < k;
      });
  if (it == conditions_.end() || ConditionKey(*it) != key) return -1;
  return static_cast<int32_t>(it - conditions_.begin());
}

void CompiledRuleSet::BeginBlock(const Dataset& dataset, const RowId* rows,
                                 size_t count, Scratch* scratch) const {
  scratch->program = this;
  scratch->dataset = &dataset;
  scratch->rows = rows;
  scratch->count = count;
  scratch->rows_consecutive = true;
  for (size_t i = 1; i < count; ++i) {
    if (rows[i] != rows[0] + i) {
      scratch->rows_consecutive = false;
      break;
    }
  }
  // A demand-paged dataset can evict column A while column B faults in, so
  // hoisted raw pointers may dangle mid-block — and every fault decodes a
  // whole column, so per-row walks that touch many columns thrash the
  // pager. Paged blocks therefore always run the dense path with whole
  // groups: each attribute faults at most once per block, its values are
  // read (or gathered) right after its own fault, and every condition on it
  // is swept with nothing else faulting in between. The sparse shortcuts
  // (identical results, different evaluation order) stay pointer-hoisted
  // and are skipped when paged.
  scratch->whole_groups = dataset.paged();
  scratch->condition_masks.resize(conditions_.size());
  scratch->evaluated.assign(conditions_.size(), 0);
  scratch->gathered.assign(groups_.size(), 0);
  const size_t slots = scratch->whole_groups ? 1 : groups_.size();
  if (scratch->gathered_numeric.size() < slots) {
    scratch->gathered_numeric.resize(slots);
    scratch->gathered_categorical.resize(slots);
  }
  scratch->cols_hoisted = false;
}

void CompiledRuleSet::HoistColumns(Scratch* scratch) const {
  if (scratch->cols_hoisted) return;
  const Dataset& dataset = *scratch->dataset;
  scratch->cond_cols.resize(conditions_.size());
  for (size_t i = 0; i < conditions_.size(); ++i) {
    const CompiledCondition& c = conditions_[i];
    scratch->cond_cols[i] =
        c.op == ConditionOp::kCatEqual
            ? static_cast<const void*>(
                  dataset.categorical_column(c.attr).data())
            : static_cast<const void*>(dataset.numeric_column(c.attr).data());
  }
  scratch->cols_hoisted = true;
}

std::vector<BitMask> CompiledRuleSet::ConditionMasks(const Dataset& dataset,
                                                     const RowId* rows,
                                                     size_t count) const {
  Scratch scratch;
  BeginBlock(dataset, rows, count, &scratch);
  scratch.whole_groups = true;  // one gathered copy at a time
  // Conditions are grouped by attribute, so each column is swept while it
  // is the one most recently touched.
  if (count > 0) {
    for (uint32_t ci = 0; ci < conditions_.size(); ++ci) {
      EnsureCondition(ci, &scratch);
    }
  }
  return std::move(scratch.condition_masks);
}

template <typename T>
const T* CompiledRuleSet::BlockValues(uint32_t g, Scratch* scratch) const {
  constexpr bool kNumeric = std::is_same_v<T, double>;
  const size_t slot = scratch->whole_groups ? 0 : g;
  std::vector<T>* copy = nullptr;
  if constexpr (kNumeric) {
    copy = &scratch->gathered_numeric[slot];
  } else {
    copy = &scratch->gathered_categorical[slot];
  }
  if (scratch->gathered[g]) return copy->data();
  const T* col = nullptr;
  if constexpr (kNumeric) {
    col = scratch->dataset->numeric_column(groups_[g].attr).data();
  } else {
    col = scratch->dataset->categorical_column(groups_[g].attr).data();
  }
  const RowId* rows = scratch->rows;
  if (scratch->rows_consecutive) return col + rows[0];
  // Scattered rows: one gather per attribute and block, after which every
  // condition of every list sweeps the copy with the contiguous kernels.
  // Whole-group sweeps need each group's values once, so they share slot 0
  // and never mark a group as gathered.
  copy->resize(scratch->count);
  for (size_t i = 0; i < scratch->count; ++i) (*copy)[i] = col[rows[i]];
  if (!scratch->whole_groups) scratch->gathered[g] = 1;
  return copy->data();
}

void CompiledRuleSet::EvalCategoricalGroup(uint32_t g,
                                           Scratch* scratch) const {
  // Build all of the group's masks 64 rows at a time: one word accumulator
  // per condition, the value loaded (and looked up) once per row.
  const AttrGroup& group = groups_[g];
  const size_t count = scratch->count;
  const size_t group_size = group.end - group.begin;
  std::vector<uint64_t>& acc = scratch->acc;
  if (acc.size() < group_size) acc.resize(group_size);
  const size_t num_words = (count + 63) / 64;
  const CategoryId* values = BlockValues<CategoryId>(g, scratch);
  const int32_t* lookup = cat_lookup_.data() + group.lookup_begin;
  size_t i = 0;
  for (size_t w = 0; w < num_words; ++w) {
    std::fill_n(acc.begin(), group_size, uint64_t{0});
    const size_t limit = std::min<size_t>(64, count - i);
    for (size_t b = 0; b < limit; ++b, ++i) {
      const CategoryId v = values[i];
      if (v >= 0 && static_cast<uint32_t>(v) < group.lookup_size) {
        const int32_t slot = lookup[v];
        if (slot >= 0) acc[static_cast<size_t>(slot)] |= uint64_t{1} << b;
      }
    }
    for (size_t k = 0; k < group_size; ++k) {
      scratch->condition_masks[group.begin + k].set_block(w, acc[k]);
    }
  }
}

void CompiledRuleSet::EvalNumericCondition(uint32_t ci, const double* values,
                                           Scratch* scratch) const {
  // One sweep per condition: the runtime-dispatched SIMD kernel packs
  // comparisons of the contiguous block values 2–8 doubles at a time.
  const CompiledCondition& c = conditions_[ci];
  CmpKind kind = CmpKind::kLe;
  switch (c.op) {
    case ConditionOp::kLessEqual:
      kind = CmpKind::kLe;
      break;
    case ConditionOp::kGreater:
      kind = CmpKind::kGt;
      break;
    case ConditionOp::kInRange:
      kind = CmpKind::kRange;
      break;
    case ConditionOp::kCatEqual:
      return;  // unreachable: EnsureCondition routes these to the group scan
  }
  const size_t count = scratch->count;
  const size_t num_words = (count + 63) / 64;
  std::vector<uint64_t>& acc = scratch->acc;
  if (acc.size() < num_words) acc.resize(num_words);
  kCmpSpan(values, count, c.lo, c.hi, kind, acc.data());
  BitMask& mask = scratch->condition_masks[ci];
  for (size_t w = 0; w < num_words; ++w) mask.set_block(w, acc[w]);
}

void CompiledRuleSet::EnsureCondition(uint32_t ci, Scratch* scratch) const {
  if (scratch->evaluated[ci]) return;
  const size_t count = scratch->count;
  const uint32_t g = condition_group_[ci];
  const AttrGroup& group = groups_[g];
  if (group.categorical) {
    for (uint32_t j = group.begin; j < group.end; ++j) {
      BitMask& mask = scratch->condition_masks[j];
      if (mask.size() != count) mask = BitMask(count);
    }
    EvalCategoricalGroup(g, scratch);
    for (uint32_t j = group.begin; j < group.end; ++j) {
      scratch->evaluated[j] = 1;
    }
    return;
  }
  const double* values = BlockValues<double>(g, scratch);
  const uint32_t begin = scratch->whole_groups ? group.begin : ci;
  const uint32_t end = scratch->whole_groups ? group.end : ci + 1;
  for (uint32_t j = begin; j < end; ++j) {
    if (scratch->evaluated[j]) continue;
    BitMask& mask = scratch->condition_masks[j];
    if (mask.size() != count) mask = BitMask(count);
    EvalNumericCondition(j, values, scratch);
    scratch->evaluated[j] = 1;
  }
}

namespace {

/// Per-row test against a hoisted raw column pointer; semantically
/// identical to CompiledRuleSet::MatchesRow / Condition::Matches.
inline bool MatchesRowCol(const void* col, ConditionOp op, CategoryId category,
                          double lo, double hi, RowId row) {
  switch (op) {
    case ConditionOp::kCatEqual:
      return static_cast<const CategoryId*>(col)[row] == category;
    case ConditionOp::kLessEqual:
      return static_cast<const double*>(col)[row] <= hi;
    case ConditionOp::kGreater:
      return static_cast<const double*>(col)[row] > lo;
    case ConditionOp::kInRange: {
      const double v = static_cast<const double*>(col)[row];
      return v >= lo && v <= hi;
    }
  }
  return false;
}

}  // namespace

int32_t CompiledRuleSet::FirstMatchRowCols(const Span& list,
                                           const Scratch& scratch,
                                           RowId row) const {
  for (uint32_t r = list.begin; r < list.end; ++r) {
    bool matched = true;
    for (uint32_t i = rules_[r].begin; i < rules_[r].end; ++i) {
      const uint32_t ci = rule_conditions_[i];
      const CompiledCondition& c = conditions_[ci];
      if (!MatchesRowCol(scratch.cond_cols[ci], c.op, c.category, c.lo, c.hi,
                         row)) {
        matched = false;
        break;
      }
    }
    if (matched) return static_cast<int32_t>(r - list.begin);
  }
  return static_cast<int32_t>(kNoRule);
}

bool CompiledRuleSet::MatchesRow(const CompiledCondition& c,
                                 const Dataset& dataset, RowId row) const {
  switch (c.op) {
    case ConditionOp::kCatEqual:
      return dataset.categorical_column(c.attr)[row] == c.category;
    case ConditionOp::kLessEqual:
      return dataset.numeric_column(c.attr)[row] <= c.hi;
    case ConditionOp::kGreater:
      return dataset.numeric_column(c.attr)[row] > c.lo;
    case ConditionOp::kInRange: {
      const double v = dataset.numeric_column(c.attr)[row];
      return v >= c.lo && v <= c.hi;
    }
  }
  return false;
}

int32_t CompiledRuleSet::FirstMatchRow(size_t list, const Dataset& dataset,
                                       RowId row) const {
  const Span& span = lists_[list];
  for (uint32_t r = span.begin; r < span.end; ++r) {
    bool matched = true;
    for (uint32_t i = rules_[r].begin; i < rules_[r].end; ++i) {
      if (!MatchesRow(conditions_[rule_conditions_[i]], dataset, row)) {
        matched = false;
        break;
      }
    }
    if (matched) return static_cast<int32_t>(r - span.begin);
  }
  return static_cast<int32_t>(kNoRule);
}

void CompiledRuleSet::FirstMatchBlock(size_t list, int32_t* out,
                                      Scratch* scratch,
                                      const BitMask* candidates) const {
  assert(scratch->program == this);
  const RowId* rows = scratch->rows;
  const size_t count = scratch->count;
  const Span& span = lists_[list];
  std::fill(out, out + count, static_cast<int32_t>(kNoRule));
  if (count == 0 || span.begin == span.end) return;

  // Paged blocks run the dense path only (see BeginBlock).
  const bool paged = scratch->whole_groups;
  if (candidates != nullptr && !paged) {
    const size_t active = candidates->Count();
    if (active == 0) return;
    if (active < count / kSparseDivisor) {
      // Sparse: the few candidate rows are cheaper to walk directly than
      // any full-block column scan.
      HoistColumns(scratch);
      candidates->ForEachSet([&](size_t i) {
        out[i] = FirstMatchRowCols(span, *scratch, rows[i]);
      });
      return;
    }
  }
  if (candidates != nullptr && paged && !candidates->AnySet()) return;

  // First-match-wins resolution over lazily materialized condition masks.
  // `unresolved` tracks rows not yet claimed by an earlier rule; each rule
  // claims (unresolved AND all its condition masks). A condition's mask is
  // built only the first time a rule of any list reaches it on this block
  // while still dense — once a rule's partial mask is sparse, its
  // remaining conjuncts are tested row-by-row on just the surviving rows.
  BitMask& unresolved = scratch->unresolved;
  unresolved = candidates != nullptr ? *candidates : BitMask(count, true);
  BitMask& rule_mask = scratch->rule_mask;
  for (uint32_t r = span.begin; r < span.end; ++r) {
    if (!unresolved.AnySet()) break;
    const int32_t index = static_cast<int32_t>(r - span.begin);
    const Span& rule = rules_[r];
    rule_mask = unresolved;
    bool alive = true;
    for (uint32_t i = rule.begin; i < rule.end; ++i) {
      const uint32_t ci = rule_conditions_[i];
      if (!scratch->evaluated[ci]) {
        if (!paged && rule_mask.Count() * kSparseFinishFactor < count) {
          // Sparse finish: test the remaining conjuncts directly on the
          // few rows still in play.
          HoistColumns(scratch);
          rule_mask.ForEachSet([&](size_t slot) {
            const RowId row = rows[slot];
            for (uint32_t j = i; j < rule.end; ++j) {
              const uint32_t cj = rule_conditions_[j];
              const CompiledCondition& c = conditions_[cj];
              if (!MatchesRowCol(scratch->cond_cols[cj], c.op, c.category,
                                 c.lo, c.hi, row)) {
                return;
              }
            }
            out[slot] = index;
            unresolved.Set(slot, false);
          });
          alive = false;  // already claimed above
          break;
        }
        EnsureCondition(ci, scratch);
      }
      rule_mask &= scratch->condition_masks[ci];
      if (!rule_mask.AnySet()) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    rule_mask.ForEachSet([&](size_t i) { out[i] = index; });
    unresolved.AndNot(rule_mask);
  }
}

}  // namespace pnr
