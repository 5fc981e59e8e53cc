#include "induction/sorted_column_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

namespace pnr {

double MidpointBetween(double lo, double hi, bool round_up) {
  assert(lo < hi);
  double mid = 0.5 * (lo + hi);
  if (!std::isfinite(mid)) mid = lo + 0.5 * (hi - lo);  // |lo + hi| overflowed
  if (mid > lo && mid < hi) return mid;
  // No representable double strictly between (adjacent values, denormals):
  // collapse onto the endpoint that keeps the cut's slice semantics exact.
  return round_up ? hi : lo;
}

void SortedColumn::Clear() {
  values.clear();
  last_values.clear();
  prefix_weight.clear();
  prefix_positive.clear();
  total_weight = 0.0;
  total_positive = 0.0;
}

SortedColumnCache::SortedColumnCache(const Dataset& dataset)
    : dataset_(dataset), per_attr_(dataset.schema().num_attributes()) {}

SortedColumnCache::PerAttr& SortedColumnCache::EnsureOrder(AttrIndex attr) {
  PerAttr& slot = per_attr_[static_cast<size_t>(attr)];
  if (Current(slot)) return slot;
  // Pinned: a concurrent scan's fault must not evict the column mid-sort.
  const Dataset::ColumnPin pin = dataset_.PinColumn(attr);
  const std::vector<double>& column = dataset_.numeric_column(attr);
  const size_t n = column.size();
  // Numbers first, then NaN cells; each part in row-id order, so sorting
  // the numbers by (value, row id) — a strict weak order once NaN is out —
  // yields the total order. The sort moves (value, row id) pairs, which
  // compare exactly so (-0.0 and +0.0 tie on value), without reaching back
  // into the column.
  std::vector<std::pair<double, RowId>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!std::isnan(column[i])) {
      entries.emplace_back(column[i], static_cast<RowId>(i));
    }
  }
  const size_t valued = entries.size();
  std::sort(entries.begin(), entries.end());
  slot.order.resize(n);
  slot.sorted_values.resize(valued);
  slot.group_start.clear();
  for (size_t i = 0; i < valued; ++i) {
    slot.order[i] = entries[i].second;
    slot.sorted_values[i] = entries[i].first;
    if (i == 0 || slot.sorted_values[i - 1] < slot.sorted_values[i]) {
      slot.group_start.push_back(static_cast<uint32_t>(i));
    }
  }
  const size_t distinct = slot.group_start.size();
  slot.group_start.push_back(static_cast<uint32_t>(valued));
  for (size_t i = 0, nan = valued; i < n; ++i) {
    if (std::isnan(column[i])) slot.order[nan++] = static_cast<RowId>(i);
  }
  slot.rank.resize(n);
  for (size_t i = 0; i < n; ++i) {
    slot.rank[slot.order[i]] = static_cast<uint32_t>(i);
  }
  slot.order_version = dataset_.data_version();
  slot.order_valid = true;
  slot.distinct = distinct;
  slot.distinct_version = slot.order_version;
  slot.distinct_valid = true;
  slot.full = SortedColumn();
  slot.full_valid = false;
  sort_count_.fetch_add(1);
  AccountAndEvict(attr);
  return slot;
}

const std::vector<RowId>& SortedColumnCache::SortedOrder(AttrIndex attr) {
  return EnsureOrder(attr).order;
}

const std::vector<double>& SortedColumnCache::SortedValues(AttrIndex attr) {
  return EnsureOrder(attr).sorted_values;
}

const std::vector<uint32_t>& SortedColumnCache::Ranks(AttrIndex attr) {
  return EnsureOrder(attr).rank;
}

size_t SortedColumnCache::DistinctValues(AttrIndex attr) {
  const PerAttr& slot = per_attr_[static_cast<size_t>(attr)];
  if (slot.distinct_valid &&
      slot.distinct_version == dataset_.data_version()) {
    return slot.distinct;
  }
  return EnsureOrder(attr).distinct;
}

const std::vector<CategoryId>& SortedColumnCache::Codes(AttrIndex attr) {
  PerAttr& slot = per_attr_[static_cast<size_t>(attr)];
  if (Current(slot)) return slot.codes;
  const Dataset::ColumnPin pin = dataset_.PinColumn(attr);
  slot.codes = dataset_.categorical_column(attr);
  slot.order_version = dataset_.data_version();
  slot.order_valid = true;
  AccountAndEvict(attr);
  return slot.codes;
}

size_t SortedColumnCache::SlotBytes(const PerAttr& slot) {
  return slot.order.size() * sizeof(RowId) +
         slot.sorted_values.size() * sizeof(double) +
         slot.rank.size() * sizeof(uint32_t) +
         slot.group_start.size() * sizeof(uint32_t) +
         slot.codes.size() * sizeof(CategoryId) +
         (slot.full.values.size() + slot.full.last_values.size() +
          slot.full.prefix_weight.size() + slot.full.prefix_positive.size()) *
             sizeof(double);
}

void SortedColumnCache::AccountAndEvict(AttrIndex attr) {
  if (budget_bytes_ == 0) return;
  std::lock_guard<std::mutex> lock(budget_mutex_);
  PerAttr& slot = per_attr_[static_cast<size_t>(attr)];
  const size_t now = SlotBytes(slot);
  resident_bytes_ += now - slot.bytes;
  slot.bytes = now;
  slot.last_use = ++tick_;
  while (resident_bytes_ > budget_bytes_) {
    size_t victim = per_attr_.size();
    uint64_t oldest = 0;
    for (size_t i = 0; i < per_attr_.size(); ++i) {
      if (i == static_cast<size_t>(attr)) continue;
      const PerAttr& candidate = per_attr_[i];
      if (candidate.bytes == 0 || candidate.pins > 0) continue;
      if (victim == per_attr_.size() || candidate.last_use < oldest) {
        victim = i;
        oldest = candidate.last_use;
      }
    }
    if (victim == per_attr_.size()) return;  // everything else is pinned
    PerAttr& evicted = per_attr_[victim];
    std::vector<RowId>().swap(evicted.order);
    std::vector<double>().swap(evicted.sorted_values);
    std::vector<uint32_t>().swap(evicted.rank);
    std::vector<uint32_t>().swap(evicted.group_start);
    std::vector<CategoryId>().swap(evicted.codes);
    evicted.order_valid = false;
    evicted.full = SortedColumn();
    evicted.full_valid = false;
    resident_bytes_ -= evicted.bytes;
    evicted.bytes = 0;
    evict_count_.fetch_add(1);
  }
}

SortedColumnCache::AttrPin SortedColumnCache::Pin(AttrIndex attr) {
  if (budget_bytes_ == 0) return AttrPin();
  std::lock_guard<std::mutex> lock(budget_mutex_);
  PerAttr& slot = per_attr_[static_cast<size_t>(attr)];
  ++slot.pins;
  slot.last_use = ++tick_;
  return AttrPin(this, attr);
}

void SortedColumnCache::Unpin(AttrIndex attr) {
  std::lock_guard<std::mutex> lock(budget_mutex_);
  PerAttr& slot = per_attr_[static_cast<size_t>(attr)];
  assert(slot.pins > 0);
  --slot.pins;
}

void SortedColumnCache::AttrPin::Release() {
  if (cache_ == nullptr) return;
  cache_->Unpin(attr_);
  cache_ = nullptr;
}

size_t SortedColumnCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(budget_mutex_);
  return resident_bytes_;
}

namespace {

// Accumulates rows into a grouped column. Rows arrive in (value, row id)
// order and the running sums are stored only where a group closes, so
// each stored sum is the one a column of one entry per row would hold at
// that group's start. The full-row build, the rank sort and the group
// filter all accumulate through this class, so their sums are
// bit-identical.
class GroupAccumulator {
 public:
  GroupAccumulator(const Dataset& dataset, CategoryId target,
                   SortedColumn* out)
      : weights_(dataset.weights()),
        labels_(dataset.labels()),
        target_(target),
        out_(out) {
    out_->Clear();
    out_->prefix_weight.push_back(0.0);
    out_->prefix_positive.push_back(0.0);
  }

  // Adds `row` when `member`, and +0.0 otherwise: the running sums are
  // never -0.0 (they start at +0.0), so adding +0.0 leaves them exactly as
  // they were, and a filter takes no branch per row.
  void Add(RowId row, bool member) {
    const double w = KeepIf(weights_[row], member);
    weight_ += w;
    positive_ += KeepIf(w, labels_[row] == target_);
  }

  // Closes the group of rows added since the last Close; `first` and
  // `last` are the values of its first and last member.
  void Close(double first, double last) {
    out_->values.push_back(first);
    out_->last_values.push_back(last);
    out_->prefix_weight.push_back(weight_);
    out_->prefix_positive.push_back(positive_);
  }

  void Finish() {
    out_->total_weight = weight_;
    out_->total_positive = positive_;
  }

 private:
  // `value` when `keep`, else +0.0, as a bit mask: a conditional select
  // compiles to a branch that mispredicts on a mixed filter.
  static double KeepIf(double value, bool keep) {
    return std::bit_cast<double>(std::bit_cast<uint64_t>(value) &
                                 -static_cast<uint64_t>(keep));
  }

  const std::vector<double>& weights_;
  const std::vector<CategoryId>& labels_;
  CategoryId target_;
  SortedColumn* out_;
  double weight_ = 0.0;
  double positive_ = 0.0;
};

}  // namespace

template <typename Keep>
void SortedColumnCache::FillFromGroups(const PerAttr& slot, CategoryId target,
                                       const Keep& keep,
                                       SortedColumn* out) const {
  GroupAccumulator acc(dataset_, target, out);
  const std::vector<uint32_t>& starts = slot.group_start;
  for (size_t g = 0; g + 1 < starts.size(); ++g) {
    const size_t begin = starts[g];
    const size_t end = starts[g + 1];
    bool any = false;
    for (size_t p = begin; p < end; ++p) {
      const RowId row = slot.order[p];
      const bool member = keep(row);
      any |= member;
      acc.Add(row, member);
    }
    if (!any) continue;
    double first = slot.sorted_values[begin];
    double last = first;
    if (first == 0.0) {
      // The one group whose members can differ in bits: -0.0 and +0.0.
      size_t lo = begin;
      while (!keep(slot.order[lo])) ++lo;
      size_t hi = end - 1;
      while (!keep(slot.order[hi])) --hi;
      first = slot.sorted_values[lo];
      last = slot.sorted_values[hi];
    }
    acc.Close(first, last);
  }
  acc.Finish();
}

void SortedColumnCache::BuildSubsetColumn(const PerAttr& slot,
                                          CategoryId target,
                                          const RowSubset& rows,
                                          const std::vector<uint8_t>& mask,
                                          SortedColumn* out) {
  const size_t valued = slot.sorted_values.size();
  const size_t k = rows.size();
  const size_t log_k = static_cast<size_t>(std::bit_width(k));
  // Sorting k ranks costs about k (log k + 2) steps, filtering the order
  // one per row. Timed on kdd_sim, the two break even at about 5% of 40k
  // rows and 6.5% of 200k; this rule switches at about 7% and 6%.
  if (k * (log_k + 2) >= dataset_.num_rows()) {
    FillFromGroups(slot, target,
                   [&mask](RowId row) { return mask[row] != 0; }, out);
    return;
  }
  // Small subset: sort its ranks, which order rows exactly by
  // (value, row id).
  std::vector<uint32_t> ranks;
  ranks.reserve(k);
  for (RowId row : rows) {
    const uint32_t r = slot.rank[row];
    if (r < valued) ranks.push_back(r);  // NaN cells rank last
  }
  std::sort(ranks.begin(), ranks.end());
  GroupAccumulator acc(dataset_, target, out);
  const std::vector<double>& values = slot.sorted_values;
  for (size_t i = 0; i < ranks.size();) {
    const uint32_t first = ranks[i];
    uint32_t last = first;
    do {  // one group: the ranks of one value
      last = ranks[i++];
      acc.Add(slot.order[last], true);
    } while (i < ranks.size() && !(values[last] < values[ranks[i]]));
    acc.Close(values[first], values[last]);
  }
  acc.Finish();
}

const SortedColumn& SortedColumnCache::Column(AttrIndex attr,
                                              CategoryId target,
                                              const RowSubset& rows,
                                              const std::vector<uint8_t>& mask,
                                              SortedColumn* scratch) {
  PerAttr& slot = EnsureOrder(attr);
  if (rows.size() != dataset_.num_rows()) {
    BuildSubsetColumn(slot, target, rows, mask, scratch);
    return *scratch;
  }
  if (slot.full_valid && slot.full_target == target &&
      slot.full_weight_version == dataset_.weight_version() &&
      slot.full_data_version == dataset_.data_version()) {
    return slot.full;
  }
  FillFromGroups(slot, target, [](RowId) { return true; }, &slot.full);
  slot.full_target = target;
  slot.full_weight_version = dataset_.weight_version();
  slot.full_data_version = dataset_.data_version();
  slot.full_valid = true;
  full_build_count_.fetch_add(1);
  AccountAndEvict(attr);
  return slot.full;
}

}  // namespace pnr
