#include "induction/sorted_column_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <ranges>

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

SortedColumn::SortedColumn(const SortedColumn& other)
    : values(other.values),
      prefix_weight(other.prefix_weight),
      prefix_positive(other.prefix_positive),
      boundaries(other.boundaries),
      total_weight(other.total_weight),
      total_positive(other.total_positive),
      owned_values(other.owned_values) {
  if (other.values.data() == other.owned_values.data()) values = owned_values;
}

SortedColumn& SortedColumn::operator=(const SortedColumn& other) {
  if (this != &other) *this = SortedColumn(other);
  return *this;
}

void SortedColumn::Clear() {
  values = {};
  owned_values.clear();
  prefix_weight.clear();
  prefix_positive.clear();
  boundaries.clear();
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
  // yields the total order.
  slot.order.resize(n);
  size_t valued = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isnan(column[i])) slot.order[valued++] = static_cast<RowId>(i);
  }
  for (size_t i = 0, nan = valued; i < n; ++i) {
    if (std::isnan(column[i])) slot.order[nan++] = static_cast<RowId>(i);
  }
  std::sort(slot.order.begin(), slot.order.begin() + valued,
            [&column](RowId a, RowId b) {
              if (column[a] != column[b]) return column[a] < column[b];
              return a < b;
            });
  slot.sorted_values.resize(valued);
  slot.rank.resize(n);
  size_t distinct = valued > 0 ? 1 : 0;
  for (size_t i = 0; i < n; ++i) {
    const RowId row = slot.order[i];
    if (i < valued) {
      slot.sorted_values[i] = column[row];
      if (i > 0 && slot.sorted_values[i - 1] < slot.sorted_values[i]) {
        ++distinct;
      }
    }
    slot.rank[row] = static_cast<uint32_t>(i);
  }
  slot.order_version = dataset_.data_version();
  slot.order_valid = true;
  slot.distinct = distinct;
  slot.distinct_version = slot.order_version;
  slot.distinct_valid = true;
  slot.full = SortedColumn();  // viewed the previous sorted values
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
  // The full-row column's values view `sorted_values`; not counted twice.
  return slot.order.size() * sizeof(RowId) +
         slot.sorted_values.size() * sizeof(double) +
         slot.rank.size() * sizeof(uint32_t) +
         slot.codes.size() * sizeof(CategoryId) +
         slot.full.prefix_weight.size() * sizeof(double) +
         slot.full.prefix_positive.size() * sizeof(double) +
         slot.full.boundaries.size() * sizeof(size_t);
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

// Fills `out` from the entries at the `positions` — ascending positions in
// a slot's sorted order — that `keep` accepts, with prefix sums and
// boundaries. The full-row build, the rank sort and the mask filter all
// feed positions in (value, row id) order through this one accumulation,
// so their float prefix sums are bit-identical. A column that does not
// copy its values views all of `sorted_values`, so it must keep every
// position.
template <typename Positions, typename Keep>
void FillColumn(const Dataset& dataset, const std::vector<RowId>& order,
                const std::vector<double>& sorted_values, CategoryId target,
                const Positions& positions, const Keep& keep, size_t expected,
                bool copy_values, SortedColumn* out) {
  const std::vector<double>& weights = dataset.weights();
  const std::vector<CategoryId>& labels = dataset.labels();
  out->Clear();
  if (copy_values) out->owned_values.reserve(expected);
  out->prefix_weight.reserve(expected + 1);
  out->prefix_positive.reserve(expected + 1);
  out->prefix_weight.push_back(0.0);
  out->prefix_positive.push_back(0.0);
  size_t j = 0;
  double previous = 0.0;
  for (const size_t position : positions) {
    const RowId row = order[position];
    if (!keep(row)) continue;
    const double value = sorted_values[position];
    const double w = weights[row];
    if (copy_values) out->owned_values.push_back(value);
    out->prefix_weight.push_back(out->prefix_weight.back() + w);
    out->prefix_positive.push_back(out->prefix_positive.back() +
                                   (labels[row] == target ? w : 0.0));
    if (j > 0 && value > previous) out->boundaries.push_back(j);
    previous = value;
    ++j;
  }
  out->values = copy_values ? std::span<const double>(out->owned_values)
                            : std::span<const double>(sorted_values);
  out->total_weight = out->prefix_weight.back();
  out->total_positive = out->prefix_positive.back();
}

}  // namespace

void SortedColumnCache::BuildSubsetColumn(const PerAttr& slot,
                                          CategoryId target,
                                          const RowSubset& rows,
                                          const std::vector<uint8_t>& mask,
                                          SortedColumn* out) {
  const size_t valued = slot.sorted_values.size();
  const size_t k = rows.size();
  const size_t log_k = static_cast<size_t>(std::bit_width(k));
  if (k * (log_k + 2) < dataset_.num_rows()) {
    // Small subset: sorting its ranks is cheaper than filtering the whole
    // order, and ranks order rows exactly by (value, row id).
    std::vector<uint32_t> ranks;
    ranks.reserve(k);
    for (RowId row : rows) {
      const uint32_t r = slot.rank[row];
      if (r < valued) ranks.push_back(r);  // NaN cells rank last
    }
    std::sort(ranks.begin(), ranks.end());
    FillColumn(dataset_, slot.order, slot.sorted_values, target, ranks,
               [](RowId) { return true; }, k, /*copy_values=*/true, out);
  } else {
    FillColumn(dataset_, slot.order, slot.sorted_values, target,
               std::views::iota(size_t{0}, valued),
               [&mask](RowId row) { return mask[row] != 0; }, k,
               /*copy_values=*/true, out);
  }
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
  const size_t valued = slot.sorted_values.size();
  FillColumn(dataset_, slot.order, slot.sorted_values, target,
             std::views::iota(size_t{0}, valued), [](RowId) { return true; },
             valued, /*copy_values=*/false, &slot.full);
  slot.full_target = target;
  slot.full_weight_version = dataset_.weight_version();
  slot.full_data_version = dataset_.data_version();
  slot.full_valid = true;
  full_build_count_.fetch_add(1);
  AccountAndEvict(attr);
  return slot.full;
}

}  // namespace pnr
