// Cached sorted views of numeric columns, and copies of categorical codes,
// for the condition-search engine.
//
// The dominant cost of the naive condition search is re-sorting every
// numeric attribute on every refinement call. Values never change during
// training, so the cache sorts each column once per dataset — by
// (value, row id), a total order that makes every downstream float
// accumulation independent of the sort implementation and of the thread
// count — and derives the per-refinement prefix sums from the cached order
// with a linear pass. Weight-dependent aggregates (the full-dataset prefix
// sums) are additionally cached and invalidated only when record weights
// change (N-phase re-weighting, stratification); the sorted order survives.
//
// Next to each order the cache keeps the values in that order, every row's
// rank in it, and where each distinct value's group of rows starts in it,
// so a column over any row subset is built from the cache alone: the
// dataset column is read once, when the order is built. On a demand-paged
// dataset that is the only fault a numeric search takes per attribute and
// engine. A column holds one entry per distinct value, not one per row:
// a search scores cuts only between values. NaN cells sort after every
// number and are left out of every SortedColumn — no numeric condition
// matches NaN. A categorical attribute's slot holds a copy of its codes
// instead, taken the same way, so categorical scans and coverage never go
// back to the dataset either.

#ifndef PNR_INDUCTION_SORTED_COLUMN_CACHE_H_
#define PNR_INDUCTION_SORTED_COLUMN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "data/dataset.h"

namespace pnr {

/// Midpoint between adjacent distinct values lo < hi, guaranteed to split
/// them: the result is strictly inside (lo, hi) whenever such a double
/// exists. When the true midpoint is not representable (adjacent doubles,
/// denormals) it falls back to `hi` when `round_up` is set and `lo`
/// otherwise, which callers pick so the degenerate cut still partitions the
/// data exactly like the slice it was derived from.
double MidpointBetween(double lo, double hi, bool round_up);

/// One numeric column restricted to a row subset, one entry (a group) per
/// distinct value present in the subset, ascending, with prefix sums over
/// weight / target-class weight at each group's start. A search cuts only
/// where one value gives way to the next, so every index in [1, size()) is
/// a candidate cut and nothing finer is kept. Rows whose cell is NaN are
/// not part of the column.
struct SortedColumn {
  /// Each group's value as its first member in (value, row id) order holds
  /// it.
  std::vector<double> values;
  /// Each group's value as its last member holds it. Equal values have
  /// equal bits except -0.0 and +0.0, so this differs from `values` only
  /// in a group that mixes the two zeros.
  std::vector<double> last_values;
  std::vector<double> prefix_weight;    ///< weight of groups [0, g)
  std::vector<double> prefix_positive;  ///< positive weight of groups [0, g)
  double total_weight = 0.0;
  double total_positive = 0.0;

  /// Number of groups (distinct values).
  size_t size() const { return values.size(); }

  /// Cut value for one-sided conditions at group `cut`: some c with
  /// last_values[cut-1] <= c < values[cut], so that {x <= c} covers
  /// exactly groups [0, cut) and {x > c} exactly [cut, size()).
  double CutValue(size_t cut) const {
    return MidpointBetween(last_values[cut - 1], values[cut],
                           /*round_up=*/false);
  }

  /// Lower limit for range conditions at group `cut`: some c with
  /// last_values[cut-1] < c <= values[cut], so that {x >= c} covers
  /// exactly [cut, size()) under kInRange's inclusive lower test.
  double LowerCutValue(size_t cut) const {
    return MidpointBetween(last_values[cut - 1], values[cut],
                           /*round_up=*/true);
  }

  void Clear();
};

/// Per-dataset cache of sorted numeric columns and categorical codes.
///
/// Thread-safety contract (matching the engine's attribute-parallel scans):
/// concurrent calls are allowed only for *distinct* attributes; the per-attr
/// state is independent. The dataset must not be mutated during a batch of
/// concurrent calls.
///
/// Bounded-memory mode: set_memory_budget(bytes) caps the resident bytes of
/// cached orders, sorted values, rank maps, group starts, full-row columns
/// and code copies.
/// Slots are evicted LRU when a build pushes the cache over budget; an
/// evicted slot is simply rebuilt on next use (faulting a paged column again),
/// deterministically, so results stay bit-identical at any budget.
/// With a budget set, a caller must hold a Pin on an attribute for as long
/// as it uses a reference returned for that attribute — eviction skips
/// pinned slots. With no budget (the default) pins are no-ops and nothing
/// is ever evicted.
class SortedColumnCache {
 public:
  explicit SortedColumnCache(const Dataset& dataset);

  /// Caps resident cache bytes; 0 (default) disables eviction entirely.
  /// Set before the first Column/SortedOrder call.
  void set_memory_budget(size_t bytes) { budget_bytes_ = bytes; }
  size_t memory_budget() const { return budget_bytes_; }

  /// Keeps `attr`'s slot out of eviction while alive (no-op when the cache
  /// is unbounded).
  class AttrPin {
   public:
    AttrPin() = default;
    AttrPin(AttrPin&& other) noexcept
        : cache_(other.cache_), attr_(other.attr_) {
      other.cache_ = nullptr;
    }
    AttrPin& operator=(AttrPin&& other) noexcept {
      Release();
      cache_ = other.cache_;
      attr_ = other.attr_;
      other.cache_ = nullptr;
      return *this;
    }
    AttrPin(const AttrPin&) = delete;
    AttrPin& operator=(const AttrPin&) = delete;
    ~AttrPin() { Release(); }

   private:
    friend class SortedColumnCache;
    AttrPin(SortedColumnCache* cache, AttrIndex attr)
        : cache_(cache), attr_(attr) {}
    void Release();
    SortedColumnCache* cache_ = nullptr;
    AttrIndex attr_ = 0;
  };

  AttrPin Pin(AttrIndex attr);

  const Dataset& dataset() const { return dataset_; }

  /// Row ids of the whole dataset sorted ascending by (value of `attr`,
  /// row id), NaN cells last in row-id order. Built on first use, the only
  /// read of the dataset column (pinned while it runs); rebuilt when the
  /// dataset's rows or cell values changed (data_version).
  const std::vector<RowId>& SortedOrder(AttrIndex attr);

  /// The non-NaN values of numeric `attr` in SortedOrder.
  const std::vector<double>& SortedValues(AttrIndex attr);

  /// Every row's position in SortedOrder(attr): below SortedValues(attr)
  /// .size() the position holds the row's value; a NaN cell ranks past it.
  const std::vector<uint32_t>& Ranks(AttrIndex attr);

  /// Number of distinct non-NaN values of numeric `attr` (-0.0 equals
  /// 0.0). Recorded when the order is built and kept when the slot is
  /// evicted, so it costs a column read only before the first build.
  size_t DistinctValues(AttrIndex attr);

  /// Copy of categorical `attr`'s codes, indexed by row. Taken on first
  /// use with the column pinned — the only read of the dataset column —
  /// and again when the dataset's rows or cells changed (data_version).
  const std::vector<CategoryId>& Codes(AttrIndex attr);

  /// The column over `rows` of `attr` with positives counted for `target`.
  /// When `rows` is the full dataset the result is served from a per-attr
  /// cache keyed on (target, weight_version) — i.e. invalidated only when
  /// record weights change. Otherwise `*scratch` is filled (by sorting the
  /// subset's ranks, or by walking the cached order group by group and
  /// filtering it when the subset is large — both produce bit-identical
  /// columns) and returned. Neither path reads the dataset column once the
  /// order is built. `mask` must flag membership of every row in `rows`
  /// and is only read in the subset case.
  const SortedColumn& Column(AttrIndex attr, CategoryId target,
                             const RowSubset& rows,
                             const std::vector<uint8_t>& mask,
                             SortedColumn* scratch);

  // -- Introspection for tests ----------------------------------------------

  /// Number of O(n log n) full-column sorts performed so far.
  uint64_t sort_count() const { return sort_count_.load(); }
  /// Number of full-dataset prefix-sum (re)builds performed so far.
  uint64_t full_build_count() const { return full_build_count_.load(); }
  /// Number of slots evicted by the memory budget so far.
  uint64_t evict_count() const { return evict_count_.load(); }
  /// Current resident bytes under budget accounting (0 when unbounded).
  size_t resident_bytes() const;

 private:
  // A numeric slot holds order, sorted_values, rank and group_start; a
  // categorical one holds codes. `order_version`/`order_valid` describe
  // either kind.
  struct PerAttr {
    std::vector<RowId> order;      ///< all rows by (value, row id), NaN last
    std::vector<double> sorted_values;  ///< non-NaN values in `order`
    std::vector<uint32_t> rank;    ///< row -> position in `order`
    /// Position in `order` where each distinct value's group starts, then
    /// sorted_values.size(): group g is [group_start[g], group_start[g+1]).
    std::vector<uint32_t> group_start;
    std::vector<CategoryId> codes;  ///< categorical: row -> code
    uint64_t order_version = 0;    ///< data_version the slot was built at
    bool order_valid = false;
    size_t distinct = 0;           ///< distinct non-NaN values (numeric)
    uint64_t distinct_version = 0;
    bool distinct_valid = false;   ///< survives eviction

    SortedColumn full;             ///< column over all rows
    CategoryId full_target = kInvalidCategory;
    uint64_t full_weight_version = 0;
    uint64_t full_data_version = 0;
    bool full_valid = false;

    // Budget-mode bookkeeping (guarded by budget_mutex_).
    int pins = 0;
    uint64_t last_use = 0;
    size_t bytes = 0;
  };

  /// Builds `attr`'s order, sorted values, rank map and group starts when
  /// missing or stale (which also drops the full-row column).
  PerAttr& EnsureOrder(AttrIndex attr);
  /// Whether `slot` was built at the dataset's current data_version.
  bool Current(const PerAttr& slot) const {
    return slot.order_valid && slot.order_version == dataset_.data_version();
  }
  /// Refreshes `attr`'s byte accounting after a build and evicts LRU
  /// unpinned slots (never `attr` itself) until the budget holds. No-op
  /// when unbounded.
  void AccountAndEvict(AttrIndex attr);
  void Unpin(AttrIndex attr);
  static size_t SlotBytes(const PerAttr& slot);
  /// Fills `out` with the groups of the rows `keep` accepts, walking the
  /// slot's order group by group: per row it reads only the order (and
  /// the row's weight and label).
  template <typename Keep>
  void FillFromGroups(const PerAttr& slot, CategoryId target, const Keep& keep,
                      SortedColumn* out) const;
  /// Fills `out` for the subset case; rows are accumulated in
  /// (value, row id) order regardless of the build strategy.
  void BuildSubsetColumn(const PerAttr& slot, CategoryId target,
                         const RowSubset& rows,
                         const std::vector<uint8_t>& mask, SortedColumn* out);

  const Dataset& dataset_;
  std::vector<PerAttr> per_attr_;
  std::atomic<uint64_t> sort_count_{0};
  std::atomic<uint64_t> full_build_count_{0};
  std::atomic<uint64_t> evict_count_{0};
  size_t budget_bytes_ = 0;
  mutable std::mutex budget_mutex_;  ///< guards pins/last_use/bytes/resident_bytes_
  size_t resident_bytes_ = 0;
  uint64_t tick_ = 0;
};

}  // namespace pnr

#endif  // PNR_INDUCTION_SORTED_COLUMN_CACHE_H_
