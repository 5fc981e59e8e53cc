// Columnar in-memory dataset: typed feature columns, class labels, and
// per-record weights. All learners in this library read from Dataset and
// operate on subsets of row ids, which makes sequential covering (repeatedly
// removing covered records) cheap.
//
// A Dataset may also be *demand-paged* (AttachPager): labels, weights and
// the schema stay resident while feature columns fault in from a backing
// store (e.g. data/shard_store.h) on first touch and are evicted LRU to a
// byte budget. Faulting never changes the logical cell values, so
// data_version() is stable across fault/evict and every derived cache stays
// valid; training on a paged dataset is bit-identical to training in RAM.

#ifndef PNR_DATA_DATASET_H_
#define PNR_DATA_DATASET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/schema.h"

namespace pnr {

/// Index of a record within a Dataset.
using RowId = uint32_t;

/// An explicit subset of rows (the unit sequential covering works on).
using RowSubset = std::vector<RowId>;

/// Backing store for a demand-paged Dataset's feature columns.
///
/// Implementations must be thread-safe for concurrent const calls (one
/// pager is shared by every ClonePagedView of a dataset) and must fill
/// `out` with exactly num_rows values for `attr`.
class ColumnPager {
 public:
  virtual ~ColumnPager() = default;
  virtual Status FillNumeric(AttrIndex attr,
                             std::vector<double>* out) const = 0;
  virtual Status FillCategorical(AttrIndex attr,
                                 std::vector<CategoryId>* out) const = 0;
};

/// Columnar dataset.
///
/// Each feature column physically stores either doubles (numeric) or
/// CategoryIds (categorical), matching the schema. Labels are CategoryIds of
/// the schema's class attribute. Every record carries a weight (1.0 unless
/// stratification has been applied).
class Dataset {
 public:
  /// Creates an empty dataset over `schema`.
  explicit Dataset(Schema schema);

  // Copying is supported for plain in-RAM datasets only; a paged dataset
  // must be cloned with ClonePagedView instead.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(Dataset&&) noexcept = default;

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  /// Number of records.
  size_t num_rows() const { return labels_.size(); }

  /// Appends a record with default values (0.0 / category 0 when the
  /// dictionary is non-empty, else kInvalidCategory), label 0, weight 1.
  /// Returns the new row id.
  RowId AddRow();

  /// Appends `n` records with the same defaults as AddRow in one step
  /// (single data_version bump). Returns the id of the first new row. The
  /// ingest engine sizes all storage with this before its parallel fill.
  RowId AppendRows(size_t n);

  /// Reserves capacity for `n` records.
  void Reserve(size_t n);

  // -- Cell accessors (bounds are assert-checked) ---------------------------

  double numeric(RowId row, AttrIndex attr) const;
  void set_numeric(RowId row, AttrIndex attr, double value);

  CategoryId categorical(RowId row, AttrIndex attr) const;
  void set_categorical(RowId row, AttrIndex attr, CategoryId value);

  CategoryId label(RowId row) const { return labels_[row]; }
  void set_label(RowId row, CategoryId value) {
    labels_[row] = value;
    ++data_version_;
  }

  double weight(RowId row) const { return weights_[row]; }
  void set_weight(RowId row, double value) {
    weights_[row] = value;
    ++weight_version_;
  }

  // -- Mutation counters (cache invalidation) -------------------------------

  /// Incremented whenever rows are added or cell values or labels change
  /// (the full-row columns' positive sums read labels). Caches of
  /// derived per-column structure (e.g. sorted orders) key on this.
  /// Paging faults/evictions do NOT bump it: the logical data is unchanged.
  uint64_t data_version() const { return data_version_; }

  /// Incremented whenever any record weight changes (stratification,
  /// N-phase re-weighting). Caches of weight-derived aggregates key on
  /// this; value-derived structure stays valid across weight changes.
  uint64_t weight_version() const { return weight_version_; }

  // -- Whole-column access (for sorted scans) -------------------------------

  /// Underlying storage of a numeric column (faulted in when paged).
  const std::vector<double>& numeric_column(AttrIndex attr) const;

  /// Underlying storage of a categorical column (faulted in when paged).
  const std::vector<CategoryId>& categorical_column(AttrIndex attr) const;

  /// All labels.
  const std::vector<CategoryId>& labels() const { return labels_; }

  // -- Bulk mutable storage (parallel ingest) -------------------------------
  //
  // Raw pointers into column/label storage for bulk fills. Callers must
  // write only existing rows (size the dataset with AppendRows first) and,
  // when writing from several threads, only disjoint row ranges. Each call
  // bumps data_version once; the pointers are invalidated by AddRow /
  // AppendRows / Reserve. Feature-column mutation is forbidden on a paged
  // dataset (its cells live in the backing store).

  double* mutable_numeric_data(AttrIndex attr);
  CategoryId* mutable_categorical_data(AttrIndex attr);
  CategoryId* mutable_label_data();

  /// All weights.
  const std::vector<double>& weights() const { return weights_; }

  /// Overwrites every record's weight; `weights` must have num_rows()
  /// entries.
  void SetAllWeights(std::vector<double> weights);

  /// Resets every record's weight to 1.
  void ResetWeights();

  // -- Demand paging --------------------------------------------------------
  //
  // Threading contract: per-row and whole-column accessors fault a missing
  // column in but do not pin it. That is safe from a single thread, or
  // from many threads when each holds a ColumnPin for every column it
  // reads (the condition-search engine pins the column it scans). A
  // faulting thread can evict any unpinned column, so unpinned concurrent
  // reads race with eviction — batch scorers and tree builders therefore
  // drop to serial on paged datasets.

  /// Turns this (empty) dataset into a demand-paged view of `pager` with
  /// `num_rows` records: labels and weights are sized and resident (fill
  /// them via mutable_label_data / SetAllWeights), feature columns start
  /// non-resident. At most `budget_bytes` of unpinned feature-column bytes
  /// are kept resident (0 = evict everything unpinned after each fault).
  void AttachPager(std::shared_ptr<const ColumnPager> pager, size_t num_rows,
                   size_t budget_bytes);

  /// True when feature columns are demand-paged.
  bool paged() const { return pager_state_ != nullptr; }

  /// A new paged view over the same pager, labels, weights and hints, with
  /// its own resident set and budget. Each parallel class learner of an
  /// out-of-core multiclass run trains on its own view, so evictions in
  /// one learner never invalidate a column another learner is scanning.
  Dataset ClonePagedView() const;

  /// Keeps `attr`'s column resident until the pin is destroyed. On a
  /// non-paged dataset this is a no-op pin.
  class ColumnPin {
   public:
    ColumnPin() = default;
    ColumnPin(ColumnPin&& other) noexcept
        : dataset_(other.dataset_), attr_(other.attr_) {
      other.dataset_ = nullptr;
    }
    ColumnPin& operator=(ColumnPin&& other) noexcept {
      Release();
      dataset_ = other.dataset_;
      attr_ = other.attr_;
      other.dataset_ = nullptr;
      return *this;
    }
    ColumnPin(const ColumnPin&) = delete;
    ColumnPin& operator=(const ColumnPin&) = delete;
    ~ColumnPin() { Release(); }

   private:
    friend class Dataset;
    ColumnPin(const Dataset* dataset, AttrIndex attr)
        : dataset_(dataset), attr_(attr) {}
    void Release();
    const Dataset* dataset_ = nullptr;
    AttrIndex attr_ = 0;
  };

  /// Faults `attr` in (when paged) and pins it resident.
  ColumnPin PinColumn(AttrIndex attr) const;

  /// Currently resident feature-column bytes (all columns when not paged).
  size_t resident_column_bytes() const;

  /// High-water mark of resident feature-column bytes since AttachPager.
  size_t peak_resident_column_bytes() const;

  /// Paging traffic counters (0 when not paged).
  uint64_t column_fault_count() const;
  uint64_t column_evict_count() const;

  // -- Per-attribute value-range hints --------------------------------------
  //
  // Optional [min, max] per feature attribute (e.g. from shard-store
  // zonemaps). The condition-search engine skips numeric attributes whose
  // range is a single finite point — a constant column can never produce a
  // cut — without touching the column. Empty when unknown.

  void SetNumericRangeHints(std::vector<std::pair<double, double>> hints);
  const std::vector<std::pair<double, double>>& numeric_range_hints() const {
    return numeric_range_hints_;
  }

  // -- Aggregates ------------------------------------------------------------

  /// Sum of weights of records labelled `cls` among `rows`.
  double ClassWeight(const RowSubset& rows, CategoryId cls) const;

  /// Sum of weights of all records among `rows`.
  double TotalWeight(const RowSubset& rows) const;

  /// Count (unweighted) of records labelled `cls`.
  size_t CountClass(CategoryId cls) const;

  /// Row ids 0..num_rows()-1.
  RowSubset AllRows() const;

  /// Rows from `rows` whose label equals (matches==true) / differs from
  /// (matches==false) `cls`.
  RowSubset FilterByClass(const RowSubset& rows, CategoryId cls,
                          bool matches) const;

 private:
  struct Column {
    std::vector<double> numeric;
    std::vector<CategoryId> categorical;
  };

  // All paging bookkeeping lives behind one heap object so Dataset stays
  // movable; the mutex guards everything here except the `resident` flags,
  // which readers check with an acquire load on the fast path.
  struct PagerState {
    std::shared_ptr<const ColumnPager> pager;
    size_t budget_bytes = 0;
    mutable std::mutex mutex;
    std::unique_ptr<std::atomic<bool>[]> resident;
    std::vector<int> pins;
    std::vector<uint64_t> last_use;
    std::vector<size_t> bytes;
    uint64_t tick = 0;
    size_t resident_bytes = 0;
    size_t peak_resident_bytes = 0;
    uint64_t fault_count = 0;
    uint64_t evict_count = 0;
  };

  void EnsureResident(AttrIndex attr) const;
  void FaultColumnLocked(AttrIndex attr) const;  // pager_state_->mutex held
  void EvictToBudgetLocked(AttrIndex exclude) const;
  void UnpinColumn(AttrIndex attr) const;
  size_t ColumnByteSize(AttrIndex attr) const;

  Schema schema_;
  mutable std::vector<Column> columns_;  // mutable: paging faults fill them
  std::vector<CategoryId> labels_;
  std::vector<double> weights_;
  uint64_t data_version_ = 0;
  uint64_t weight_version_ = 0;
  std::vector<std::pair<double, double>> numeric_range_hints_;
  mutable std::unique_ptr<PagerState> pager_state_;
};

}  // namespace pnr

#endif  // PNR_DATA_DATASET_H_
