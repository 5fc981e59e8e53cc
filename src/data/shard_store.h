// Compressed columnar on-disk shard format for out-of-core training.
//
// A shard store holds one Dataset as a single file: the schema (embedded as
// a v1 sidecar blob), the class labels, optional record weights, and every
// feature column split into `num_shards` contiguous row ranges. Categorical
// columns are dictionary-coded by the schema and bit-packed to
// ceil(log2(k+1)) bits per code; numeric columns are raw little-endian
// doubles. Every blob carries an FNV-1a 64 checksum and every column shard
// a min/max zonemap, so a reader can prune shards without decoding them and
// a corrupted byte is always caught before it reaches a learner.
//
// Layout (all integers little-endian):
//
//   header (64 bytes)
//     0  magic "PNRSHRD1"
//     8  u32 version (1)
//     12 u32 flags (bit 0: has_weights; all other bits reserved, must be 0)
//     16 u64 num_rows          (>= 1)
//     24 u32 num_attrs         (== schema feature count)
//     28 u32 num_shards        (1 <= num_shards <= num_rows)
//     32 u64 directory_offset
//     40 u64 directory_size
//     48 u64 directory_checksum
//     56 u64 file_size         (must equal the actual byte count)
//   payload blobs, in canonical write order: schema text, label shards,
//     weight shards (when flagged), feature columns attr-major/shard-minor
//   directory (at directory_offset; its size is an exact function of
//     num_attrs, num_shards and flags):
//     schema  BlobRef{u64 offset, u64 size, u64 checksum}
//     shard row ranges: num_shards x {u64 begin, u64 end} — must partition
//       [0, num_rows) in order with no empty shard
//     u32 label_bit_width (== bits for num_classes - 1)
//     label BlobRefs: num_shards
//     weight BlobRefs: num_shards when has_weights, else absent
//     per attribute:
//       u8 type (0 numeric, 1 categorical), u8[3] zero padding
//       u32 bit_width (categorical: bits for num_categories, i.e. the
//         packed width of codes 0..k where k encodes kInvalidCategory;
//         numeric: 0)
//       per shard: BlobRef + zonemap (16 bytes: numeric f64 min/max
//         computed by a first-element-seeded fold and compared bitwise on
//         read, so NaN and -0.0 round-trip exactly; categorical u32
//         min/max code + u64 zero padding)
//
// The reader is strict: magic/version/flags, counts, row-range partition,
// blob bounds and exact blob sizes are all validated at Open (O(directory)
// work — no payload is touched, so opening a 100 GB store is cheap);
// checksums and zonemaps are validated on every blob decode. Errors carry
// the store name and the failing location ("shard_store: <name>: attr 3
// shard 1: checksum mismatch"). Serialize-load-serialize is a fixpoint,
// which the shard fuzz target enforces on arbitrary bytes.

#ifndef PNR_DATA_SHARD_STORE_H_
#define PNR_DATA_SHARD_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/mapped_file.h"
#include "data/schema.h"

namespace pnr {

/// Knobs for writing a shard store.
struct ShardStoreWriteOptions {
  /// Requested shard count; clamped to [1, num_rows]. Rows are split into
  /// contiguous ranges of size floor(n/s) with the remainder spread over
  /// the leading shards (the same canonical split at any request).
  uint32_t num_shards = 1;
};

/// Renders `dataset` as a shard-store file image. InvalidArgument when the
/// dataset is empty or a label/weight falls outside what the format can
/// represent (labels must index the class dictionary; weights and the
/// section layout must be finite/encodable).
StatusOr<std::string> SerializeShardStore(const Dataset& dataset,
                                          const ShardStoreWriteOptions& options);

/// SerializeShardStore + WriteStringToFile.
Status WriteShardStore(const Dataset& dataset, const std::string& path,
                       const ShardStoreWriteOptions& options);

/// Renders only the rows `rows[0..count)` of `dataset` (in that order) as a
/// shard-store file image, without materializing an intermediate Dataset —
/// the stream retrain orchestrator snapshots a trailing window this way.
/// Row ids may repeat and appear in any order; each must be < num_rows().
/// Passing the identity list [0, num_rows) produces bytes identical to
/// SerializeShardStore. InvalidArgument on an empty or out-of-range list and
/// under the same label/weight constraints as the full serializer.
StatusOr<std::string> SerializeShardStoreRows(
    const Dataset& dataset, const RowId* rows, size_t count,
    const ShardStoreWriteOptions& options);

/// SerializeShardStoreRows + WriteStringToFile.
Status WriteShardStoreRows(const Dataset& dataset, const RowId* rows,
                           size_t count, const std::string& path,
                           const ShardStoreWriteOptions& options);

/// Returns true when `bytes` begins with the shard-store magic (used by the
/// CLI to sniff shard files apart from CSV/ARFF).
bool LooksLikeShardStore(std::string_view bytes);

/// Validating reader over one shard-store file or buffer.
///
/// All methods are const and touch no mutable state, so one reader may be
/// shared by any number of threads (each per-class learner of an
/// out-of-core multiclass run pages through the same reader).
class ShardStoreReader {
 public:
  /// Opens `path` (memory-mapped when possible) and validates the header
  /// and directory. The returned reader is shared so demand-paged Datasets
  /// can keep it alive.
  static StatusOr<std::shared_ptr<const ShardStoreReader>> Open(
      const std::string& path);

  /// Same, over an in-memory image (tests, fuzzing). `name` labels errors.
  static StatusOr<std::shared_ptr<const ShardStoreReader>> OpenBuffer(
      std::string buffer, std::string name);

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  uint32_t num_attrs() const { return num_attrs_; }
  uint32_t num_shards() const { return num_shards_; }
  bool has_weights() const { return has_weights_; }

  /// [begin, end) row range of `shard`.
  std::pair<uint64_t, uint64_t> shard_rows(uint32_t shard) const;

  /// Decoded size of all feature columns (the in-RAM footprint a
  /// non-paged load would have); used to pick paging budgets.
  size_t column_bytes() const;

  /// On-disk size.
  size_t file_bytes() const { return data_.size(); }

  // -- Whole-column decode (checksum + zonemap validated per shard) ---------

  Status FillNumeric(AttrIndex attr, std::vector<double>* out) const;
  Status FillCategorical(AttrIndex attr, std::vector<CategoryId>* out) const;
  Status FillLabels(std::vector<CategoryId>* out) const;
  /// All-1.0 when the store has no weight section.
  Status FillWeights(std::vector<double>* out) const;

  /// Aggregated per-attribute numeric zonemaps: {min over shards, max over
  /// shards}. Categorical attributes and attributes whose zonemap is not
  /// finite report {+inf, -inf} ("unknown"). The condition-search engine
  /// skips numeric attributes whose hint is a single point — a constant
  /// column can never yield a cut — without faulting the column in.
  std::vector<std::pair<double, double>> NumericRangeHints() const;

  /// Decodes the whole store into an in-RAM Dataset (with range hints
  /// attached). Every blob is checksum- and zonemap-validated.
  StatusOr<Dataset> LoadDataset() const;

 private:
  struct BlobRef {
    uint64_t offset = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
  };
  struct ColumnShard {
    BlobRef blob;
    // Numeric zonemap (bit-exact fold results) or categorical code range.
    double zmin = 0.0;
    double zmax = 0.0;
    uint32_t cmin = 0;
    uint32_t cmax = 0;
  };
  struct ColumnDir {
    bool numeric = false;
    uint32_t bit_width = 0;
    std::vector<ColumnShard> shards;
  };

  ShardStoreReader() = default;

  static StatusOr<std::shared_ptr<const ShardStoreReader>> Validate(
      std::shared_ptr<ShardStoreReader> reader);
  Status ParseHeaderAndDirectory();
  Status DecodeNumericShard(AttrIndex attr, uint32_t shard, double* out) const;
  Status DecodeCategoricalShard(AttrIndex attr, uint32_t shard,
                                CategoryId* out) const;
  Status CheckBlob(const BlobRef& blob, const std::string& what) const;
  Status LocatedError(const std::string& what, const std::string& msg) const;

  std::string name_;
  MappedFile file_;      // backing storage when opened from a path
  std::string buffer_;   // backing storage when opened from memory
  std::string_view data_;

  Schema schema_;
  uint64_t num_rows_ = 0;
  uint32_t num_attrs_ = 0;
  uint32_t num_shards_ = 0;
  bool has_weights_ = false;
  uint32_t label_bit_width_ = 0;
  BlobRef schema_blob_;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;
  std::vector<BlobRef> label_blobs_;
  std::vector<BlobRef> weight_blobs_;
  std::vector<ColumnDir> columns_;
};

/// Builds a demand-paged Dataset over `reader`: schema, labels, weights and
/// numeric range hints are resident; feature columns fault in on first
/// touch and are evicted LRU to keep resident feature bytes at or under
/// `budget_bytes` (see Dataset::AttachPager for the threading contract).
/// `budget_bytes` = 0 keeps only pinned columns resident.
StatusOr<Dataset> MakePagedDataset(
    std::shared_ptr<const ShardStoreReader> reader, size_t budget_bytes);

}  // namespace pnr

#endif  // PNR_DATA_SHARD_STORE_H_
