#include "data/shard_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/file_io.h"
#include "data/schema_io.h"

namespace pnr {
namespace {

constexpr char kMagic[8] = {'P', 'N', 'R', 'S', 'H', 'R', 'D', '1'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kFlagHasWeights = 1u << 0;
constexpr size_t kHeaderSize = 64;
constexpr size_t kBlobRefSize = 24;

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Bits needed to represent every value in [0, max_value].
uint32_t BitsForMaxValue(uint64_t max_value) {
  uint32_t bits = 1;
  while (max_value >>= 1) ++bits;
  return bits;
}

size_t PackedBytes(uint64_t values, uint32_t width) {
  return static_cast<size_t>((values * width + 7) / 8);
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

double ReadF64(const char* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

// LSB-first bit packing of `n` codes at `width` bits each.
void PackCodes(const uint32_t* codes, size_t n, uint32_t width,
               std::string* out) {
  const size_t base = out->size();
  out->resize(base + PackedBytes(n, width), '\0');
  unsigned char* bytes =
      reinterpret_cast<unsigned char*>(&(*out)[0]) + base;
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t code = codes[i];
    for (uint32_t b = 0; b < width; ++b, ++bit) {
      if ((code >> b) & 1u) bytes[bit >> 3] |= 1u << (bit & 7);
    }
  }
}

void UnpackCodes(const unsigned char* bytes, size_t n, uint32_t width,
                 uint32_t* out) {
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    for (uint32_t b = 0; b < width; ++b, ++bit) {
      code |= static_cast<uint32_t>((bytes[bit >> 3] >> (bit & 7)) & 1u) << b;
    }
    out[i] = code;
  }
}

// First-element-seeded min/max fold; shared by writer and reader so the
// stored zonemap compares bit-equal to the recomputed one (NaN seeds stay
// NaN, -0.0 stays -0.0).
void NumericZone(const double* values, size_t n, double* zmin, double* zmax) {
  double mn = values[0];
  double mx = values[0];
  for (size_t i = 1; i < n; ++i) {
    if (values[i] < mn) mn = values[i];
    if (values[i] > mx) mx = values[i];
  }
  *zmin = mn;
  *zmax = mx;
}

void CodeZone(const uint32_t* codes, size_t n, uint32_t* cmin,
              uint32_t* cmax) {
  uint32_t mn = codes[0];
  uint32_t mx = codes[0];
  for (size_t i = 1; i < n; ++i) {
    mn = std::min(mn, codes[i]);
    mx = std::max(mx, codes[i]);
  }
  *cmin = mn;
  *cmax = mx;
}

// Canonical contiguous row split: floor(n/s) rows each, remainder spread
// over the leading shards.
std::vector<std::pair<uint64_t, uint64_t>> SplitRows(uint64_t num_rows,
                                                     uint32_t num_shards) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges(num_shards);
  const uint64_t base = num_rows / num_shards;
  const uint64_t extra = num_rows % num_shards;
  uint64_t begin = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const uint64_t size = base + (s < extra ? 1 : 0);
    ranges[s] = {begin, begin + size};
    begin += size;
  }
  return ranges;
}

size_t DirectorySize(uint32_t num_attrs, uint32_t num_shards,
                     bool has_weights) {
  const size_t s = num_shards;
  size_t size = kBlobRefSize;            // schema blob
  size += 16 * s;                        // row ranges
  size += 4;                             // label bit width
  size += kBlobRefSize * s;              // label blobs
  if (has_weights) size += kBlobRefSize * s;
  size += static_cast<size_t>(num_attrs) * (8 + (kBlobRefSize + 16) * s);
  return size;
}

struct PendingBlob {
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

// Appends `payload` to `file` and records its ref.
PendingBlob EmitBlob(std::string* file, const std::string& payload) {
  PendingBlob blob;
  blob.offset = file->size();
  blob.size = payload.size();
  blob.checksum = Fnv1a(payload);
  file->append(payload);
  return blob;
}

void AppendBlobRef(std::string* dir, const PendingBlob& blob) {
  AppendU64(dir, blob.offset);
  AppendU64(dir, blob.size);
  AppendU64(dir, blob.checksum);
}

}  // namespace

bool LooksLikeShardStore(std::string_view bytes) {
  return bytes.size() >= sizeof(kMagic) &&
         std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
}

// Shared serializer core. `rows` selects the records to write in order;
// nullptr means the identity list [0, count) (the whole-dataset path, which
// skips the gather copy for numeric columns). Both paths emit the same
// bytes for the same logical row sequence.
static StatusOr<std::string> SerializeRowsImpl(
    const Dataset& dataset,
                                        const RowId* rows, uint64_t num_rows,
                                        const ShardStoreWriteOptions& options) {
  const Schema& schema = dataset.schema();
  if (num_rows == 0) {
    return Status::InvalidArgument("shard_store: cannot write an empty dataset");
  }
  const size_t num_classes = schema.num_classes();
  if (num_classes == 0) {
    return Status::InvalidArgument(
        "shard_store: dataset schema has no class labels");
  }
  if (rows != nullptr) {
    for (uint64_t i = 0; i < num_rows; ++i) {
      if (rows[i] >= dataset.num_rows()) {
        return Status::InvalidArgument(
            "shard_store: row id " + std::to_string(rows[i]) +
            " outside the dataset");
      }
    }
  }
  for (uint64_t i = 0; i < num_rows; ++i) {
    const CategoryId label = dataset.labels()[rows ? rows[i] : i];
    if (label < 0 || static_cast<size_t>(label) >= num_classes) {
      return Status::InvalidArgument(
          "shard_store: label outside the class dictionary");
    }
  }
  bool has_weights = false;
  for (uint64_t i = 0; i < num_rows; ++i) {
    const double w = dataset.weights()[rows ? rows[i] : i];
    if (!std::isfinite(w)) {
      return Status::InvalidArgument("shard_store: non-finite record weight");
    }
    if (w != 1.0) has_weights = true;
  }

  const uint32_t num_attrs = static_cast<uint32_t>(schema.num_attributes());
  const uint32_t num_shards = static_cast<uint32_t>(std::min<uint64_t>(
      std::max<uint32_t>(options.num_shards, 1), num_rows));
  const auto ranges = SplitRows(num_rows, num_shards);
  const uint32_t label_width = BitsForMaxValue(num_classes - 1);

  std::string file;
  file.resize(kHeaderSize, '\0');  // header is patched in at the end

  // Schema blob.
  const PendingBlob schema_blob = EmitBlob(&file, SerializeSchema(schema));

  // Label shards.
  std::vector<PendingBlob> label_blobs(num_shards);
  std::vector<uint32_t> codes;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const size_t shard_rows = ranges[s].second - ranges[s].first;
    codes.resize(shard_rows);
    for (size_t i = 0; i < shard_rows; ++i) {
      const uint64_t pos = ranges[s].first + i;
      codes[i] = static_cast<uint32_t>(
          dataset.labels()[rows ? rows[pos] : pos]);
    }
    std::string payload;
    PackCodes(codes.data(), shard_rows, label_width, &payload);
    label_blobs[s] = EmitBlob(&file, payload);
  }

  // Weight shards.
  std::vector<PendingBlob> weight_blobs;
  if (has_weights) {
    weight_blobs.resize(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      std::string payload;
      for (uint64_t pos = ranges[s].first; pos < ranges[s].second; ++pos) {
        AppendF64(&payload, dataset.weights()[rows ? rows[pos] : pos]);
      }
      weight_blobs[s] = EmitBlob(&file, payload);
    }
  }

  // Feature columns, attr-major / shard-minor.
  struct PendingShard {
    PendingBlob blob;
    double zmin = 0.0, zmax = 0.0;
    uint32_t cmin = 0, cmax = 0;
  };
  std::vector<std::vector<PendingShard>> column_shards(num_attrs);
  std::vector<double> gathered;
  for (uint32_t a = 0; a < num_attrs; ++a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    const Attribute& attribute = schema.attribute(attr);
    column_shards[a].resize(num_shards);
    if (attribute.is_numeric()) {
      const std::vector<double>& column = dataset.numeric_column(attr);
      for (uint32_t s = 0; s < num_shards; ++s) {
        const size_t shard_rows = ranges[s].second - ranges[s].first;
        const double* values;
        if (rows == nullptr) {
          values = column.data() + ranges[s].first;
        } else {
          gathered.resize(shard_rows);
          for (size_t i = 0; i < shard_rows; ++i) {
            gathered[i] = column[rows[ranges[s].first + i]];
          }
          values = gathered.data();
        }
        std::string payload;
        payload.resize(shard_rows * sizeof(double));
        std::memcpy(&payload[0], values, shard_rows * sizeof(double));
        PendingShard& shard = column_shards[a][s];
        NumericZone(values, shard_rows, &shard.zmin, &shard.zmax);
        shard.blob = EmitBlob(&file, payload);
      }
    } else {
      const std::vector<CategoryId>& column = dataset.categorical_column(attr);
      const uint32_t invalid_code =
          static_cast<uint32_t>(attribute.num_categories());
      const uint32_t width = BitsForMaxValue(invalid_code);
      for (uint32_t s = 0; s < num_shards; ++s) {
        const size_t shard_rows = ranges[s].second - ranges[s].first;
        codes.resize(shard_rows);
        for (size_t i = 0; i < shard_rows; ++i) {
          const uint64_t pos = ranges[s].first + i;
          const CategoryId cell = column[rows ? rows[pos] : pos];
          if (cell == kInvalidCategory) {
            codes[i] = invalid_code;
          } else if (cell >= 0 &&
                     static_cast<uint32_t>(cell) < invalid_code) {
            codes[i] = static_cast<uint32_t>(cell);
          } else {
            return Status::InvalidArgument(
                "shard_store: categorical cell outside attribute '" +
                attribute.name() + "' dictionary");
          }
        }
        std::string payload;
        PackCodes(codes.data(), shard_rows, width, &payload);
        PendingShard& shard = column_shards[a][s];
        CodeZone(codes.data(), shard_rows, &shard.cmin, &shard.cmax);
        shard.blob = EmitBlob(&file, payload);
      }
    }
  }

  // Directory.
  const uint64_t dir_offset = file.size();
  std::string dir;
  dir.reserve(DirectorySize(num_attrs, num_shards, has_weights));
  AppendBlobRef(&dir, schema_blob);
  for (uint32_t s = 0; s < num_shards; ++s) {
    AppendU64(&dir, ranges[s].first);
    AppendU64(&dir, ranges[s].second);
  }
  AppendU32(&dir, label_width);
  for (uint32_t s = 0; s < num_shards; ++s) AppendBlobRef(&dir, label_blobs[s]);
  for (const PendingBlob& blob : weight_blobs) AppendBlobRef(&dir, blob);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    const Attribute& attribute = schema.attribute(static_cast<AttrIndex>(a));
    dir.push_back(attribute.is_numeric() ? '\0' : '\1');
    dir.append(3, '\0');
    AppendU32(&dir, attribute.is_numeric()
                        ? 0
                        : BitsForMaxValue(attribute.num_categories()));
    for (uint32_t s = 0; s < num_shards; ++s) {
      const PendingShard& shard = column_shards[a][s];
      AppendBlobRef(&dir, shard.blob);
      if (attribute.is_numeric()) {
        AppendF64(&dir, shard.zmin);
        AppendF64(&dir, shard.zmax);
      } else {
        AppendU32(&dir, shard.cmin);
        AppendU32(&dir, shard.cmax);
        AppendU64(&dir, 0);
      }
    }
  }
  assert(dir.size() == DirectorySize(num_attrs, num_shards, has_weights));
  const uint64_t dir_checksum = Fnv1a(dir);
  file.append(dir);

  // Patch the header.
  std::string header;
  header.reserve(kHeaderSize);
  header.append(kMagic, sizeof(kMagic));
  AppendU32(&header, kVersion);
  AppendU32(&header, has_weights ? kFlagHasWeights : 0);
  AppendU64(&header, num_rows);
  AppendU32(&header, num_attrs);
  AppendU32(&header, num_shards);
  AppendU64(&header, dir_offset);
  AppendU64(&header, dir.size());
  AppendU64(&header, dir_checksum);
  AppendU64(&header, file.size());
  assert(header.size() == kHeaderSize);
  std::memcpy(&file[0], header.data(), kHeaderSize);
  return file;
}

StatusOr<std::string> SerializeShardStore(
    const Dataset& dataset, const ShardStoreWriteOptions& options) {
  return SerializeRowsImpl(dataset, nullptr, dataset.num_rows(), options);
}

Status WriteShardStore(const Dataset& dataset, const std::string& path,
                       const ShardStoreWriteOptions& options) {
  StatusOr<std::string> image = SerializeShardStore(dataset, options);
  if (!image.ok()) return image.status();
  return WriteStringToFile(*image, path);
}

StatusOr<std::string> SerializeShardStoreRows(
    const Dataset& dataset, const RowId* rows, size_t count,
    const ShardStoreWriteOptions& options) {
  assert(rows != nullptr || count == 0);
  return SerializeRowsImpl(dataset, rows, count, options);
}

Status WriteShardStoreRows(const Dataset& dataset, const RowId* rows,
                           size_t count, const std::string& path,
                           const ShardStoreWriteOptions& options) {
  StatusOr<std::string> image =
      SerializeShardStoreRows(dataset, rows, count, options);
  if (!image.ok()) return image.status();
  return WriteStringToFile(*image, path);
}

// -- Reader -----------------------------------------------------------------

Status ShardStoreReader::LocatedError(const std::string& what,
                                      const std::string& msg) const {
  std::string full = "shard_store: " + name_ + ": ";
  if (!what.empty()) full += what + ": ";
  full += msg;
  return Status::InvalidArgument(std::move(full));
}

Status ShardStoreReader::CheckBlob(const BlobRef& blob,
                                   const std::string& what) const {
  if (blob.offset < kHeaderSize || blob.offset > data_.size() ||
      blob.size > data_.size() - blob.offset) {
    return LocatedError(what, "blob out of bounds");
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const ShardStoreReader>> ShardStoreReader::Validate(
    std::shared_ptr<ShardStoreReader> reader) {
  Status status = reader->ParseHeaderAndDirectory();
  if (!status.ok()) return status;
  return std::shared_ptr<const ShardStoreReader>(std::move(reader));
}

StatusOr<std::shared_ptr<const ShardStoreReader>> ShardStoreReader::Open(
    const std::string& path) {
  StatusOr<MappedFile> file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  auto reader = std::shared_ptr<ShardStoreReader>(new ShardStoreReader());
  reader->name_ = path;
  reader->file_ = std::move(file).value();
  reader->data_ = reader->file_.bytes();
  return Validate(std::move(reader));
}

StatusOr<std::shared_ptr<const ShardStoreReader>> ShardStoreReader::OpenBuffer(
    std::string buffer, std::string name) {
  auto reader = std::shared_ptr<ShardStoreReader>(new ShardStoreReader());
  reader->name_ = std::move(name);
  reader->buffer_ = std::move(buffer);
  reader->data_ = reader->buffer_;
  return Validate(std::move(reader));
}

Status ShardStoreReader::ParseHeaderAndDirectory() {
  if (data_.size() < kHeaderSize) {
    return LocatedError("header", "file shorter than the 64-byte header");
  }
  const char* head = data_.data();
  if (std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
    return LocatedError("header", "bad magic");
  }
  const uint32_t version = ReadU32(head + 8);
  if (version != kVersion) {
    return LocatedError("header",
                        "unsupported version " + std::to_string(version));
  }
  const uint32_t flags = ReadU32(head + 12);
  if ((flags & ~kFlagHasWeights) != 0) {
    return LocatedError("header", "unknown flag bits");
  }
  has_weights_ = (flags & kFlagHasWeights) != 0;
  num_rows_ = ReadU64(head + 16);
  num_attrs_ = ReadU32(head + 24);
  num_shards_ = ReadU32(head + 28);
  const uint64_t dir_offset = ReadU64(head + 32);
  const uint64_t dir_size = ReadU64(head + 40);
  const uint64_t dir_checksum = ReadU64(head + 48);
  const uint64_t file_size = ReadU64(head + 56);
  if (num_rows_ == 0) return LocatedError("header", "num_rows is 0");
  if (num_rows_ > UINT32_MAX) {
    return LocatedError("header", "num_rows exceeds the row-id range");
  }
  if (num_shards_ == 0 || num_shards_ > num_rows_) {
    return LocatedError("header", "num_shards outside [1, num_rows]");
  }
  if (file_size != data_.size()) {
    return LocatedError("header", "file_size field does not match the file");
  }
  if (dir_offset < kHeaderSize || dir_offset > data_.size() ||
      dir_size > data_.size() - dir_offset) {
    return LocatedError("header", "directory out of bounds");
  }
  const size_t expected_dir =
      DirectorySize(num_attrs_, num_shards_, has_weights_);
  if (dir_size != expected_dir) {
    return LocatedError("header", "directory size mismatch (expected " +
                                      std::to_string(expected_dir) + " bytes)");
  }
  const std::string_view dir = data_.substr(dir_offset, dir_size);
  if (Fnv1a(dir) != dir_checksum) {
    return LocatedError("header", "directory checksum mismatch");
  }

  const char* p = dir.data();
  schema_blob_ = {ReadU64(p), ReadU64(p + 8), ReadU64(p + 16)};
  p += kBlobRefSize;
  Status status = CheckBlob(schema_blob_, "schema");
  if (!status.ok()) return status;
  const std::string_view schema_bytes =
      data_.substr(schema_blob_.offset, schema_blob_.size);
  if (Fnv1a(schema_bytes) != schema_blob_.checksum) {
    return LocatedError("schema", "checksum mismatch");
  }
  StatusOr<Schema> schema = ParseSchema(std::string(schema_bytes));
  if (!schema.ok()) {
    return LocatedError("schema", schema.status().message());
  }
  schema_ = std::move(schema).value();
  if (schema_.num_attributes() != num_attrs_) {
    return LocatedError(
        "schema", "attribute count does not match the header");
  }
  if (schema_.num_classes() == 0) {
    return LocatedError("schema", "class dictionary is empty");
  }

  ranges_.resize(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    ranges_[s] = {ReadU64(p), ReadU64(p + 8)};
    p += 16;
    const uint64_t expected_begin = s == 0 ? 0 : ranges_[s - 1].second;
    if (ranges_[s].first != expected_begin ||
        ranges_[s].second <= ranges_[s].first ||
        ranges_[s].second > num_rows_) {
      return LocatedError("shard " + std::to_string(s),
                          "row range does not partition [0, num_rows)");
    }
  }
  if (ranges_.back().second != num_rows_) {
    return LocatedError("shard " + std::to_string(num_shards_ - 1),
                        "row ranges do not cover num_rows");
  }

  label_bit_width_ = ReadU32(p);
  p += 4;
  if (label_bit_width_ != BitsForMaxValue(schema_.num_classes() - 1)) {
    return LocatedError("labels", "bit width does not match the class count");
  }
  label_blobs_.resize(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    label_blobs_[s] = {ReadU64(p), ReadU64(p + 8), ReadU64(p + 16)};
    p += kBlobRefSize;
    status = CheckBlob(label_blobs_[s], "labels shard " + std::to_string(s));
    if (!status.ok()) return status;
    const uint64_t rows = ranges_[s].second - ranges_[s].first;
    if (label_blobs_[s].size != PackedBytes(rows, label_bit_width_)) {
      return LocatedError("labels shard " + std::to_string(s),
                          "blob size mismatch");
    }
  }
  weight_blobs_.clear();
  if (has_weights_) {
    weight_blobs_.resize(num_shards_);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      weight_blobs_[s] = {ReadU64(p), ReadU64(p + 8), ReadU64(p + 16)};
      p += kBlobRefSize;
      status =
          CheckBlob(weight_blobs_[s], "weights shard " + std::to_string(s));
      if (!status.ok()) return status;
      const uint64_t rows = ranges_[s].second - ranges_[s].first;
      if (weight_blobs_[s].size != rows * sizeof(double)) {
        return LocatedError("weights shard " + std::to_string(s),
                            "blob size mismatch");
      }
    }
  }

  columns_.resize(num_attrs_);
  for (uint32_t a = 0; a < num_attrs_; ++a) {
    const std::string where = "attr " + std::to_string(a);
    const Attribute& attribute = schema_.attribute(static_cast<AttrIndex>(a));
    const unsigned char type = static_cast<unsigned char>(p[0]);
    if (type > 1) return LocatedError(where, "unknown column type");
    if (p[1] != 0 || p[2] != 0 || p[3] != 0) {
      return LocatedError(where, "nonzero padding");
    }
    ColumnDir& column = columns_[a];
    column.numeric = type == 0;
    if (column.numeric != attribute.is_numeric()) {
      return LocatedError(where, "column type does not match the schema");
    }
    column.bit_width = ReadU32(p + 4);
    p += 8;
    const uint32_t expected_width =
        column.numeric ? 0 : BitsForMaxValue(attribute.num_categories());
    if (column.bit_width != expected_width) {
      return LocatedError(where, "bit width does not match the dictionary");
    }
    column.shards.resize(num_shards_);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      const std::string shard_where = where + " shard " + std::to_string(s);
      ColumnShard& shard = column.shards[s];
      shard.blob = {ReadU64(p), ReadU64(p + 8), ReadU64(p + 16)};
      p += kBlobRefSize;
      status = CheckBlob(shard.blob, shard_where);
      if (!status.ok()) return status;
      const uint64_t rows = ranges_[s].second - ranges_[s].first;
      if (column.numeric) {
        if (shard.blob.size != rows * sizeof(double)) {
          return LocatedError(shard_where, "blob size mismatch");
        }
        shard.zmin = ReadF64(p);
        shard.zmax = ReadF64(p + 8);
      } else {
        if (shard.blob.size != PackedBytes(rows, column.bit_width)) {
          return LocatedError(shard_where, "blob size mismatch");
        }
        shard.cmin = ReadU32(p);
        shard.cmax = ReadU32(p + 4);
        if (ReadU64(p + 8) != 0) {
          return LocatedError(shard_where, "nonzero zonemap padding");
        }
        const uint32_t invalid_code =
            static_cast<uint32_t>(attribute.num_categories());
        if (shard.cmin > shard.cmax || shard.cmax > invalid_code) {
          return LocatedError(shard_where, "zonemap code range out of bounds");
        }
      }
      p += 16;
    }
  }
  assert(p == dir.data() + dir.size());
  return Status::OK();
}

std::pair<uint64_t, uint64_t> ShardStoreReader::shard_rows(
    uint32_t shard) const {
  assert(shard < num_shards_);
  return ranges_[shard];
}

size_t ShardStoreReader::column_bytes() const {
  size_t total = 0;
  for (const ColumnDir& column : columns_) {
    total += num_rows_ *
             (column.numeric ? sizeof(double) : sizeof(CategoryId));
  }
  return total;
}

Status ShardStoreReader::DecodeNumericShard(AttrIndex attr, uint32_t shard,
                                            double* out) const {
  const ColumnDir& column = columns_[static_cast<size_t>(attr)];
  const ColumnShard& cs = column.shards[shard];
  const std::string where = "attr " + std::to_string(attr) + " shard " +
                            std::to_string(shard);
  const std::string_view bytes = data_.substr(cs.blob.offset, cs.blob.size);
  if (Fnv1a(bytes) != cs.blob.checksum) {
    return LocatedError(where, "checksum mismatch");
  }
  const size_t rows = ranges_[shard].second - ranges_[shard].first;
  std::memcpy(out, bytes.data(), rows * sizeof(double));
  double zmin, zmax;
  NumericZone(out, rows, &zmin, &zmax);
  if (std::memcmp(&zmin, &cs.zmin, sizeof(double)) != 0 ||
      std::memcmp(&zmax, &cs.zmax, sizeof(double)) != 0) {
    return LocatedError(where, "zonemap does not match the decoded values");
  }
  return Status::OK();
}

Status ShardStoreReader::DecodeCategoricalShard(AttrIndex attr, uint32_t shard,
                                                CategoryId* out) const {
  const ColumnDir& column = columns_[static_cast<size_t>(attr)];
  const ColumnShard& cs = column.shards[shard];
  const std::string where = "attr " + std::to_string(attr) + " shard " +
                            std::to_string(shard);
  const std::string_view bytes = data_.substr(cs.blob.offset, cs.blob.size);
  if (Fnv1a(bytes) != cs.blob.checksum) {
    return LocatedError(where, "checksum mismatch");
  }
  const size_t rows = ranges_[shard].second - ranges_[shard].first;
  std::vector<uint32_t> codes(rows);
  UnpackCodes(reinterpret_cast<const unsigned char*>(bytes.data()), rows,
              column.bit_width, codes.data());
  const uint32_t invalid_code = static_cast<uint32_t>(
      schema_.attribute(attr).num_categories());
  uint32_t cmin, cmax;
  CodeZone(codes.data(), rows, &cmin, &cmax);
  if (cmax > invalid_code) {
    return LocatedError(where, "code outside the dictionary");
  }
  if (cmin != cs.cmin || cmax != cs.cmax) {
    return LocatedError(where, "zonemap does not match the decoded values");
  }
  for (size_t i = 0; i < rows; ++i) {
    out[i] = codes[i] == invalid_code ? kInvalidCategory
                                      : static_cast<CategoryId>(codes[i]);
  }
  return Status::OK();
}

Status ShardStoreReader::FillNumeric(AttrIndex attr,
                                     std::vector<double>* out) const {
  assert(attr >= 0 && static_cast<uint32_t>(attr) < num_attrs_);
  if (!columns_[static_cast<size_t>(attr)].numeric) {
    return LocatedError("attr " + std::to_string(attr), "not numeric");
  }
  out->resize(num_rows_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Status status = DecodeNumericShard(attr, s, out->data() + ranges_[s].first);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ShardStoreReader::FillCategorical(AttrIndex attr,
                                         std::vector<CategoryId>* out) const {
  assert(attr >= 0 && static_cast<uint32_t>(attr) < num_attrs_);
  if (columns_[static_cast<size_t>(attr)].numeric) {
    return LocatedError("attr " + std::to_string(attr), "not categorical");
  }
  out->resize(num_rows_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Status status =
        DecodeCategoricalShard(attr, s, out->data() + ranges_[s].first);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ShardStoreReader::FillLabels(std::vector<CategoryId>* out) const {
  out->resize(num_rows_);
  const uint32_t num_classes = static_cast<uint32_t>(schema_.num_classes());
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const std::string where = "labels shard " + std::to_string(s);
    const BlobRef& blob = label_blobs_[s];
    const std::string_view bytes = data_.substr(blob.offset, blob.size);
    if (Fnv1a(bytes) != blob.checksum) {
      return LocatedError(where, "checksum mismatch");
    }
    const size_t rows = ranges_[s].second - ranges_[s].first;
    std::vector<uint32_t> codes(rows);
    UnpackCodes(reinterpret_cast<const unsigned char*>(bytes.data()), rows,
                label_bit_width_, codes.data());
    CategoryId* dst = out->data() + ranges_[s].first;
    for (size_t i = 0; i < rows; ++i) {
      if (codes[i] >= num_classes) {
        return LocatedError(where, "label outside the class dictionary");
      }
      dst[i] = static_cast<CategoryId>(codes[i]);
    }
  }
  return Status::OK();
}

Status ShardStoreReader::FillWeights(std::vector<double>* out) const {
  out->assign(num_rows_, 1.0);
  if (!has_weights_) return Status::OK();
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const std::string where = "weights shard " + std::to_string(s);
    const BlobRef& blob = weight_blobs_[s];
    const std::string_view bytes = data_.substr(blob.offset, blob.size);
    if (Fnv1a(bytes) != blob.checksum) {
      return LocatedError(where, "checksum mismatch");
    }
    const size_t rows = ranges_[s].second - ranges_[s].first;
    double* dst = out->data() + ranges_[s].first;
    for (size_t i = 0; i < rows; ++i) {
      const double w = ReadF64(bytes.data() + i * sizeof(double));
      if (!std::isfinite(w)) {
        return LocatedError(where, "non-finite record weight");
      }
      dst[i] = w;
    }
  }
  return Status::OK();
}

std::vector<std::pair<double, double>> ShardStoreReader::NumericRangeHints()
    const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> hints(
      num_attrs_, {kInf, -kInf});
  for (uint32_t a = 0; a < num_attrs_; ++a) {
    const ColumnDir& column = columns_[a];
    if (!column.numeric) continue;
    double mn = kInf, mx = -kInf;
    bool known = true;
    for (const ColumnShard& shard : column.shards) {
      if (!std::isfinite(shard.zmin) || !std::isfinite(shard.zmax)) {
        known = false;
        break;
      }
      mn = std::min(mn, shard.zmin);
      mx = std::max(mx, shard.zmax);
    }
    if (known) hints[a] = {mn, mx};
  }
  return hints;
}

StatusOr<Dataset> ShardStoreReader::LoadDataset() const {
  Dataset dataset(schema_);
  dataset.AppendRows(num_rows_);
  std::vector<CategoryId> ids;
  Status status = FillLabels(&ids);
  if (!status.ok()) return status;
  std::copy(ids.begin(), ids.end(), dataset.mutable_label_data());
  std::vector<double> weights;
  status = FillWeights(&weights);
  if (!status.ok()) return status;
  dataset.SetAllWeights(std::move(weights));
  for (uint32_t a = 0; a < num_attrs_; ++a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    if (columns_[a].numeric) {
      double* out = dataset.mutable_numeric_data(attr);
      for (uint32_t s = 0; s < num_shards_; ++s) {
        status = DecodeNumericShard(attr, s, out + ranges_[s].first);
        if (!status.ok()) return status;
      }
    } else {
      CategoryId* out = dataset.mutable_categorical_data(attr);
      for (uint32_t s = 0; s < num_shards_; ++s) {
        status = DecodeCategoricalShard(attr, s, out + ranges_[s].first);
        if (!status.ok()) return status;
      }
    }
  }
  dataset.SetNumericRangeHints(NumericRangeHints());
  return dataset;
}

// -- Demand paging ----------------------------------------------------------

namespace {

class ShardStorePager : public ColumnPager {
 public:
  explicit ShardStorePager(std::shared_ptr<const ShardStoreReader> reader)
      : reader_(std::move(reader)) {}

  Status FillNumeric(AttrIndex attr,
                     std::vector<double>* out) const override {
    return reader_->FillNumeric(attr, out);
  }
  Status FillCategorical(AttrIndex attr,
                         std::vector<CategoryId>* out) const override {
    return reader_->FillCategorical(attr, out);
  }

 private:
  std::shared_ptr<const ShardStoreReader> reader_;
};

}  // namespace

StatusOr<Dataset> MakePagedDataset(
    std::shared_ptr<const ShardStoreReader> reader, size_t budget_bytes) {
  assert(reader != nullptr);
  std::vector<CategoryId> labels;
  Status status = reader->FillLabels(&labels);
  if (!status.ok()) return status;
  std::vector<double> weights;
  status = reader->FillWeights(&weights);
  if (!status.ok()) return status;
  Dataset dataset(reader->schema());
  dataset.AttachPager(std::make_shared<ShardStorePager>(reader),
                      reader->num_rows(), budget_bytes);
  std::copy(labels.begin(), labels.end(), dataset.mutable_label_data());
  dataset.SetAllWeights(std::move(weights));
  dataset.SetNumericRangeHints(reader->NumericRangeHints());
  return dataset;
}

}  // namespace pnr
