// Attribute descriptors: every column of a dataset is either numeric
// (continuous double) or categorical (dictionary-encoded small integers).

#ifndef PNR_DATA_ATTRIBUTE_H_
#define PNR_DATA_ATTRIBUTE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace pnr {

/// Hash functor enabling heterogeneous (std::string_view) lookup in
/// std::unordered_map<std::string, ...> without materializing a key.
/// Word-at-a-time multiply-xor mix rather than std::hash: category values
/// are short (a handful of bytes), where the per-call overhead of the
/// library's byte-wise hash dominates dictionary-encoding hot loops.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const noexcept {
    const char* p = text.data();
    size_t n = text.size();
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ (n * 0xFF51AFD7ED558CCDULL);
    while (n >= 8) {
      uint64_t w;
      std::memcpy(&w, p, sizeof(w));
      h = Mix(h, w);
      p += 8;
      n -= 8;
    }
    if (n > 0) {
      uint64_t w = 0;
      for (size_t i = 0; i < n; ++i) {
        w = (w << 8) | static_cast<unsigned char>(p[i]);
      }
      h = Mix(h, w);
    }
    return static_cast<size_t>(h);
  }

 private:
  static constexpr uint64_t Mix(uint64_t h, uint64_t w) noexcept {
    h ^= w;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return h;
  }
};

/// Kind of values an attribute holds.
enum class AttributeType {
  kNumeric,
  kCategorical,
};

/// Dictionary-encoded id of a categorical value.
using CategoryId = int32_t;

/// Sentinel for "value not present in the dictionary".
inline constexpr CategoryId kInvalidCategory = -1;

/// Metadata for one column: name, type, and (for categorical columns) the
/// value dictionary mapping strings to dense CategoryIds.
class Attribute {
 public:
  /// Creates a numeric attribute.
  static Attribute Numeric(std::string name);

  /// Creates a categorical attribute with an initially empty dictionary.
  static Attribute Categorical(std::string name);

  /// Creates a categorical attribute with a fixed dictionary.
  static Attribute Categorical(std::string name,
                               std::vector<std::string> values);

  const std::string& name() const { return name_; }
  AttributeType type() const { return type_; }
  bool is_numeric() const { return type_ == AttributeType::kNumeric; }
  bool is_categorical() const { return type_ == AttributeType::kCategorical; }

  /// Number of distinct categorical values. 0 for numeric attributes.
  size_t num_categories() const { return categories_.size(); }

  /// The string for a category id; requires a valid id.
  const std::string& CategoryName(CategoryId id) const;

  /// Id for `value`, or kInvalidCategory if absent. Accepts a string_view
  /// so hot parse loops can look up without allocating.
  CategoryId FindCategory(std::string_view value) const;

  /// Id for `value`, inserting it into the dictionary if absent.
  /// Only valid on categorical attributes.
  CategoryId GetOrAddCategory(std::string_view value);

 private:
  Attribute(std::string name, AttributeType type)
      : name_(std::move(name)), type_(type) {}

  std::string name_;
  AttributeType type_;
  std::vector<std::string> categories_;
  std::unordered_map<std::string, CategoryId, TransparentStringHash,
                     std::equal_to<>>
      category_index_;
};

}  // namespace pnr

#endif  // PNR_DATA_ATTRIBUTE_H_
