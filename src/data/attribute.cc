#include "data/attribute.h"

#include <cassert>

namespace pnr {

Attribute Attribute::Numeric(std::string name) {
  return Attribute(std::move(name), AttributeType::kNumeric);
}

Attribute Attribute::Categorical(std::string name) {
  return Attribute(std::move(name), AttributeType::kCategorical);
}

Attribute Attribute::Categorical(std::string name,
                                 std::vector<std::string> values) {
  Attribute attr(std::move(name), AttributeType::kCategorical);
  for (auto& value : values) {
    attr.GetOrAddCategory(value);
  }
  return attr;
}

const std::string& Attribute::CategoryName(CategoryId id) const {
  assert(id >= 0 && static_cast<size_t>(id) < categories_.size());
  return categories_[static_cast<size_t>(id)];
}

CategoryId Attribute::FindCategory(std::string_view value) const {
  auto it = category_index_.find(value);
  return it == category_index_.end() ? kInvalidCategory : it->second;
}

CategoryId Attribute::GetOrAddCategory(std::string_view value) {
  assert(is_categorical());
  auto it = category_index_.find(value);
  if (it != category_index_.end()) return it->second;
  const CategoryId id = static_cast<CategoryId>(categories_.size());
  categories_.emplace_back(value);
  category_index_.emplace(categories_.back(), id);
  return id;
}

}  // namespace pnr
