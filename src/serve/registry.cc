#include "serve/registry.h"

#include <algorithm>
#include <utility>

#include "assoc/model_io.h"
#include "common/file_io.h"
#include "data/schema_io.h"

namespace pnr {

Status ModelRegistry::Load(const std::string& name,
                           const std::string& model_path,
                           const std::string& schema_path) {
  auto schema = LoadSchema(schema_path);
  if (!schema.ok()) {
    return Status(schema.status().code(),
                  "model '" + name + "': " + schema.status().message());
  }
  Schema schema_value = std::move(schema).value();
  // Both model families load through the same flag and serve through the
  // same fleet.
  auto text = ReadFileToString(model_path);
  StatusOr<AnyModel> model =
      text.ok() ? ParseAnyModel(*text, schema_value) : text.status();
  if (!model.ok()) {
    return Status(model.status().code(),
                  "model '" + name + "': " + model.status().message());
  }
  AnyModel any = std::move(model).value();
  auto entry = std::make_shared<ServedModel>(
      name, std::move(schema_value), std::move(any.classifier), any.kind,
      any.primary_rules, any.secondary_rules);
  std::lock_guard<std::mutex> lock(mutex_);
  InstallLocked(name, std::move(entry));
  return Status::OK();
}

void ModelRegistry::Install(const std::string& name, Schema schema,
                            PnruleClassifier model) {
  auto entry =
      std::make_shared<ServedModel>(name, std::move(schema), std::move(model));
  std::lock_guard<std::mutex> lock(mutex_);
  InstallLocked(name, std::move(entry));
}

void ModelRegistry::InstallLocked(const std::string& name,
                                  std::shared_ptr<ServedModel> entry) {
  const auto it = models_.find(name);
  if (it != models_.end()) entry->version = it->second->version + 1;
  models_[name] = std::move(entry);  // atomic swap: old snapshot lives on
                                     // until its last in-flight user drops it
  epoch_.fetch_add(1, std::memory_order_release);
}

bool ModelRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (models_.erase(name) == 0) return false;
  epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

std::shared_ptr<const ServedModel> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

size_t SnapshotCache::Refresh() {
  if (registry_->epoch_.load(std::memory_order_acquire) == seen_epoch_) {
    return 0;
  }
  std::map<std::string, std::shared_ptr<const ServedModel>> previous =
      std::move(models_);
  std::lock_guard<std::mutex> lock(registry_->mutex_);
  models_ = registry_->models_;
  ordered_.clear();
  ordered_.reserve(models_.size());
  for (const auto& [name, entry] : models_) ordered_.push_back(entry);
  // Read the epoch under the mutex: a swap racing with this copy either
  // landed in the table we just copied or bumps the epoch we re-read here,
  // forcing another refresh next round. Either way no update is skipped.
  seen_epoch_ = registry_->epoch_.load(std::memory_order_acquire);
  // Swaps observed = version advance of names seen both before and after
  // (covers several installs landing between two refreshes); a name's first
  // appearance is a load, not a swap.
  size_t swaps = 0;
  for (const auto& [name, entry] : models_) {
    const auto it = previous.find(name);
    if (it != previous.end() && entry->version > it->second->version) {
      swaps += entry->version - it->second->version;
    }
  }
  return swaps;
}

uint64_t SnapshotCache::max_version() const {
  uint64_t version = 0;
  for (const auto& entry : ordered_) {
    version = std::max(version, entry->version);
  }
  return version;
}

std::shared_ptr<const ServedModel> SnapshotCache::Get(
    const std::string& name) const {
  if (name.empty()) {
    return models_.size() == 1 ? ordered_.front() : nullptr;
  }
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

}  // namespace pnr
