// ModelRegistry: named, hot-swappable PNrule models for serving.
//
// Each entry is an immutable ServedModel snapshot held by shared_ptr.
// Lookups copy the pointer under a short mutex; request handlers then score
// against their snapshot with no further coordination, so a concurrent
// Load (hot-swap) never stalls traffic and never changes a request's model
// mid-flight — in-flight requests finish on the snapshot they grabbed, the
// old model is freed when the last of them drops its reference.
//
// Loading is schema-checked: the model text is parsed against the schema
// sidecar (data/schema_io.h), so attribute/category references that do not
// resolve fail the Load, never a request.
//
// Sharded serving never takes the registry mutex on the hot path. The
// registry carries a monotonically increasing epoch, bumped by every
// mutation (Install/Load/Remove); each shard keeps a SnapshotCache whose
// Refresh() compares a relaxed epoch load against the epoch it last copied
// and re-reads the table under the mutex only when they differ. Between
// swaps — i.e. almost always — a lookup is one relaxed atomic load plus a
// local map probe, and the shared_ptr snapshots themselves guarantee a
// shard can never observe a torn model.

#ifndef PNR_SERVE_REGISTRY_H_
#define PNR_SERVE_REGISTRY_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "pnrule/pnrule.h"

namespace pnr {

/// An immutable, shareable (model, schema) snapshot. The model is held
/// through the BinaryClassifier interface so any scoring family — PNrule or
/// the associative classifier — serves through the same fleet; `kind` plus
/// the rule counts feed the /models introspection endpoint.
struct ServedModel {
  /// Wraps a PNrule model (the historical entry point; tests and the
  /// stream retrainer install through this).
  ServedModel(std::string name_in, Schema schema_in, PnruleClassifier model_in)
      : name(std::move(name_in)), schema(std::move(schema_in)) {
    auto owned =
        std::make_shared<const PnruleClassifier>(std::move(model_in));
    kind = "pnrule";
    primary_rules = owned->p_rules().size();
    secondary_rules = owned->n_rules().size();
    model = std::move(owned);
  }

  /// Wraps any classifier. `primary`/`secondary` are the rule counts shown
  /// by /models (P/N for PNrule, CARs/0 for assoc, 0/0 when meaningless).
  ServedModel(std::string name_in, Schema schema_in,
              std::shared_ptr<const BinaryClassifier> model_in,
              std::string kind_in, size_t primary, size_t secondary)
      : name(std::move(name_in)),
        schema(std::move(schema_in)),
        model(std::move(model_in)),
        kind(std::move(kind_in)),
        primary_rules(primary),
        secondary_rules(secondary) {}

  std::string name;
  Schema schema;
  std::shared_ptr<const BinaryClassifier> model;  ///< never null
  std::string kind;
  size_t primary_rules = 0;
  size_t secondary_rules = 0;
  uint64_t version = 1;  ///< bumped on every hot-swap of this name
};

class ModelRegistry {
 public:
  /// Parses `model_path` against the schema at `schema_path` and installs
  /// the result under `name`, atomically replacing any previous version.
  Status Load(const std::string& name, const std::string& model_path,
              const std::string& schema_path);

  /// Installs an already-built model (tests, in-process benches).
  void Install(const std::string& name, Schema schema,
               PnruleClassifier model);

  /// Removes `name`; true when something was removed. In-flight requests
  /// holding the snapshot finish normally.
  bool Remove(const std::string& name);

  /// Snapshot for `name`, or nullptr.
  std::shared_ptr<const ServedModel> Get(const std::string& name) const;

  size_t size() const;

  /// Monotone mutation counter; bumped by Load/Install/Remove. Readable
  /// without the mutex.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  friend class SnapshotCache;

  void InstallLocked(const std::string& name,
                     std::shared_ptr<ServedModel> entry);

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const ServedModel>> models_;
  std::atomic<uint64_t> epoch_{1};
};

/// A shard-private view of the registry. Not thread-safe — each shard owns
/// exactly one and touches it only from its reactor thread.
class SnapshotCache {
 public:
  explicit SnapshotCache(const ModelRegistry* registry)
      : registry_(registry) {}

  /// Re-copies the table iff the registry epoch moved. One relaxed atomic
  /// load when nothing changed. Returns the number of hot-swaps observed:
  /// the summed version advance of names present both before and after the
  /// refresh (a first Load of a new name is not a swap). Shards feed this
  /// into their pnr_serve_model_swaps_total counter.
  size_t Refresh();

  /// Snapshot for `name`, or the sole model when `name` is empty and
  /// exactly one is loaded, or nullptr. Call Refresh() first.
  std::shared_ptr<const ServedModel> Get(const std::string& name) const;

  /// All cached snapshots, ordered by name.
  const std::vector<std::shared_ptr<const ServedModel>>& List() const {
    return ordered_;
  }

  /// Highest version among the cached snapshots (0 when none) — the value a
  /// shard exports as its pnr_serve_model_version gauge.
  uint64_t max_version() const;

 private:
  const ModelRegistry* registry_;
  uint64_t seen_epoch_ = 0;
  std::map<std::string, std::shared_ptr<const ServedModel>> models_;
  std::vector<std::shared_ptr<const ServedModel>> ordered_;
};

}  // namespace pnr

#endif  // PNR_SERVE_REGISTRY_H_
