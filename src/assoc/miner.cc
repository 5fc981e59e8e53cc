#include "assoc/miner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "rules/condition.h"

namespace pnr {
namespace {

// Support floors in absolute row counts. kUnreachable disables a class
// floor (per-class criterion off, or the class has no rows).
constexpr uint64_t kUnreachable = std::numeric_limits<uint64_t>::max();

struct Floors {
  uint64_t global = 1;
  std::vector<uint64_t> per_class;
};

uint64_t CeilFloor(double fraction, uint64_t n) {
  const double raw = std::ceil(fraction * static_cast<double>(n));
  return std::max<uint64_t>(1, static_cast<uint64_t>(raw));
}

Floors ComputeFloors(const VerticalIndex& index,
                     const AssocMineOptions& options) {
  Floors floors;
  floors.global = CeilFloor(options.min_support, index.num_rows);
  floors.per_class.assign(index.class_counts.size(), kUnreachable);
  if (options.per_class_min_support > 0.0) {
    for (size_t c = 0; c < index.class_counts.size(); ++c) {
      if (index.class_counts[c] == 0) continue;
      floors.per_class[c] =
          CeilFloor(options.per_class_min_support, index.class_counts[c]);
    }
  }
  return floors;
}

// Per-candidate support counts, written to a private slot by whichever
// worker claims the index (order-free; the in-order reduce below restores
// determinism).
struct SupportCounts {
  uint64_t support = 0;
  std::vector<uint64_t> per_class;
};

void CountSupports(const VerticalIndex& index,
                   const std::vector<std::vector<int32_t>>& candidates,
                   size_t num_threads, std::vector<SupportCounts>* out) {
  out->assign(candidates.size(), SupportCounts{});
  ThreadPool pool(
      ThreadPool::ClampThreadsForRows(num_threads, candidates.size() * 64));
  pool.ParallelFor(candidates.size(), [&](size_t i) {
    const std::vector<int32_t>& items = candidates[i];
    thread_local BitMask scratch;
    scratch = index.item_rows[static_cast<size_t>(items[0])];
    for (size_t k = 1; k < items.size(); ++k) {
      scratch &= index.item_rows[static_cast<size_t>(items[k])];
    }
    SupportCounts& counts = (*out)[i];
    counts.support = scratch.Count();
    counts.per_class.resize(index.class_rows.size());
    for (size_t c = 0; c < index.class_rows.size(); ++c) {
      counts.per_class[c] = scratch.CountAnd(index.class_rows[c]);
    }
  });
}

// The rare-class-aware frequency test: global floor OR any class floor.
// `rescued` reports itemsets alive only through the per-class disjunct.
bool IsFrequent(const SupportCounts& counts, const Floors& floors,
                bool* rescued) {
  if (counts.support >= floors.global) {
    *rescued = false;
    return true;
  }
  for (size_t c = 0; c < counts.per_class.size(); ++c) {
    if (counts.per_class[c] >= floors.per_class[c]) {
      *rescued = true;
      return true;
    }
  }
  return false;
}

}  // namespace

ItemCatalog ItemCatalog::Build(const Schema& schema,
                               const Discretizer& discretizer) {
  ItemCatalog catalog;
  catalog.attr_base_.assign(schema.num_attributes(), -1);
  for (AttrIndex a = 0; a < static_cast<AttrIndex>(schema.num_attributes());
       ++a) {
    const Attribute& attr = schema.attribute(a);
    if (attr.is_categorical()) {
      if (attr.num_categories() == 0) continue;
      catalog.attr_base_[static_cast<size_t>(a)] =
          static_cast<int32_t>(catalog.items_.size());
      for (CategoryId c = 0;
           c < static_cast<CategoryId>(attr.num_categories()); ++c) {
        catalog.items_.push_back(Item{a, c, -1});
      }
    } else {
      const size_t bins = discretizer.num_bins(a);
      if (bins == 0) continue;
      catalog.attr_base_[static_cast<size_t>(a)] =
          static_cast<int32_t>(catalog.items_.size());
      for (size_t b = 0; b < bins; ++b) {
        catalog.items_.push_back(Item{a, kInvalidCategory,
                                      static_cast<int32_t>(b)});
      }
    }
  }
  return catalog;
}

int32_t ItemCatalog::CategoricalItem(AttrIndex attr, CategoryId value) const {
  if (value == kInvalidCategory) return -1;
  const int32_t base = attr_base_[static_cast<size_t>(attr)];
  if (base < 0) return -1;
  return base + value;
}

int32_t ItemCatalog::NumericItem(AttrIndex attr, double value,
                                 const Discretizer& discretizer) const {
  const int32_t base = attr_base_[static_cast<size_t>(attr)];
  if (base < 0) return -1;
  const int bin = discretizer.BinOf(attr, value);
  if (bin < 0) return -1;
  return base + bin;
}

void ItemCatalog::AppendConditions(int32_t id, const Discretizer& discretizer,
                                   Rule* rule) const {
  const Item& item = items_[static_cast<size_t>(id)];
  if (item.is_categorical()) {
    rule->AddCondition(Condition::CatEqual(item.attr, item.category));
  } else {
    discretizer.AppendBinConditions(item.attr, item.bin, rule);
  }
}

VerticalIndex VerticalIndex::Build(const Dataset& dataset,
                                   const RowSubset& rows,
                                   const ItemCatalog& catalog,
                                   const Discretizer& discretizer,
                                   size_t num_threads) {
  const Schema& schema = dataset.schema();
  VerticalIndex index;
  index.num_rows = rows.size();
  index.item_rows.assign(catalog.size(), BitMask(rows.size()));
  index.item_attr.resize(catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    index.item_attr[i] = catalog.item(static_cast<int32_t>(i)).attr;
  }
  index.class_rows.assign(schema.num_classes(), BitMask(rows.size()));
  index.class_counts.assign(schema.num_classes(), 0);

  for (size_t i = 0; i < rows.size(); ++i) {
    const CategoryId label = dataset.label(rows[i]);
    index.class_rows[static_cast<size_t>(label)].Set(i);
    ++index.class_counts[static_cast<size_t>(label)];
  }

  // One column scan per attribute, fanned over the pool: every attribute's
  // items are disjoint masks, so workers never touch the same slot. Each
  // scan pins its column for the duration — the paged-dataset contract for
  // concurrent readers.
  ThreadPool pool(ThreadPool::ClampThreadsForRows(num_threads, rows.size()));
  pool.ParallelFor(schema.num_attributes(), [&](size_t a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    if (!catalog.AttrHasItems(attr)) return;
    const Dataset::ColumnPin pin = dataset.PinColumn(attr);
    const bool categorical = schema.attribute(attr).is_categorical();
    for (size_t i = 0; i < rows.size(); ++i) {
      const int32_t id =
          categorical
              ? catalog.CategoricalItem(attr,
                                        dataset.categorical(rows[i], attr))
              : catalog.NumericItem(attr, dataset.numeric(rows[i], attr),
                                    discretizer);
      if (id >= 0) index.item_rows[static_cast<size_t>(id)].Set(i);
    }
  });
  return index;
}

Status AssocMineOptions::Validate() const {
  if (min_support < 0.0 || min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in [0, 1]");
  }
  if (per_class_min_support < 0.0 || per_class_min_support > 1.0) {
    return Status::InvalidArgument("per_class_min_support must be in [0, 1]");
  }
  if (min_confidence < 0.0 || min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in [0, 1]");
  }
  if (min_lift < 0.0) {
    return Status::InvalidArgument("min_lift must be >= 0");
  }
  if (max_len < 1) {
    return Status::InvalidArgument("max_len must be >= 1");
  }
  if (max_candidates < 1) {
    return Status::InvalidArgument("max_candidates must be >= 1");
  }
  return discretize.Validate();
}

StatusOr<std::vector<FrequentItemset>> MineFrequentItemsets(
    const VerticalIndex& index, const AssocMineOptions& options,
    MineStats* stats) {
  if (index.num_rows == 0) {
    return Status::InvalidArgument("no rows to mine");
  }
  const Floors floors = ComputeFloors(index, options);

  std::vector<FrequentItemset> frequent;
  // Current level's frequent itemsets (items only; counts live in
  // `frequent`), kept in lexicographic order for the prefix join.
  std::vector<std::vector<int32_t>> level;
  std::vector<std::vector<int32_t>> candidates;
  candidates.reserve(index.item_rows.size());
  for (int32_t i = 0; i < static_cast<int32_t>(index.item_rows.size()); ++i) {
    candidates.push_back({i});
  }

  std::vector<SupportCounts> counts;
  for (size_t k = 1; k <= options.max_len && !candidates.empty(); ++k) {
    if (candidates.size() > options.max_candidates) {
      return Status::OutOfRange(
          "assoc miner: level " + std::to_string(k) + " has " +
          std::to_string(candidates.size()) + " candidates (cap " +
          std::to_string(options.max_candidates) +
          "); raise --min-support / --per-class-support or lower --max-len");
    }
    if (stats != nullptr) stats->candidates_generated += candidates.size();
    CountSupports(index, candidates, options.num_threads, &counts);

    // Serial in-order sweep: the frequent list (and the level list the next
    // join reads) is identical for every thread count.
    level.clear();
    for (size_t i = 0; i < candidates.size(); ++i) {
      bool rescued = false;
      if (!IsFrequent(counts[i], floors, &rescued)) continue;
      if (stats != nullptr && rescued) ++stats->itemsets_rescued;
      level.push_back(candidates[i]);
      FrequentItemset itemset;
      itemset.items = std::move(candidates[i]);
      itemset.support = counts[i].support;
      itemset.class_support = std::move(counts[i].per_class);
      frequent.push_back(std::move(itemset));
    }

    if (k == options.max_len) break;

    // Prefix join + subset pruning (classic Apriori candidate generation),
    // with an attribute-distinctness check: two items of one attribute can
    // never co-occur... except that a row contributes one item per
    // attribute, so such a candidate has support 0 anyway — the check just
    // skips the wasted count.
    std::set<std::vector<int32_t>> level_set(level.begin(), level.end());
    candidates.clear();
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        const std::vector<int32_t>& a = level[i];
        const std::vector<int32_t>& b = level[j];
        if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
        if (index.item_attr[static_cast<size_t>(a.back())] ==
            index.item_attr[static_cast<size_t>(b.back())]) {
          continue;
        }
        std::vector<int32_t> cand = a;
        cand.push_back(b.back());
        // All (k-1)-subsets must be frequent. Dropping the last item gives
        // `a`, dropping the second-to-last gives `b` (both present by
        // construction); test the rest.
        bool prune = false;
        for (size_t drop = 0; drop + 2 < cand.size() && !prune; ++drop) {
          std::vector<int32_t> sub;
          sub.reserve(cand.size() - 1);
          for (size_t t = 0; t < cand.size(); ++t) {
            if (t != drop) sub.push_back(cand[t]);
          }
          prune = level_set.find(sub) == level_set.end();
        }
        if (!prune) candidates.push_back(std::move(cand));
        if (candidates.size() > options.max_candidates) {
          return Status::OutOfRange(
              "assoc miner: level " + std::to_string(k + 1) +
              " exceeded the candidate cap (" +
              std::to_string(options.max_candidates) +
              "); raise --min-support / --per-class-support or lower "
              "--max-len");
        }
      }
    }
  }
  if (stats != nullptr) stats->frequent_itemsets = frequent.size();
  return frequent;
}

std::vector<CandidateRule> GenerateRules(
    const std::vector<FrequentItemset>& frequent, const VerticalIndex& index,
    const AssocMineOptions& options, MineStats* stats) {
  const Floors floors = ComputeFloors(index, options);
  const double n = static_cast<double>(index.num_rows);
  std::vector<CandidateRule> rules;
  for (const FrequentItemset& itemset : frequent) {
    for (size_t c = 0; c < itemset.class_support.size(); ++c) {
      const uint64_t cs = itemset.class_support[c];
      if (cs == 0) continue;
      // The ruleitem <itemset, c> must itself be frequent: CBA measures a
      // CAR's support as the count of rows matching antecedent AND class.
      if (cs < floors.global && cs < floors.per_class[c]) continue;
      const double confidence =
          static_cast<double>(cs) / static_cast<double>(itemset.support);
      if (confidence < options.min_confidence) continue;
      const double prior = static_cast<double>(index.class_counts[c]) / n;
      const double lift = confidence / prior;
      if (lift < options.min_lift) continue;
      CandidateRule rule;
      rule.items = itemset.items;
      rule.cls = static_cast<CategoryId>(c);
      rule.support = itemset.support;
      rule.class_support = cs;
      rule.confidence = confidence;
      rule.lift = lift;
      rules.push_back(std::move(rule));
    }
  }
  if (stats != nullptr) stats->rules_generated = rules.size();
  return rules;
}

}  // namespace pnr
