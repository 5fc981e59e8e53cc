// Rare-item-aware frequent-itemset mining and class-association-rule
// generation over the columnar Dataset.
//
// Items are (attribute, value-bucket) pairs: every category of a
// categorical attribute is an item, every discretizer bin of a numeric
// attribute is an item (see assoc/discretize.h). The miner works on a
// vertical encoding — one coverage BitMask per item over the mined rows —
// so the support of a candidate itemset is a word-parallel AND + popcount,
// and the per-class supports are popcounts against the class masks.
//
// The frequency criterion is the rare-class-aware OR of Ndour et al. /
// Apriori_Goal (PAPERS.md): an itemset is kept when its global support
// clears `min_support` OR its support *within some class c* clears
// `per_class_min_support` of that class's rows. Both disjuncts are
// anti-monotone, so their OR is too and Apriori pruning stays sound —
// while an itemset that only ever appears in a 0.1% rare class survives a
// global floor it could never meet.
//
// Determinism: candidate generation is a pure function of the (ordered)
// frequent list; support counting fans candidate chunks over a ThreadPool
// but each candidate writes only its own slot and the frequent list is
// assembled by a serial in-order sweep, so the mined output is
// byte-identical at any thread count (the repo-wide contract).

#ifndef PNR_ASSOC_MINER_H_
#define PNR_ASSOC_MINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "assoc/discretize.h"
#include "common/bitmask.h"
#include "common/status.h"
#include "data/dataset.h"
#include "rules/rule.h"

namespace pnr {

/// One minable item: a single-attribute value test.
struct Item {
  AttrIndex attr = -1;
  CategoryId category = kInvalidCategory;  ///< categorical items
  int32_t bin = -1;                        ///< numeric items (discretizer bin)

  bool is_categorical() const { return category != kInvalidCategory; }
};

/// The fixed, schema-ordered universe of items for one mining run:
/// attributes in schema order; within an attribute, categories in id order
/// or bins in ascending order. Item ids index VerticalIndex::item_rows.
class ItemCatalog {
 public:
  /// Enumerates the item universe for `schema` under `discretizer`'s cuts.
  /// Attributes with no usable bucketing (constant/all-missing numerics)
  /// contribute no items.
  static ItemCatalog Build(const Schema& schema,
                           const Discretizer& discretizer);

  size_t size() const { return items_.size(); }
  const Item& item(int32_t id) const { return items_[static_cast<size_t>(id)]; }

  /// True when `attr` contributes at least one item.
  bool AttrHasItems(AttrIndex attr) const {
    return attr_base_[static_cast<size_t>(attr)] >= 0;
  }

  /// Item id of a categorical cell, or -1 for kInvalidCategory (missing).
  int32_t CategoricalItem(AttrIndex attr, CategoryId value) const;

  /// Item id of a numeric cell under `discretizer`, or -1 for NaN / an
  /// attribute with no bins.
  int32_t NumericItem(AttrIndex attr, double value,
                      const Discretizer& discretizer) const;

  /// Appends the condition(s) testing `id` to `rule` (1 condition for a
  /// categorical item or an extreme bin, 2 for an interior bin).
  void AppendConditions(int32_t id, const Discretizer& discretizer,
                        Rule* rule) const;

 private:
  std::vector<Item> items_;
  std::vector<int32_t> attr_base_;  ///< first item id per attribute (-1 none)
};

/// Vertical (item -> covered rows) encoding of a row subset, plus the class
/// masks the per-class supports are counted against. Bit i corresponds to
/// rows[i] of the subset the index was built from.
struct VerticalIndex {
  size_t num_rows = 0;
  std::vector<BitMask> item_rows;      ///< catalog.size() masks
  std::vector<AttrIndex> item_attr;    ///< per item: its attribute
  std::vector<BitMask> class_rows;     ///< schema.num_classes() masks
  std::vector<uint64_t> class_counts;  ///< rows per class

  /// Builds the index, fanning the per-attribute column scans over
  /// `num_threads` workers (each attribute's items are disjoint, and each
  /// scan pins its column so demand-paged datasets cannot evict mid-walk).
  static VerticalIndex Build(const Dataset& dataset, const RowSubset& rows,
                             const ItemCatalog& catalog,
                             const Discretizer& discretizer,
                             size_t num_threads);
};

/// Knobs for frequent-itemset mining and CAR generation.
struct AssocMineOptions {
  /// Global minimum support as a fraction of the mined rows.
  double min_support = 0.01;

  /// Rare-class rescue floor: an itemset also counts as frequent when its
  /// support within some class reaches this fraction of that class's rows.
  /// 0 disables the per-class criterion (plain Apriori).
  double per_class_min_support = 0.05;

  /// Minimum confidence P(class | antecedent) of an emitted rule.
  double min_confidence = 0.5;

  /// Minimum lift confidence / P(class) of an emitted rule. 1.0 demands
  /// the antecedent beats the class prior at all.
  double min_lift = 1.0;

  /// Maximum antecedent length (items per rule).
  size_t max_len = 3;

  /// Hard cap on candidates per Apriori level; exceeding it is an error
  /// (raise the support floors) rather than an unbounded allocation.
  size_t max_candidates = 2'000'000;

  /// Worker threads for support counting and index building (0 = auto).
  size_t num_threads = 1;

  /// Numeric discretization knobs.
  DiscretizeOptions discretize;

  /// Invalid-argument error when any knob is out of range.
  Status Validate() const;
};

/// A frequent itemset with its global and per-class supports (unweighted
/// row counts — integer counts keep parallel reduction order-free).
struct FrequentItemset {
  std::vector<int32_t> items;  ///< ascending item ids, distinct attributes
  uint64_t support = 0;
  std::vector<uint64_t> class_support;
};

/// A class association rule "antecedent items => cls" before selection.
struct CandidateRule {
  std::vector<int32_t> items;
  CategoryId cls = kInvalidCategory;
  uint64_t support = 0;        ///< antecedent coverage
  uint64_t class_support = 0;  ///< antecedent AND class
  double confidence = 0.0;     ///< class_support / support
  double lift = 0.0;           ///< confidence / class prior
};

/// Mining-run counters for reports and tests.
struct MineStats {
  size_t num_items = 0;
  size_t discretized_attrs = 0;      ///< numeric attrs that produced bins
  size_t candidates_generated = 0;   ///< all levels
  size_t frequent_itemsets = 0;
  size_t rules_generated = 0;        ///< CARs passing conf/lift pruning
  size_t rules_selected = 0;         ///< after CBA coverage selection
  size_t itemsets_rescued = 0;  ///< frequent only via the per-class floor
};

/// Levelwise Apriori over the vertical index. The result is ordered
/// lexicographically by item ids within each level, levels ascending.
StatusOr<std::vector<FrequentItemset>> MineFrequentItemsets(
    const VerticalIndex& index, const AssocMineOptions& options,
    MineStats* stats);

/// Emits every CAR passing the confidence / lift / per-class-frequency
/// tests, in frequent-list order x class-id order (deterministic).
std::vector<CandidateRule> GenerateRules(
    const std::vector<FrequentItemset>& frequent, const VerticalIndex& index,
    const AssocMineOptions& options, MineStats* stats);

}  // namespace pnr

#endif  // PNR_ASSOC_MINER_H_
