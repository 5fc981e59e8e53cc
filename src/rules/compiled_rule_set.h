// Compiled first-match evaluation of one or more RuleSets.
//
// RuleSet::FirstMatch interprets the decision list row-at-a-time: for every
// record it walks rules, conditions and scattered dataset cells. Compile()
// flattens several decision lists into one "matcher program" — the
// distinct conditions of every rule of every list deduplicated into one
// contiguous array grouped by attribute, each rule a span of indices into
// it, each list a span of rules — and FirstMatchBlock evaluates one list of
// the program column-at-a-time over a block of rows:
//
//   * condition coverage BitMasks are materialized lazily, only when a
//     rule still has many rows in play: a categorical attribute group
//     fills the masks of ALL its equality tests with one scan of its
//     column through a category -> condition table, a numeric condition
//     fills its mask with one SIMD sweep;
//   * rule masks are AND-combinations of condition masks and
//     first-match-wins resolution is block-wise boolean algebra — but the
//     moment a rule's partial mask turns sparse, its remaining conjuncts
//     are tested row-by-row on just the surviving rows, so a selective
//     leading condition spares the whole tail of the conjunction;
//   * an optional candidate mask restricts resolution to a subset of rows,
//     and when that subset is sparse the matcher switches to a direct
//     per-row walk instead of paying for full-block scans.
//
// A block is bound once (BeginBlock) and then any number of the program's
// lists resolve on it. Condition masks live in the Scratch for the whole
// block, so a condition shared by several rules — of one list or of
// several, e.g. every P- and N-list of a one-vs-rest committee — is
// evaluated at most once per block, and not at all when every rule that
// wants it has already collapsed to the sparse path.
//
// The sweeps read each attribute's values for the block contiguously: the
// column itself when the block's row ids are consecutive, otherwise a copy
// gathered once per block by the first condition on the attribute, so
// scattered rows (a shuffled held-out split, served requests) pay the
// gather once per attribute instead of once per condition and list.
//
// The compiled program is semantically identical to the interpreted walk:
// for every row, FirstMatchBlock on list k yields exactly
// RuleSet::FirstMatch on the k-th compiled RuleSet.

#ifndef PNR_RULES_COMPILED_RULE_SET_H_
#define PNR_RULES_COMPILED_RULE_SET_H_

#include <cstdint>
#include <vector>

#include "common/bitmask.h"
#include "rules/rule_set.h"

namespace pnr {

/// Decision lists compiled for block-wise first-match evaluation. Immutable
/// and safe to share across threads; per-thread mutable state lives in
/// Scratch.
class CompiledRuleSet {
 public:
  CompiledRuleSet() = default;

  /// Compiles `lists` into one program whose list k is *lists[k] (the rules
  /// are captured by value; later mutation of a source RuleSet does not
  /// affect the program). Conditions are deduplicated across all lists.
  static CompiledRuleSet Compile(const std::vector<const RuleSet*>& lists);

  /// A one-list program.
  static CompiledRuleSet Compile(const RuleSet& rules) {
    return Compile(std::vector<const RuleSet*>{&rules});
  }

  size_t num_lists() const { return lists_.size(); }

  /// Rules in list `list`.
  size_t num_rules(size_t list) const {
    return lists_[list].end - lists_[list].begin;
  }

  /// Distinct conditions across all rules of all lists.
  size_t num_unique_conditions() const { return conditions_.size(); }

  /// Reusable per-thread evaluation state for one bound block. A
  /// default-constructed Scratch works for any program and block; buffers
  /// are resized on demand and reused across blocks.
  struct Scratch {
    /// The bound block (BeginBlock).
    const CompiledRuleSet* program = nullptr;
    const Dataset* dataset = nullptr;
    const RowId* rows = nullptr;
    size_t count = 0;
    /// rows[i] == rows[0] + i for all i: the sweeps read the columns in
    /// place instead of a gathered copy.
    bool rows_consecutive = false;
    /// Every condition of an attribute is swept as soon as one is needed,
    /// so each column is read (on a paged dataset: faulted) once per block.
    bool whole_groups = false;
    std::vector<BitMask> condition_masks;
    std::vector<uint8_t> evaluated;  ///< per-condition mask-filled flags
    std::vector<uint64_t> acc;       ///< mask-word staging buffer
    BitMask unresolved;
    BitMask rule_mask;
    /// Raw column pointer per condition (numeric or categorical according
    /// to the condition's op), hoisted at most once per in-RAM block, by
    /// the first sparse path, so per-row tests skip the out-of-line Dataset
    /// accessors.
    std::vector<const void*> cond_cols;
    bool cols_hoisted = false;
    /// Per attribute group: whether its values are gathered for the block,
    /// and the gathered values (numeric or categorical by group). With
    /// whole_groups every group shares slot 0, since a group is never
    /// needed again after its sweep.
    std::vector<uint8_t> gathered;
    std::vector<std::vector<double>> gathered_numeric;
    std::vector<std::vector<CategoryId>> gathered_categorical;
  };

  /// Binds rows[0, count) of `dataset` to `scratch` and forgets the
  /// previous block's condition masks. The rows, dataset and program must
  /// outlive every FirstMatchBlock call on this block.
  void BeginBlock(const Dataset& dataset, const RowId* rows, size_t count,
                  Scratch* scratch) const;

  /// Writes the index (within list `list`) of the first rule of that list
  /// matching rows[i] of the bound block (kNoRule when none matches) to
  /// out[i], for i in [0, count). Identical to calling RuleSet::FirstMatch
  /// per row on the list's source RuleSet. Condition masks built by an
  /// earlier list on the same block are reused.
  ///
  /// When `candidates` is non-null only rows whose bit is set are resolved
  /// (the rest keep kNoRule); a sparse candidate set short-circuits to the
  /// per-row walk. The result for candidate rows is independent of which
  /// path ran.
  ///
  /// On a demand-paged dataset the block always runs the dense path, and
  /// the first condition it needs on an attribute sweeps all of the
  /// program's conditions on that attribute while the column is resident,
  /// so all lists together fault each referenced column at most once per
  /// block.
  void FirstMatchBlock(size_t list, int32_t* out, Scratch* scratch,
                       const BitMask* candidates = nullptr) const;

  /// Row-at-a-time first match of list `list` (the sparse path; exposed
  /// for tests). Identical to RuleSet::FirstMatch.
  int32_t FirstMatchRow(size_t list, const Dataset& dataset, RowId row) const;

  /// Index of `condition` among the distinct conditions (its mask in
  /// ConditionMasks), or -1 when no rule of the program tests it.
  int32_t ConditionIndex(const Condition& condition) const;

  /// The coverage mask of every distinct condition over rows[0, count):
  /// bit i of result[ConditionIndex(c)] is set iff rows[i] satisfies c.
  /// Runs the dense path's column sweeps once each: one per categorical
  /// attribute and one per numeric condition, taken attribute by
  /// attribute, so a demand-paged dataset faults each referenced column
  /// at most once.
  std::vector<BitMask> ConditionMasks(const Dataset& dataset,
                                      const RowId* rows, size_t count) const;

 private:
  /// One deduplicated condition (same fields as rules/condition.h, laid out
  /// flat for the columnar sweep).
  struct CompiledCondition {
    AttrIndex attr = -1;
    ConditionOp op = ConditionOp::kCatEqual;
    CategoryId category = kInvalidCategory;
    double lo = 0.0;
    double hi = 0.0;
  };

  /// A rule as a [begin, end) span over rule_conditions_, or a list as a
  /// [begin, end) span over rules_.
  struct Span {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// Conditions [begin, end) test the same attribute. Categorical groups
  /// are kCatEqual only and map a row's category to its condition through
  /// cat_lookup_; numeric groups just delimit the attribute's threshold
  /// tests (each evaluated with its own column sweep).
  struct AttrGroup {
    AttrIndex attr = -1;
    bool categorical = false;
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t lookup_begin = 0;  ///< into cat_lookup_ (categorical only)
    uint32_t lookup_size = 0;
  };

  /// The bound block's values of group `g`'s attribute, contiguous: the
  /// column itself when the rows are consecutive, else the group's
  /// gathered copy (made on first use).
  template <typename T>
  const T* BlockValues(uint32_t g, Scratch* scratch) const;

  /// Fills the coverage masks of every kCatEqual condition in the
  /// categorical group `g` with one scan of its values.
  void EvalCategoricalGroup(uint32_t g, Scratch* scratch) const;

  /// Fills the coverage mask of the numeric condition `ci` with one SIMD
  /// sweep of `values` (its attribute's block values).
  void EvalNumericCondition(uint32_t ci, const double* values,
                            Scratch* scratch) const;

  /// Materializes condition `ci`'s mask if it is not built yet for this
  /// block (a categorical condition brings its whole attribute group
  /// along, since the group scan costs the same as a single condition).
  void EnsureCondition(uint32_t ci, Scratch* scratch) const;

  /// Single-row evaluation of one compiled condition (sparse path).
  bool MatchesRow(const CompiledCondition& c, const Dataset& dataset,
                  RowId row) const;

  /// Fills scratch->cond_cols for the bound block unless already filled.
  void HoistColumns(Scratch* scratch) const;

  /// First match of `list` against the hoisted column table instead of
  /// Dataset accessors (the per-row sparse paths).
  int32_t FirstMatchRowCols(const Span& list, const Scratch& scratch,
                            RowId row) const;

  std::vector<CompiledCondition> conditions_;  ///< unique, grouped by attr
  std::vector<AttrGroup> groups_;              ///< attribute groups
  std::vector<uint32_t> condition_group_;      ///< condition -> its group
  std::vector<int32_t> cat_lookup_;  ///< category -> group-local slot or -1
  std::vector<uint32_t> rule_conditions_;      ///< concatenated rule programs
  std::vector<Span> rules_;                    ///< one span per rule
  std::vector<Span> lists_;                    ///< one span of rules per list
};

}  // namespace pnr

#endif  // PNR_RULES_COMPILED_RULE_SET_H_
