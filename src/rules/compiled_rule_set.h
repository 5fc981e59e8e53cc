// Compiled first-match evaluation of a RuleSet.
//
// RuleSet::FirstMatch interprets the decision list row-at-a-time: for every
// record it walks rules, conditions and scattered dataset cells. Compile()
// flattens the list into a "matcher program" — the distinct conditions of
// all rules deduplicated into one contiguous array grouped by attribute,
// each rule a span of indices into it — and FirstMatchBlock evaluates the
// program column-at-a-time over a block of rows:
//
//   * condition coverage BitMasks are materialized lazily, only when a
//     rule still has many rows in play: a categorical attribute group
//     fills the masks of ALL its equality tests with one scan of its
//     column through a category -> condition table, a numeric condition
//     fills its mask with one branch-free (auto-vectorizable) sweep;
//   * rule masks are AND-combinations of condition masks and
//     first-match-wins resolution is block-wise boolean algebra — but the
//     moment a rule's partial mask turns sparse, its remaining conjuncts
//     are tested row-by-row on just the surviving rows, so a selective
//     leading condition spares the whole tail of the conjunction;
//   * an optional candidate mask restricts resolution to a subset of rows,
//     and when that subset is sparse the matcher switches to a direct
//     per-row walk instead of paying for full-block scans.
//
// Shared conditions are evaluated at most once per block no matter how
// many rules use them — and not at all when every rule that wants them has
// already collapsed to the sparse path — which is what makes batch scoring
// several times faster than interpretation (see bench/batch_predict.cc).
//
// The compiled program is semantically identical to the interpreted walk:
// for every row, FirstMatchBlock yields exactly RuleSet::FirstMatch.

#ifndef PNR_RULES_COMPILED_RULE_SET_H_
#define PNR_RULES_COMPILED_RULE_SET_H_

#include <cstdint>
#include <vector>

#include "common/bitmask.h"
#include "rules/rule_set.h"

namespace pnr {

/// A RuleSet compiled for block-wise first-match evaluation. Immutable and
/// safe to share across threads; per-thread mutable state lives in Scratch.
class CompiledRuleSet {
 public:
  CompiledRuleSet() = default;

  /// Compiles `rules` (the rule list is captured by value; later mutation
  /// of the source RuleSet does not affect the program).
  static CompiledRuleSet Compile(const RuleSet& rules);

  size_t num_rules() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }

  /// Distinct conditions across all rules (diagnostics / tests).
  size_t num_unique_conditions() const { return conditions_.size(); }

  /// Reusable per-thread evaluation buffers. A default-constructed Scratch
  /// works for any block; masks are resized on demand and reused across
  /// blocks of the same size.
  struct Scratch {
    std::vector<BitMask> condition_masks;
    std::vector<uint8_t> evaluated;  ///< per-condition mask-filled flags
    std::vector<uint64_t> acc;       ///< mask-word staging buffer
    BitMask unresolved;
    BitMask rule_mask;
    /// Raw column pointer per condition (numeric or categorical according
    /// to the condition's op), hoisted once per FirstMatchBlock call so
    /// per-row tests skip the out-of-line Dataset accessors.
    std::vector<const void*> cond_cols;
    /// Set per block by FirstMatchBlock: rows[i] == rows[0] + i for all i,
    /// the full-table-scan layout that unlocks the contiguous SIMD sweep.
    bool rows_consecutive = false;
  };

  /// Writes the index of the first rule matching rows[i] (kNoRule when none
  /// matches) to out[i], for i in [0, count). Identical to calling
  /// RuleSet::FirstMatch per row on the source rule list.
  ///
  /// When `candidates` is non-null only rows whose bit is set are resolved
  /// (the rest keep kNoRule); a sparse candidate set short-circuits to the
  /// per-row walk. The result for candidate rows is independent of which
  /// path ran.
  ///
  /// On a demand-paged dataset the block always runs the dense path, and
  /// the first condition it needs on an attribute sweeps all of that
  /// attribute's conditions while the column is resident, so one call
  /// faults each referenced column at most once.
  void FirstMatchBlock(const Dataset& dataset, const RowId* rows, size_t count,
                       int32_t* out, Scratch* scratch,
                       const BitMask* candidates = nullptr) const;

  /// Row-at-a-time first match over the compiled program (the sparse path;
  /// exposed for tests). Identical to RuleSet::FirstMatch.
  int32_t FirstMatchRow(const Dataset& dataset, RowId row) const;

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

  /// A rule as a [begin, end) span over rule_conditions_.
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

  /// Fills the coverage masks of every kCatEqual condition in the
  /// categorical `group` with one scan of its column.
  void EvalCategoricalGroup(const AttrGroup& group, const Dataset& dataset,
                            const RowId* rows, size_t count,
                            Scratch* scratch) const;

  /// Fills the coverage mask of the numeric condition `ci` with one
  /// branch-free sweep of its column.
  void EvalNumericCondition(uint32_t ci, const Dataset& dataset,
                            const RowId* rows, size_t count,
                            Scratch* scratch) const;

  /// Materializes condition `ci`'s mask if it is not built yet for this
  /// block (a categorical condition brings its whole attribute group
  /// along, since the group scan costs the same as a single condition).
  void EnsureCondition(uint32_t ci, const Dataset& dataset, const RowId* rows,
                       size_t count, Scratch* scratch) const;

  /// Single-row evaluation of one compiled condition (sparse path).
  bool MatchesRow(const CompiledCondition& c, const Dataset& dataset,
                  RowId row) const;

  /// Fills scratch->cond_cols with each condition's raw column pointer.
  void BuildColumnTable(const Dataset& dataset, Scratch* scratch) const;

  /// FirstMatchRow against the hoisted column table instead of Dataset
  /// accessors (the per-row sparse paths).
  int32_t FirstMatchRowCols(const Scratch& scratch, RowId row) const;

  std::vector<CompiledCondition> conditions_;  ///< unique, grouped by attr
  std::vector<AttrGroup> groups_;              ///< attribute groups
  std::vector<uint32_t> condition_group_;      ///< condition -> its group
  std::vector<int32_t> cat_lookup_;  ///< category -> group-local slot or -1
  std::vector<uint32_t> rule_conditions_;      ///< concatenated rule programs
  std::vector<Span> rules_;                    ///< one span per rule
};

}  // namespace pnr

#endif  // PNR_RULES_COMPILED_RULE_SET_H_
