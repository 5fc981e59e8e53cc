// Atomic rule conditions over dataset attributes.
//
// Categorical attributes support single-value equality tests; numeric
// attributes support the three condition kinds the paper evaluates:
// one-sided A <= v, one-sided A > v, and the explicit range vl <= A <= vr
// found by PNrule's extra-scan procedure.

#ifndef PNR_RULES_CONDITION_H_
#define PNR_RULES_CONDITION_H_

#include <ostream>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace pnr {

class Fields;
class LineCursor;

/// Kind of test a condition performs.
enum class ConditionOp {
  kCatEqual,    ///< categorical(attr) == category
  kLessEqual,   ///< numeric(attr) <= hi
  kGreater,     ///< numeric(attr) >  lo
  kInRange,     ///< lo <= numeric(attr) <= hi
};

/// One attribute test; a Rule is a conjunction of these.
struct Condition {
  AttrIndex attr = -1;
  ConditionOp op = ConditionOp::kCatEqual;
  CategoryId category = kInvalidCategory;  ///< used by kCatEqual
  double lo = 0.0;                         ///< used by kGreater / kInRange
  double hi = 0.0;                         ///< used by kLessEqual / kInRange

  /// Builds a categorical equality test.
  static Condition CatEqual(AttrIndex attr, CategoryId category);
  /// Builds numeric(attr) <= v.
  static Condition LessEqual(AttrIndex attr, double v);
  /// Builds numeric(attr) > v.
  static Condition Greater(AttrIndex attr, double v);
  /// Builds lo <= numeric(attr) <= hi (requires lo <= hi).
  static Condition InRange(AttrIndex attr, double lo, double hi);

  /// True iff the record satisfies the test.
  bool Matches(const Dataset& dataset, RowId row) const;

  /// True iff a cell holding `value` satisfies this numeric test (false
  /// for NaN).
  bool MatchesNumber(double value) const;

  /// Human-readable form, e.g. "attr2 in [0.35, 0.42]" or "proto = tcp".
  std::string ToString(const Schema& schema) const;

  /// Structural equality (exact value comparison).
  bool operator==(const Condition& other) const;
};

/// Writes the model-file line for `condition` (attribute and category names
/// escaped), e.g. "cond le src_bytes 3.5\n". Numbers render at `out`'s
/// precision. Shared by the PNrule and assoc model formats.
void WriteCondition(std::ostream& out, const Condition& condition,
                    const Schema& schema);

/// Parses the fields of a line WriteCondition wrote, resolving names
/// against `schema`; errors are located at `cursor`'s current line, and a
/// category the schema lacks is NotFound.
StatusOr<Condition> ParseCondition(Fields* fields, const LineCursor& cursor,
                                   const Schema& schema);

}  // namespace pnr

#endif  // PNR_RULES_CONDITION_H_
