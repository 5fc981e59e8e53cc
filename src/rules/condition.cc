#include "rules/condition.h"

#include <cassert>

#include "common/line_format.h"
#include "common/string_util.h"

namespace pnr {

Condition Condition::CatEqual(AttrIndex attr, CategoryId category) {
  Condition c;
  c.attr = attr;
  c.op = ConditionOp::kCatEqual;
  c.category = category;
  return c;
}

Condition Condition::LessEqual(AttrIndex attr, double v) {
  Condition c;
  c.attr = attr;
  c.op = ConditionOp::kLessEqual;
  c.hi = v;
  return c;
}

Condition Condition::Greater(AttrIndex attr, double v) {
  Condition c;
  c.attr = attr;
  c.op = ConditionOp::kGreater;
  c.lo = v;
  return c;
}

Condition Condition::InRange(AttrIndex attr, double lo, double hi) {
  assert(lo <= hi);
  Condition c;
  c.attr = attr;
  c.op = ConditionOp::kInRange;
  c.lo = lo;
  c.hi = hi;
  return c;
}

bool Condition::Matches(const Dataset& dataset, RowId row) const {
  if (op == ConditionOp::kCatEqual) {
    return dataset.categorical(row, attr) == category;
  }
  return MatchesNumber(dataset.numeric(row, attr));
}

bool Condition::MatchesNumber(double value) const {
  switch (op) {
    case ConditionOp::kCatEqual:
      return false;
    case ConditionOp::kLessEqual:
      return value <= hi;
    case ConditionOp::kGreater:
      return value > lo;
    case ConditionOp::kInRange:
      return value >= lo && value <= hi;
  }
  return false;
}

std::string Condition::ToString(const Schema& schema) const {
  const Attribute& a = schema.attribute(attr);
  switch (op) {
    case ConditionOp::kCatEqual:
      return a.name() + " = " +
             (category == kInvalidCategory ? std::string("?")
                                           : a.CategoryName(category));
    case ConditionOp::kLessEqual:
      return a.name() + " <= " + FormatDouble(hi, 4);
    case ConditionOp::kGreater:
      return a.name() + " > " + FormatDouble(lo, 4);
    case ConditionOp::kInRange:
      return a.name() + " in [" + FormatDouble(lo, 4) + ", " +
             FormatDouble(hi, 4) + "]";
  }
  return "?";
}

bool Condition::operator==(const Condition& other) const {
  if (attr != other.attr || op != other.op) return false;
  switch (op) {
    case ConditionOp::kCatEqual:
      return category == other.category;
    case ConditionOp::kLessEqual:
      return hi == other.hi;
    case ConditionOp::kGreater:
      return lo == other.lo;
    case ConditionOp::kInRange:
      return lo == other.lo && hi == other.hi;
  }
  return false;
}

void WriteCondition(std::ostream& out, const Condition& condition,
                    const Schema& schema) {
  const Attribute& attr = schema.attribute(condition.attr);
  const std::string name = EscapeName(attr.name());
  switch (condition.op) {
    case ConditionOp::kCatEqual:
      out << "cond cat " << name << ' '
          << EscapeName(attr.CategoryName(condition.category));
      break;
    case ConditionOp::kLessEqual:
      out << "cond le " << name << ' ' << condition.hi;
      break;
    case ConditionOp::kGreater:
      out << "cond gt " << name << ' ' << condition.lo;
      break;
    case ConditionOp::kInRange:
      out << "cond range " << name << ' ' << condition.lo << ' '
          << condition.hi;
      break;
  }
  out << '\n';
}

StatusOr<Condition> ParseCondition(Fields* fields, const LineCursor& cursor,
                                   const Schema& schema) {
  std::string_view kind;
  std::string name;
  if (!fields->TakeKeyword("cond") || !fields->Take(&kind) ||
      !fields->TakeName(&name)) {
    return cursor.Error("expected a condition line");
  }
  auto attr_or = schema.FindAttribute(name);
  if (!attr_or.ok()) return cursor.Error("unknown attribute '" + name + "'");
  const AttrIndex attr = *attr_or;
  const Attribute& attribute = schema.attribute(attr);
  Condition condition;
  if (kind == "cat") {
    if (!attribute.is_categorical()) {
      return cursor.Error("'" + name + "' is not categorical");
    }
    std::string value;
    if (!fields->TakeName(&value)) return cursor.Error("bad category");
    const CategoryId category = attribute.FindCategory(value);
    if (category == kInvalidCategory) {
      return cursor.Error("category '" + value + "' not in attribute '" +
                              name + "'",
                          StatusCode::kNotFound);
    }
    condition = Condition::CatEqual(attr, category);
  } else {
    if (!attribute.is_numeric()) {
      return cursor.Error("'" + name + "' is not numeric");
    }
    double a = 0.0;
    if (!fields->TakeDouble(&a)) return cursor.Error("bad number");
    if (kind == "le") {
      condition = Condition::LessEqual(attr, a);
    } else if (kind == "gt") {
      condition = Condition::Greater(attr, a);
    } else if (kind == "range") {
      double b = 0.0;
      if (!fields->TakeDouble(&b) || b < a) {
        return cursor.Error("bad range bounds");
      }
      condition = Condition::InRange(attr, a, b);
    } else {
      return cursor.Error("unknown condition kind '" + std::string(kind) +
                          "'");
    }
  }
  if (!fields->Exhausted()) return cursor.Error("trailing fields");
  return condition;
}

}  // namespace pnr
