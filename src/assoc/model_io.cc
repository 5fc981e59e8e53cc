#include "assoc/model_io.h"

#include <sstream>
#include <vector>

#include "common/file_io.h"
#include "common/line_format.h"
#include "pnrule/model_io.h"
#include "rules/condition.h"

namespace pnr {
namespace {

// Class-name field with a located NotFound when the schema lacks it.
StatusOr<CategoryId> TakeClass(Fields* fields, const LineCursor& cursor,
                               const Schema& schema, const char* what) {
  std::string name;
  if (!fields->TakeName(&name)) {
    return cursor.Error(std::string("expected a ") + what + " name");
  }
  const CategoryId cls = schema.class_attr().FindCategory(name);
  if (cls == kInvalidCategory) {
    return cursor.Error(std::string(what) + " '" + name +
                            "' is not a class of the schema",
                        StatusCode::kNotFound);
  }
  return cls;
}

}  // namespace

std::string SerializeAssocModel(const AssocClassifier& model,
                                const Schema& schema) {
  std::ostringstream out;
  out.precision(17);
  out << "pnr-assoc-model v1\n";
  const Attribute& classes = schema.class_attr();
  out << "target " << EscapeName(classes.CategoryName(model.target()))
      << '\n';
  out << "default " << EscapeName(classes.CategoryName(model.default_class()))
      << ' ' << model.default_score() << '\n';
  out << "threshold " << model.threshold() << '\n';
  out << "rules " << model.rules().size() << '\n';
  for (size_t r = 0; r < model.rules().size(); ++r) {
    const Rule& rule = model.rules().rule(r);
    const AssocClassifier::RuleInfo& info = model.rule_info()[r];
    out << "rule " << rule.size() << ' '
        << EscapeName(classes.CategoryName(info.cls)) << ' ' << info.support
        << ' ' << info.class_support << ' ' << info.confidence << ' '
        << info.lift << ' ' << info.target_score << '\n';
    for (const Condition& condition : rule.conditions()) {
      WriteCondition(out, condition, schema);
    }
  }
  out << "end\n";
  return out.str();
}

StatusOr<AssocClassifier> ParseAssocModel(const std::string& text,
                                          const Schema& schema) {
  LineCursor cursor(text, "assoc model");
  Status status = cursor.ReadHeader("pnr-assoc-model");
  if (!status.ok()) return status;

  Fields fields;
  if (!cursor.Next(&fields)) {
    return cursor.Truncated("'target <class name>'");
  }
  if (!fields.TakeKeyword("target")) {
    return cursor.Error("expected 'target <class name>'");
  }
  auto target = TakeClass(&fields, cursor, schema, "target class");
  if (!target.ok()) return target.status();
  if (!fields.Exhausted()) {
    return cursor.Error("expected 'target <class name>'");
  }

  if (!cursor.Next(&fields)) {
    return cursor.Truncated("'default <class name> <score>'");
  }
  if (!fields.TakeKeyword("default")) {
    return cursor.Error("expected 'default <class name> <score>'");
  }
  auto default_class = TakeClass(&fields, cursor, schema, "default class");
  if (!default_class.ok()) return default_class.status();
  double default_score = 0.0;
  if (!fields.TakeDouble(&default_score) || !fields.Exhausted()) {
    return cursor.Error("expected 'default <class name> <score>'");
  }
  if (!(default_score >= 0.0 && default_score <= 1.0)) {
    return cursor.Error("default score must be in [0, 1]");
  }

  if (!cursor.Next(&fields)) return cursor.Truncated("'threshold <t>'");
  double threshold = 0.5;
  if (!fields.TakeKeyword("threshold") || !fields.TakeDouble(&threshold) ||
      !fields.Exhausted()) {
    return cursor.Error("expected 'threshold <t>'");
  }

  uint64_t count = 0;
  status = cursor.ReadCount("rules", &count);
  if (!status.ok()) return status;

  RuleSet rules;
  std::vector<AssocClassifier::RuleInfo> info;
  for (uint64_t r = 0; r < count; ++r) {
    std::string_view line;
    if (!cursor.Next(&line)) {
      return cursor.Truncated("rule " + std::to_string(r + 1) + " of " +
                              std::to_string(count));
    }
    const std::string bad_header = "bad rule header '" + std::string(line) +
                                   "'";
    fields = Fields(line, LineMode::kTrimmed);
    uint64_t num_conditions = 0;
    if (!fields.TakeKeyword("rule") || !fields.TakeUint(&num_conditions)) {
      return cursor.Error(bad_header);
    }
    auto cls = TakeClass(&fields, cursor, schema, "rule class");
    if (!cls.ok()) return cls.status();
    AssocClassifier::RuleInfo ri;
    ri.cls = *cls;
    if (!fields.TakeUint(&ri.support) || !fields.TakeUint(&ri.class_support) ||
        ri.class_support > ri.support ||
        !fields.TakeDouble(&ri.confidence) || !fields.TakeDouble(&ri.lift) ||
        !fields.TakeDouble(&ri.target_score) || !fields.Exhausted()) {
      return cursor.Error(bad_header);
    }
    if (!(ri.confidence >= 0.0 && ri.confidence <= 1.0) ||
        !(ri.lift >= 0.0) ||
        !(ri.target_score >= 0.0 && ri.target_score <= 1.0)) {
      return cursor.Error("rule statistics out of range");
    }
    Rule rule;
    for (uint64_t c = 0; c < num_conditions; ++c) {
      if (!cursor.Next(&fields)) {
        return cursor.Truncated("condition " + std::to_string(c + 1) +
                                " of " + std::to_string(num_conditions));
      }
      auto condition = ParseCondition(&fields, cursor, schema);
      if (!condition.ok()) return condition.status();
      rule.AddCondition(*condition);
    }
    rule.train_stats.covered = static_cast<double>(ri.support);
    rule.train_stats.positive =
        ri.target_score * static_cast<double>(ri.support);
    info.push_back(ri);
    rules.AddRule(std::move(rule));
  }

  status = cursor.Finish();
  if (!status.ok()) return status;

  AssocClassifier model(std::move(rules), std::move(info), *target,
                        *default_class, default_score);
  model.set_threshold(threshold);
  return model;
}

Status SaveAssocModel(const AssocClassifier& model, const Schema& schema,
                      const std::string& path) {
  return WriteStringToFile(SerializeAssocModel(model, schema), path);
}

StatusOr<AssocClassifier> LoadAssocModel(const std::string& path,
                                         const Schema& schema) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseAssocModel(*text, schema);
}

StatusOr<AnyModel> ParseAnyModel(const std::string& text,
                                 const Schema& schema) {
  LineCursor probe(text, "model");
  Fields header;
  AnyModel any;
  if (probe.Next(&header) && header.TakeKeyword("pnr-assoc-model")) {
    auto model = ParseAssocModel(text, schema);
    if (!model.ok()) return model.status();
    any.kind = "assoc";
    any.primary_rules = model->rules().size();
    any.classifier =
        std::make_unique<AssocClassifier>(std::move(model).value());
    return any;
  }
  auto model = ParsePnruleModel(text, schema);
  if (!model.ok()) return model.status();
  any.kind = "pnrule";
  any.primary_rules = model->p_rules().size();
  any.secondary_rules = model->n_rules().size();
  any.classifier =
      std::make_unique<PnruleClassifier>(std::move(model).value());
  return any;
}

}  // namespace pnr
