#include "pnrule/model_io.h"

#include <algorithm>
#include <sstream>

#include "common/file_io.h"
#include "common/line_format.h"
#include "common/string_util.h"

namespace pnr {
namespace {

void WriteRuleSet(std::ostringstream* out, const RuleSet& rules,
                  const Schema& schema, const char* header) {
  *out << header << ' ' << rules.size() << '\n';
  for (const Rule& rule : rules.rules()) {
    *out << "rule " << rule.size() << ' ' << rule.train_stats.covered << ' '
         << rule.train_stats.positive << '\n';
    for (const Condition& condition : rule.conditions()) {
      WriteCondition(*out, condition, schema);
    }
  }
}

StatusOr<RuleSet> ReadRuleSet(LineCursor* cursor, const Schema& schema,
                              const char* header) {
  uint64_t count = 0;
  const Status status = cursor->ReadCount(header, &count);
  if (!status.ok()) return status;
  Fields fields;
  RuleSet rules;
  for (uint64_t r = 0; r < count; ++r) {
    std::string_view line;
    if (!cursor->Next(&line)) {
      return cursor->Truncated("rule " + std::to_string(r + 1) + " of " +
                               std::to_string(count) + " in " + header);
    }
    fields = Fields(line, LineMode::kTrimmed);
    uint64_t num_conditions = 0;
    Rule rule;
    if (!fields.TakeKeyword("rule") || !fields.TakeUint(&num_conditions) ||
        !fields.TakeDouble(&rule.train_stats.covered) ||
        !fields.TakeDouble(&rule.train_stats.positive) ||
        !fields.Exhausted()) {
      return cursor->Error("bad rule header '" + std::string(line) + "'");
    }
    for (uint64_t c = 0; c < num_conditions; ++c) {
      if (!cursor->Next(&fields)) {
        return cursor->Truncated("condition " + std::to_string(c + 1) +
                                 " of " + std::to_string(num_conditions));
      }
      auto condition = ParseCondition(&fields, *cursor, schema);
      if (!condition.ok()) return condition.status();
      rule.AddCondition(*condition);
    }
    rules.AddRule(std::move(rule));
  }
  return rules;
}

// Reads one "pnrule-model v1" document up to its closing 'end' line, which
// the caller reads: alone, or as a block embedded in a multiclass file.
StatusOr<PnruleClassifier> ReadPnruleModel(LineCursor* cursor,
                                           const Schema& schema) {
  Status status = cursor->ReadHeader("pnrule-model");
  if (!status.ok()) return status;
  Fields fields;
  if (!cursor->Next(&fields)) return cursor->Truncated("'threshold <t>'");
  double threshold = 0.5;
  if (!fields.TakeKeyword("threshold") || !fields.TakeDouble(&threshold) ||
      !fields.Exhausted()) {
    return cursor->Error("expected 'threshold <t>'");
  }
  uint64_t use_matrix = 1;
  status = cursor->ReadCount("use_score_matrix", &use_matrix);
  if (!status.ok()) return status;
  auto p_rules = ReadRuleSet(cursor, schema, "p-rules");
  if (!p_rules.ok()) return p_rules.status();
  auto n_rules = ReadRuleSet(cursor, schema, "n-rules");
  if (!n_rules.ok()) return n_rules.status();

  if (!cursor->Next(&fields)) {
    return cursor->Truncated("'scores <p> <n>' header");
  }
  uint64_t num_p = 0;
  uint64_t num_n = 0;
  if (!fields.TakeKeyword("scores") || !fields.TakeUint(&num_p) ||
      !fields.TakeUint(&num_n) || !fields.Exhausted() ||
      num_p != p_rules->size() || num_n != n_rules->size()) {
    return cursor->Error("score matrix header mismatch");
  }
  std::vector<double> scores;
  std::vector<double> weights;
  scores.reserve(num_p * (num_n + 1));
  weights.reserve(num_p * (num_n + 1));
  for (uint64_t p = 0; p < num_p; ++p) {
    if (!cursor->Next(&fields)) {
      return cursor->Truncated("score row " + std::to_string(p + 1) + " of " +
                               std::to_string(num_p));
    }
    for (uint64_t n = 0; n <= num_n; ++n) {
      std::string_view cell;
      if (!fields.Take(&cell)) return cursor->Error("wrong score-row arity");
      const size_t colon = cell.find(':');
      double score = 0.0;
      double weight = 0.0;
      if (colon == std::string_view::npos ||
          !ParseDouble(cell.substr(0, colon), &score) ||
          !ParseDouble(cell.substr(colon + 1), &weight)) {
        return cursor->Error("bad score cell '" + std::string(cell) + "'");
      }
      scores.push_back(score);
      weights.push_back(weight);
    }
    if (!fields.Exhausted()) return cursor->Error("wrong score-row arity");
  }

  PnruleClassifier model(
      std::move(*p_rules), std::move(*n_rules),
      ScoreMatrix::FromValues(num_p, num_n, std::move(scores),
                              std::move(weights)),
      use_matrix != 0);
  model.set_threshold(threshold);
  return model;
}

}  // namespace

std::string SerializePnruleModel(const PnruleClassifier& model,
                                 const Schema& schema) {
  std::ostringstream out;
  out.precision(17);
  out << "pnrule-model v1\n";
  out << "threshold " << model.threshold() << '\n';
  out << "use_score_matrix " << (model.use_score_matrix() ? 1 : 0) << '\n';
  WriteRuleSet(&out, model.p_rules(), schema, "p-rules");
  WriteRuleSet(&out, model.n_rules(), schema, "n-rules");
  const ScoreMatrix& scores = model.score_matrix();
  out << "scores " << scores.num_p_rules() << ' ' << scores.num_n_rules()
      << '\n';
  for (size_t p = 0; p < scores.num_p_rules(); ++p) {
    for (size_t n = 0; n <= scores.num_n_rules(); ++n) {
      if (n > 0) out << ' ';
      out << scores.Score(p, n) << ':' << scores.CellWeight(p, n);
    }
    out << '\n';
  }
  out << "end\n";
  return out.str();
}

StatusOr<PnruleClassifier> ParsePnruleModel(const std::string& text,
                                            const Schema& schema) {
  LineCursor cursor(text, "model");
  auto model = ReadPnruleModel(&cursor, schema);
  if (!model.ok()) return model;
  const Status finished = cursor.Finish();
  if (!finished.ok()) return finished;
  return model;
}

Status SavePnruleModel(const PnruleClassifier& model, const Schema& schema,
                       const std::string& path) {
  // Goes through file_io so fault-injection tests can exercise failed and
  // short writes; a failed save must surface as a clean IOError, never as a
  // silently truncated model file mistaken for success.
  return WriteStringToFile(SerializePnruleModel(model, schema), path);
}

StatusOr<PnruleClassifier> LoadPnruleModel(const std::string& path,
                                           const Schema& schema) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParsePnruleModel(*text, schema);
}

std::string SerializeMultiClassModel(const MultiClassPnruleClassifier& model,
                                     const Schema& schema) {
  std::ostringstream out;
  out.precision(17);
  out << "pnrule-multiclass v1\n";
  out << "classes " << model.num_classes() << '\n';
  out << "default "
      << EscapeName(schema.class_attr().CategoryName(model.default_class()))
      << '\n';
  for (size_t cls = 0; cls < model.num_classes(); ++cls) {
    const double weight = model.class_weights()[cls];
    const PnruleClassifier* binary =
        model.model_for(static_cast<CategoryId>(cls));
    if (binary == nullptr) {
      out << "class " << cls << ' ' << weight << " absent\n";
      continue;
    }
    // Prefix the embedded block with its exact line count so the parser
    // never confuses the block's own "end" with the wrapper's.
    const std::string block = SerializePnruleModel(*binary, schema);
    const size_t lines =
        static_cast<size_t>(std::count(block.begin(), block.end(), '\n'));
    out << "class " << cls << ' ' << weight << " model " << lines << '\n';
    out << block;
  }
  out << "end\n";
  return out.str();
}

StatusOr<MultiClassPnruleClassifier> ParseMultiClassModel(
    const std::string& text, const Schema& schema) {
  LineCursor cursor(text, "multiclass model");
  Status status = cursor.ReadHeader("pnrule-multiclass");
  if (!status.ok()) return status;
  uint64_t num_classes = 0;
  status = cursor.ReadCount("classes", &num_classes);
  if (!status.ok()) return status;
  if (num_classes < 2) {
    return cursor.Error("expected 'classes <n>' with n >= 2");
  }
  if (num_classes != schema.num_classes()) {
    return cursor.Error("model has " + std::to_string(num_classes) +
                        " classes but the schema has " +
                        std::to_string(schema.num_classes()));
  }
  Fields fields;
  if (!cursor.Next(&fields)) {
    return cursor.Truncated("'default <class name>'");
  }
  std::string default_name;
  if (!fields.TakeKeyword("default") || !fields.TakeName(&default_name) ||
      !fields.Exhausted()) {
    return cursor.Error("expected 'default <class name>'");
  }
  const CategoryId default_class =
      schema.class_attr().FindCategory(default_name);
  if (default_class == kInvalidCategory) {
    return cursor.Error("default class '" + default_name +
                            "' not in the schema",
                        StatusCode::kNotFound);
  }

  std::vector<std::optional<PnruleClassifier>> models(num_classes);
  std::vector<double> weights(num_classes, 1.0);
  for (uint64_t cls = 0; cls < num_classes; ++cls) {
    if (!cursor.Next(&fields)) {
      return cursor.Truncated("record for class " + std::to_string(cls));
    }
    uint64_t index = 0;
    std::string_view kind;
    if (!fields.TakeKeyword("class") || !fields.TakeUint(&index) ||
        index != cls || !fields.TakeDouble(&weights[cls]) ||
        !fields.Take(&kind)) {
      return cursor.Error("expected 'class " + std::to_string(cls) +
                          " <weight> absent|model <lines>'");
    }
    if (!IsValidClassWeight(weights[cls])) {
      return cursor.Error("class " + std::to_string(cls) +
                          " weight must be finite and >= 0");
    }
    if (kind == "absent") {
      if (!fields.Exhausted()) {
        return cursor.Error("trailing tokens after 'absent'");
      }
      continue;
    }
    uint64_t block_lines = 0;
    if (kind != "model" || !fields.TakeUint(&block_lines) ||
        !fields.Exhausted() || block_lines == 0) {
      return cursor.Error("expected 'model <lines>'");
    }
    // The embedded block parses on this cursor, so its errors name the
    // file's physical line and keep their status code.
    const size_t first = cursor.records();
    auto binary = ReadPnruleModel(&cursor, schema);
    if (!binary.ok()) return binary.status();
    status = cursor.ReadEnd();
    if (!status.ok()) return status;
    if (cursor.records() - first != block_lines) {
      return cursor.Error("class " + std::to_string(cls) +
                          "'s model block has " +
                          std::to_string(cursor.records() - first) +
                          " lines, its record says " +
                          std::to_string(block_lines));
    }
    models[cls] = std::move(binary).value();
  }
  status = cursor.Finish();
  if (!status.ok()) return status;
  return MultiClassPnruleClassifier(std::move(models), std::move(weights),
                                    default_class);
}

Status SaveMultiClassModel(const MultiClassPnruleClassifier& model,
                           const Schema& schema, const std::string& path) {
  return WriteStringToFile(SerializeMultiClassModel(model, schema), path);
}

StatusOr<MultiClassPnruleClassifier> LoadMultiClassModel(
    const std::string& path, const Schema& schema) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseMultiClassModel(*text, schema);
}

}  // namespace pnr
