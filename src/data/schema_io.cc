#include "data/schema_io.h"

#include <sstream>
#include <vector>

#include "common/file_io.h"
#include "common/line_format.h"

namespace pnr {

std::string SerializeSchema(const Schema& schema) {
  std::ostringstream out;
  out << "pnrule-schema v1\n";
  out << "attributes " << schema.num_attributes() << '\n';
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const Attribute& attr = schema.attribute(static_cast<AttrIndex>(a));
    if (attr.is_numeric()) {
      out << "numeric " << EscapeName(attr.name()) << '\n';
    } else {
      out << "categorical " << attr.num_categories() << ' '
          << EscapeName(attr.name()) << '\n';
      for (size_t v = 0; v < attr.num_categories(); ++v) {
        out << "value "
            << EscapeName(attr.CategoryName(static_cast<CategoryId>(v)))
            << '\n';
      }
    }
  }
  const Attribute& cls = schema.class_attr();
  out << "class " << cls.num_categories() << ' ' << EscapeName(cls.name())
      << '\n';
  for (size_t v = 0; v < cls.num_categories(); ++v) {
    out << "label "
        << EscapeName(cls.CategoryName(static_cast<CategoryId>(v))) << '\n';
  }
  out << "end\n";
  return out.str();
}

StatusOr<Schema> ParseSchema(const std::string& text) {
  LineCursor cursor(text, "schema");
  Status status = cursor.ReadHeader("pnrule-schema");
  if (!status.ok()) return status;

  uint64_t num_attrs = 0;
  status = cursor.ReadCount("attributes", &num_attrs);
  if (!status.ok()) return status;

  Schema schema;
  Fields fields;
  for (uint64_t a = 0; a < num_attrs; ++a) {
    if (!cursor.Next(&fields)) {
      return cursor.Truncated("attribute " + std::to_string(a + 1) + " of " +
                              std::to_string(num_attrs));
    }
    std::string_view keyword;
    std::string name;
    fields.Take(&keyword);
    if (keyword == "numeric") {
      if (!fields.TakeName(&name) || !fields.Exhausted()) {
        return cursor.Error("expected 'numeric <name>'");
      }
      schema.AddAttribute(Attribute::Numeric(name));
      continue;
    }
    if (keyword != "categorical") {
      return cursor.Error("expected 'numeric' or 'categorical', got '" +
                          std::string(keyword) + "'");
    }
    uint64_t num_values = 0;
    if (!fields.TakeUint(&num_values) || !fields.TakeName(&name) ||
        !fields.Exhausted()) {
      return cursor.Error("expected 'categorical <k> <name>'");
    }
    std::vector<std::string> values;
    for (uint64_t v = 0; v < num_values; ++v) {
      if (!cursor.Next(&fields)) {
        return cursor.Truncated("value " + std::to_string(v + 1) + " of " +
                                std::to_string(num_values) +
                                " for attribute '" + name + "'");
      }
      std::string value;
      if (!fields.TakeKeyword("value") || !fields.TakeName(&value) ||
          !fields.Exhausted()) {
        return cursor.Error("expected 'value <v>'");
      }
      values.push_back(std::move(value));
    }
    schema.AddAttribute(Attribute::Categorical(name, std::move(values)));
  }

  if (!cursor.Next(&fields)) return cursor.Truncated("'class <k> <name>'");
  uint64_t num_labels = 0;
  std::string class_name;
  if (!fields.TakeKeyword("class") || !fields.TakeUint(&num_labels) ||
      !fields.TakeName(&class_name) || !fields.Exhausted()) {
    return cursor.Error("expected 'class <k> <name>'");
  }
  // The default-constructed class attribute is named "class"; rebuild it
  // with the recorded name so round-trips are exact.
  schema.class_attr() = Attribute::Categorical(class_name);
  for (uint64_t v = 0; v < num_labels; ++v) {
    if (!cursor.Next(&fields)) {
      return cursor.Truncated("label " + std::to_string(v + 1) + " of " +
                              std::to_string(num_labels));
    }
    std::string label;
    if (!fields.TakeKeyword("label") || !fields.TakeName(&label) ||
        !fields.Exhausted()) {
      return cursor.Error("expected 'label <v>'");
    }
    schema.GetOrAddClass(label);
  }
  status = cursor.Finish();
  if (!status.ok()) return status;
  return schema;
}

Status SaveSchema(const Schema& schema, const std::string& path) {
  // Routed through file_io so fault-injection tests can exercise failed and
  // short writes; a failed save surfaces as a clean IOError.
  return WriteStringToFile(SerializeSchema(schema), path);
}

StatusOr<Schema> LoadSchema(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseSchema(*text);
}

}  // namespace pnr
