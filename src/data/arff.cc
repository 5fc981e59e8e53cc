// ARFF header parsing and entry points. The @data section is parsed by the
// ingest engine (data/ingest.cc); this file owns everything up to and
// including the @data line: attribute declarations, class resolution, and
// schema construction.

#include "data/arff.h"

#include <cctype>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "data/ingest.h"

namespace pnr {
namespace {

// Case-insensitive prefix test.
bool StartsWithNoCase(std::string_view text, std::string_view prefix) {
  if (text.size() < prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

struct ArffAttribute {
  std::string name;
  bool numeric = true;
  std::vector<std::string> values;  // nominal domain
};

Status ParseError(size_t line_number, const std::string& detail) {
  return Status::InvalidArgument("ARFF line " + std::to_string(line_number) +
                                 ": " + detail);
}

StatusOr<ArffAttribute> ParseAttributeDecl(std::string_view body,
                                           size_t line_number) {
  // body = "<name> <type>" where name may be quoted.
  std::string_view view = TrimWhitespace(body);
  if (view.empty()) return ParseError(line_number, "empty @attribute");
  std::string name;
  std::string_view rest;
  if (view.front() == '\'' || view.front() == '"') {
    const char quote = view.front();
    const size_t end = view.find(quote, 1);
    if (end == std::string_view::npos) {
      return ParseError(line_number, "unterminated quoted attribute name");
    }
    name = std::string(view.substr(1, end - 1));
    rest = TrimWhitespace(view.substr(end + 1));
  } else {
    const size_t space = view.find_first_of(" \t");
    if (space == std::string_view::npos) {
      return ParseError(line_number, "missing attribute type");
    }
    name = std::string(view.substr(0, space));
    rest = TrimWhitespace(view.substr(space));
  }
  ArffAttribute attr;
  attr.name = std::move(name);
  if (rest.empty()) return ParseError(line_number, "missing attribute type");
  if (rest.front() == '{') {
    if (rest.back() != '}') {
      return ParseError(line_number, "unterminated nominal domain");
    }
    attr.numeric = false;
    for (const std::string& value :
         SplitString(rest.substr(1, rest.size() - 2), ',')) {
      attr.values.push_back(ArffUnquote(value));
    }
    if (attr.values.empty()) {
      return ParseError(line_number, "empty nominal domain");
    }
    return attr;
  }
  const std::string type(rest);
  if (StartsWithNoCase(type, "numeric") || StartsWithNoCase(type, "real") ||
      StartsWithNoCase(type, "integer")) {
    attr.numeric = true;
    return attr;
  }
  if (StartsWithNoCase(type, "string") || StartsWithNoCase(type, "date")) {
    return ParseError(line_number,
                      "unsupported attribute type '" + type + "'");
  }
  return ParseError(line_number, "unknown attribute type '" + type + "'");
}

}  // namespace

std::string ArffUnquote(std::string_view text) {
  text = TrimWhitespace(text);
  if (text.size() >= 2 && ((text.front() == '\'' && text.back() == '\'') ||
                           (text.front() == '"' && text.back() == '"'))) {
    return std::string(text.substr(1, text.size() - 2));
  }
  return std::string(text);
}

StatusOr<ArffLayout> ParseArffHeader(std::string_view text,
                                     const ArffReadOptions& options) {
  // Offsets in the returned layout are relative to `text` as passed in, so
  // a BOM just advances the cursor.
  size_t pos = 0;
  if (text.size() >= 3 && std::memcmp(text.data(), "\xEF\xBB\xBF", 3) == 0) {
    pos = 3;
  }
  size_t line_number = 0;
  std::vector<ArffAttribute> attributes;
  bool in_data = false;
  size_t data_offset = text.size();
  size_t data_first_line = 1;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    const size_t line_end = (nl == std::string_view::npos) ? text.size() : nl;
    std::string_view raw = text.substr(pos, line_end - pos);
    pos = (nl == std::string_view::npos) ? text.size() : nl + 1;
    ++line_number;
    // Strip comments ('%' anywhere starts one) and whitespace.
    const size_t comment = raw.find('%');
    if (comment != std::string_view::npos) raw = raw.substr(0, comment);
    const std::string_view line = TrimWhitespace(raw);
    if (line.empty()) continue;
    if (StartsWithNoCase(line, "@relation")) continue;
    if (StartsWithNoCase(line, "@attribute")) {
      auto attr = ParseAttributeDecl(line.substr(10), line_number);
      if (!attr.ok()) return attr.status();
      attributes.push_back(std::move(attr).value());
      continue;
    }
    if (StartsWithNoCase(line, "@data")) {
      in_data = true;
      data_offset = pos;
      data_first_line = line_number + 1;
      break;
    }
    return ParseError(line_number,
                      "unexpected header line '" + std::string(line) + "'");
  }
  if (attributes.empty()) {
    return Status::InvalidArgument("ARFF declares no attributes");
  }
  // A header without @data yields an empty data section; the row parsers
  // then report "ARFF has no data rows", matching the historical reader.
  (void)in_data;

  // Choose the class attribute.
  size_t class_index = attributes.size();
  if (!options.class_attribute.empty()) {
    for (size_t i = 0; i < attributes.size(); ++i) {
      if (attributes[i].name == options.class_attribute) {
        class_index = i;
        break;
      }
    }
    if (class_index == attributes.size()) {
      return Status::NotFound("class attribute '" + options.class_attribute +
                              "' not declared");
    }
  } else {
    for (size_t i = attributes.size(); i-- > 0;) {
      if (!attributes[i].numeric) {
        class_index = i;
        break;
      }
    }
    if (class_index == attributes.size()) {
      return Status::InvalidArgument(
          "no nominal attribute available as the class");
    }
  }
  if (attributes[class_index].numeric) {
    return Status::InvalidArgument("class attribute must be nominal");
  }

  ArffLayout layout;
  layout.class_index = class_index;
  layout.data_offset = data_offset;
  layout.data_first_line = data_first_line;
  layout.attr_of.assign(attributes.size(), -1);
  layout.numeric.resize(attributes.size());
  layout.names.resize(attributes.size());
  for (size_t i = 0; i < attributes.size(); ++i) {
    layout.numeric[i] = attributes[i].numeric;
    layout.names[i] = attributes[i].name;
    if (i == class_index) {
      for (const std::string& value : attributes[i].values) {
        layout.schema.GetOrAddClass(value);
      }
      continue;
    }
    layout.attr_of[i] = layout.schema.AddAttribute(
        attributes[i].numeric
            ? Attribute::Numeric(attributes[i].name)
            : Attribute::Categorical(attributes[i].name,
                                     attributes[i].values));
  }
  return layout;
}

StatusOr<Dataset> ReadArffFromString(const std::string& text,
                                     const ArffReadOptions& options) {
  return IngestEngine().ParseArff(text, options);
}

StatusOr<Dataset> ReadArff(const std::string& path,
                           const ArffReadOptions& options) {
  return IngestEngine().LoadArff(path, options);
}

}  // namespace pnr
