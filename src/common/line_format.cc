#include "common/line_format.h"

#include <algorithm>
#include <charconv>

#include "common/string_util.h"

namespace pnr {
namespace {

// The C locale's whitespace set, pinned so that escaping and splitting do
// not shift with the process locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool NeedsEscape(char c) { return c == '%' || IsSpace(c); }

std::string_view Trim(std::string_view text) {
  while (!text.empty() && IsSpace(text.front())) text.remove_prefix(1);
  while (!text.empty() && IsSpace(text.back())) text.remove_suffix(1);
  return text;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// True iff `text` continues at `at` with at least one digit and then
// `tail`.
bool DigitsThen(std::string_view text, size_t at, std::string_view tail) {
  size_t end = at;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  return end > at && text.substr(end, tail.size()) == tail;
}

// Inverse of EscapeName for TakeName, which also insists that the field is
// in canonical escaped form.
bool UnescapeName(std::string_view text, std::string* out) {
  out->clear();
  if (text == "%") return true;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      *out += text[i];
      continue;
    }
    if (i + 2 >= text.size()) return false;
    const int hi = HexValue(text[i + 1]);
    const int lo = HexValue(text[i + 2]);
    if (hi < 0 || lo < 0) return false;
    *out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return true;
}

}  // namespace

std::string EscapeName(std::string_view name) {
  if (name.empty()) return "%";
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (NeedsEscape(c)) {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 15];
    } else {
      out += c;
    }
  }
  return out;
}

bool IsLocatedParseError(std::string_view message) {
  constexpr std::string_view kAtLine = " parse error at line ";
  constexpr std::string_view kAfterLine =
      " parse error: unexpected end of input after line ";
  constexpr std::string_view kVersion = " format version '";
  size_t at = message.find(kAtLine);
  if (at != std::string_view::npos &&
      DigitsThen(message, at + kAtLine.size(), ": ")) {
    return true;
  }
  at = message.find(kAfterLine);
  if (at != std::string_view::npos &&
      DigitsThen(message, at + kAfterLine.size(), ": expected ")) {
    return true;
  }
  at = message.find("unsupported ");
  if (at == std::string_view::npos) return false;
  at = message.find(kVersion, at);
  return at != std::string_view::npos &&
         message.find("' (this build reads v", at + kVersion.size()) !=
             std::string_view::npos;
}

// -- Fields -------------------------------------------------------------------

bool Fields::Take(std::string_view* out) {
  if (mode_ == LineMode::kTrimmed) {
    size_t begin = 0;
    while (begin < rest_.size() && IsSpace(rest_[begin])) ++begin;
    size_t end = begin;
    while (end < rest_.size() && !IsSpace(rest_[end])) ++end;
    if (end == begin) return false;
    *out = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return true;
  }
  if (started_) {
    if (rest_.empty() || rest_.front() != ' ') return false;
    rest_.remove_prefix(1);
  }
  started_ = true;
  const std::string_view field = rest_.substr(0, rest_.find(' '));
  if (field.empty() || std::any_of(field.begin(), field.end(), IsSpace)) {
    return false;
  }
  *out = field;
  rest_.remove_prefix(field.size());
  return true;
}

bool Fields::TakeKeyword(std::string_view keyword) {
  std::string_view field;
  return Take(&field) && field == keyword;
}

bool Fields::TakeUint(uint64_t* out) {
  std::string_view field;
  if (!Take(&field) || (field.size() > 1 && field.front() == '0')) {
    return false;
  }
  uint64_t value = 0;
  const char* end = field.data() + field.size();
  const auto result = std::from_chars(field.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end) return false;
  *out = value;
  return true;
}

bool Fields::TakeDouble(double* out) {
  std::string_view field;
  return Take(&field) && ParseDouble(field, out);
}

bool Fields::TakeName(std::string* out) {
  std::string_view field;
  return Take(&field) && UnescapeName(field, out) && EscapeName(*out) == field;
}

std::string_view Fields::Rest() {
  std::string_view rest = rest_;
  rest_ = {};
  if (mode_ == LineMode::kTrimmed) return Trim(rest);
  if (started_) {
    if (rest.empty() || rest.front() != ' ') return {};
    rest.remove_prefix(1);
  }
  started_ = true;
  return rest;
}

bool Fields::Exhausted() const {
  return mode_ == LineMode::kExact ? rest_.empty() : Trim(rest_).empty();
}

// -- LineCursor ---------------------------------------------------------------

bool LineCursor::Next(std::string_view* line) {
  while (!rest_.empty()) {
    const size_t newline = rest_.find('\n');
    if (newline == std::string_view::npos && mode_ == LineMode::kExact) {
      return false;  // an unterminated final line is a torn write
    }
    std::string_view raw = rest_.substr(0, newline);
    rest_.remove_prefix(std::min(rest_.size(), raw.size() + 1));
    ++line_;
    if (mode_ == LineMode::kTrimmed) {
      raw = Trim(raw);
      if (raw.empty()) continue;
    }
    *line = raw;
    ++records_;
    return true;
  }
  return false;
}

bool LineCursor::Next(Fields* fields) {
  std::string_view line;
  if (!Next(&line)) return false;
  *fields = Fields(line, mode_);
  return true;
}

Status LineCursor::Error(const std::string& detail, StatusCode code) const {
  return Status(code, format_ + " parse error at line " +
                          std::to_string(line_) + ": " + detail);
}

Status LineCursor::Truncated(const std::string& expected) const {
  return Status::InvalidArgument(
      format_ + " parse error: unexpected end of input after line " +
      std::to_string(line_) + ": expected " + expected);
}

Status LineCursor::ReadHeader(std::string_view keyword) {
  const std::string header = "'" + std::string(keyword) + " v1' header";
  Fields fields;
  if (!Next(&fields)) return Truncated(header);
  std::string_view version;
  if (!fields.TakeKeyword(keyword) || !fields.Take(&version) ||
      !fields.Exhausted()) {
    return Error("missing " + header);
  }
  if (version != "v1") {
    return Status::InvalidArgument(
        "unsupported " + std::string(keyword) + " format version '" +
        std::string(version) + "' (this build reads v1)");
  }
  return Status::OK();
}

Status LineCursor::ReadCount(std::string_view keyword, uint64_t* out) {
  const std::string shape = "'" + std::string(keyword) + " <n>'";
  Fields fields;
  if (!Next(&fields)) return Truncated(shape);
  if (!fields.TakeKeyword(keyword) || !fields.TakeUint(out) ||
      !fields.Exhausted()) {
    return Error("expected " + shape);
  }
  return Status::OK();
}

Status LineCursor::ReadEnd() {
  std::string_view line;
  if (!Next(&line)) return Truncated("'end' marker");
  if (line != "end") return Error("missing 'end' marker");
  return Status::OK();
}

Status LineCursor::Finish() {
  const Status status = ReadEnd();
  if (!status.ok()) return status;
  std::string_view line;
  if (!Next(&line)) {
    if (rest_.empty()) return Status::OK();
    ++line_;  // kExact's unterminated final line is content too
  }
  return Error("trailing content after 'end'");
}

}  // namespace pnr
