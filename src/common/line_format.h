// The shared codec for the repository's line-oriented text formats.
//
// Six formats persist state as lines of space-separated fields: PNrule and
// multiclass models (pnrule/model_io.h), assoc models (assoc/model_io.h),
// schema sidecars (data/schema_io.h), the stream checkpoint
// (stream/engine.h), the drift blob (stream/drift.h), and the tune grid
// (tune/config_space.h). They read through the pieces below, so they share
// one grammar and one error vocabulary (docs/API.md, "Text formats"):
//
//   * A LineCursor walks the text in one of two modes. kTrimmed trims every
//     line and skips blank ones (models, schemas, tune grids — files people
//     edit and copy through CRLF tooling). kExact takes every line byte for
//     byte and requires its '\n' (checkpoint and drift blob, whose accepted
//     input must serialize back byte-identically).
//   * Fields tokenizes one line: runs of whitespace separate fields in
//     kTrimmed mode, exactly one ' ' in kExact mode. Every Take validates
//     its field in full.
//   * Names (attributes, categories, classes) are written through
//     EscapeName, so one name is always one field.
//   * Errors have one of three shapes, which IsLocatedParseError
//     recognizes:
//       <format> parse error at line N: <detail>
//       <format> parse error: unexpected end of input after line N:
//           expected <what>
//       unsupported <header> format version '<v>' (this build reads v1)

#ifndef PNR_COMMON_LINE_FORMAT_H_
#define PNR_COMMON_LINE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace pnr {

/// How a LineCursor reads lines and how Fields splits them.
enum class LineMode { kTrimmed, kExact };

/// Percent-escapes whitespace and '%' as "%XX" (uppercase hex); the empty
/// name becomes a lone "%". A name with neither renders unchanged.
std::string EscapeName(std::string_view name);

/// True iff `message` has one of the codec's error shapes (see above).
bool IsLocatedParseError(std::string_view message);

/// One line's fields, consumed left to right.
class Fields {
 public:
  Fields() = default;
  Fields(std::string_view line, LineMode mode) : rest_(line), mode_(mode) {}

  /// Next raw field; false when none is left (or, in kExact mode, when
  /// the separator is not exactly one space or the field holds whitespace).
  bool Take(std::string_view* out);
  /// Next field, which must equal `keyword`.
  bool TakeKeyword(std::string_view keyword);
  /// Next field as canonical unsigned decimal: digits only, no leading
  /// zero, no sign.
  bool TakeUint(uint64_t* out);
  /// Next field as a double (locale-independent ParseDouble).
  bool TakeDouble(double* out);
  /// Next field as an escaped name, which must be in canonical escaped
  /// form so that reading and rewriting it are byte-identical.
  bool TakeName(std::string* out);
  /// Everything after the fields taken so far (trimmed in kTrimmed mode,
  /// after exactly one separator in kExact mode); exhausts the line.
  std::string_view Rest();
  /// True when no field is left.
  bool Exhausted() const;

 private:
  std::string_view rest_;
  LineMode mode_ = LineMode::kTrimmed;
  bool started_ = false;
};

/// Line cursor over one document. Tracks the 1-based physical line number
/// of the last line returned, so every error can name where it happened.
class LineCursor {
 public:
  /// `format` names the document in errors ("model", "schema", ...).
  LineCursor(std::string_view text, std::string format,
             LineMode mode = LineMode::kTrimmed)
      : rest_(text), format_(std::move(format)), mode_(mode) {}

  /// Next line (trimmed and non-blank in kTrimmed mode); false at end of
  /// input. In kExact mode a final line without '\n' is not a line.
  bool Next(std::string_view* line);
  /// Next line split into fields.
  bool Next(Fields* fields);

  /// Physical line of the last line returned (0 before the first).
  size_t line() const { return line_; }
  /// Number of lines returned so far.
  size_t records() const { return records_; }

  /// "<format> parse error at line N: <detail>" at the current line.
  Status Error(const std::string& detail,
               StatusCode code = StatusCode::kInvalidArgument) const;
  /// "<format> parse error: unexpected end of input after line N:
  /// expected <expected>".
  Status Truncated(const std::string& expected) const;

  /// Reads the "<keyword> v1" header line. Version skew is its own error
  /// naming the version, so it reads as a reader/writer mismatch rather
  /// than corruption.
  Status ReadHeader(std::string_view keyword);
  /// Reads a "<keyword> <n>" line, n canonical unsigned decimal.
  Status ReadCount(std::string_view keyword, uint64_t* out);
  /// Reads the "end" line that closes a document.
  Status ReadEnd();
  /// Reads the closing "end" line and rejects anything after it: trailing
  /// content means concatenation or corruption, never something to ignore.
  Status Finish();

 private:
  std::string_view rest_;
  std::string format_;
  LineMode mode_;
  size_t line_ = 0;
  size_t records_ = 0;
};

}  // namespace pnr

#endif  // PNR_COMMON_LINE_FORMAT_H_
