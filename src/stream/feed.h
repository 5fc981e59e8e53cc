// Feed tailer: schema-validated consumption of an append-only CSV event
// file, the front of the `pnr stream` pipeline.
//
// Two layers:
//
//   * FeedParser — an incremental, transport-free CSV parser bound to a
//     fixed Schema. Bytes may arrive in arbitrary fragments (tail reads
//     deliver whatever the producer flushed); the parser buffers the
//     unterminated suffix and emits one ParsedRow per complete line through
//     a row callback. The grammar is the strict WriteCsv dialect: a header
//     naming every feature in schema order with the class column last, no
//     quoting, `?` for a missing categorical cell or a not-yet-known
//     (delayed) label. A categorical *feature* value absent from the
//     dictionary maps to kInvalidCategory and is kept — post-drift traffic
//     is exactly where unseen values appear, and the drift detector counts
//     them — while a structural defect (wrong arity, unparseable or
//     non-finite numeric, unknown class label) rejects only that row with a
//     located error "feed:<name>:<line>: <msg>". Feeding the same bytes in
//     different fragmentations is bit-identical by construction.
//
//   * FeedTailer — the file transport: io::Read polls from the consumed
//     offset, starting with a catch-up pass over the existing content, so
//     the syscall fault-injection harness covers every read. The tailer
//     never seeks backward and never re-reads consumed bytes; a final
//     Finish() flushes a trailing unterminated line at explicit
//     end-of-feed only.

#ifndef PNR_STREAM_FEED_H_
#define PNR_STREAM_FEED_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace pnr {

/// One schema-validated feed record. The per-attribute slots are parallel
/// to the schema: exactly one of numeric[a] / categorical[a] is meaningful
/// depending on the attribute's type.
struct ParsedRow {
  std::vector<double> numeric;          ///< size num_attributes
  std::vector<CategoryId> categorical;  ///< size num_attributes
  /// Class label, or kInvalidCategory for a `?` (delayed) label.
  CategoryId label = kInvalidCategory;
  uint64_t line = 0;  ///< 1-based feed line the row came from
};

class FeedParser {
 public:
  /// Located error messages retained; further errors only count.
  static constexpr size_t kMaxErrors = 64;

  using RowFn = std::function<void(const ParsedRow&)>;

  /// `schema` must outlive the parser. `name` labels errors.
  FeedParser(const Schema* schema, std::string name);

  /// Sink for emitted rows. Must be set before the first Append.
  void set_row_fn(RowFn fn) { row_fn_ = std::move(fn); }

  /// Consumes a fragment: parses every complete line, buffers the rest.
  void Append(std::string_view bytes);

  /// Flushes a trailing unterminated line as a final record. Only call at
  /// explicit end-of-feed; Append may not be called afterwards.
  void Finish();

  /// True once a valid header line has been consumed.
  bool header_ok() const { return header_ok_; }

  uint64_t rows_emitted() const { return rows_emitted_; }
  uint64_t lines_seen() const { return lines_seen_; }

  /// Total rejected lines (header failures count once per bad line).
  uint64_t error_count() const { return error_count_; }

  /// The first kMaxErrors located messages.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  /// Parses one complete line (no terminator) into `row`; returns false
  /// with `error` set (already located) when the line is rejected.
  bool ParseLine(std::string_view line, uint64_t line_number, ParsedRow* row,
                 std::string* error) const;
  /// Validates the header line against the schema.
  bool CheckHeader(std::string_view line, uint64_t line_number,
                   std::string* error) const;
  void RecordError(std::string&& message);
  std::string Located(uint64_t line_number, const std::string& message) const;

  const Schema* schema_;
  std::string name_;
  RowFn row_fn_;
  std::string pending_;  ///< unterminated trailing fragment
  bool header_ok_ = false;
  bool finished_ = false;
  uint64_t lines_seen_ = 0;
  uint64_t rows_emitted_ = 0;
  uint64_t error_count_ = 0;
  std::vector<std::string> errors_;
  ParsedRow scratch_;
};

/// File transport over a FeedParser: catch-up then incremental tailing.
class FeedTailer {
 public:
  /// Opens `path` and runs the catch-up pass over its current content.
  /// Rows reach `fn` during this call. The underlying file may keep
  /// growing; call Poll() to consume appended bytes.
  static StatusOr<FeedTailer> Open(const std::string& path,
                                   const Schema* schema, FeedParser::RowFn fn);

  FeedTailer(FeedTailer&& other) noexcept;
  FeedTailer& operator=(FeedTailer&&) = delete;
  FeedTailer(const FeedTailer&) = delete;
  FeedTailer& operator=(const FeedTailer&) = delete;
  ~FeedTailer();

  /// Reads every byte currently appended past the consumed offset and
  /// feeds it to the parser. Returns the number of bytes consumed (0 =
  /// nothing new). Read failures surface as a Status.
  StatusOr<size_t> Poll();

  /// Declares end-of-feed: flushes a trailing unterminated line.
  void Finish() { parser_.Finish(); }

  uint64_t bytes_consumed() const { return bytes_consumed_; }
  const FeedParser& parser() const { return parser_; }
  FeedParser& parser() { return parser_; }

 private:
  FeedTailer(FeedParser parser, int fd)
      : parser_(std::move(parser)), fd_(fd) {}

  FeedParser parser_;
  int fd_ = -1;
  uint64_t bytes_consumed_ = 0;
};

}  // namespace pnr

#endif  // PNR_STREAM_FEED_H_
