#include "stream/feed.h"

#include <fcntl.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/io_hooks.h"
#include "common/string_util.h"

namespace pnr {

FeedParser::FeedParser(const Schema* schema, std::string name)
    : schema_(schema), name_(std::move(name)) {
  assert(schema_ != nullptr);
  scratch_.numeric.resize(schema_->num_attributes(), 0.0);
  scratch_.categorical.resize(schema_->num_attributes(), kInvalidCategory);
}

std::string FeedParser::Located(uint64_t line_number,
                                const std::string& message) const {
  return "feed:" + name_ + ":" + std::to_string(line_number) + ": " + message;
}

void FeedParser::RecordError(std::string&& message) {
  ++error_count_;
  if (errors_.size() < kMaxErrors) {
    errors_.push_back(std::move(message));
  }
}

bool FeedParser::CheckHeader(std::string_view line, uint64_t line_number,
                             std::string* error) const {
  const size_t num_attrs = schema_->num_attributes();
  size_t field = 0;
  size_t start = 0;
  while (true) {
    const size_t end = line.find(',', start);
    const std::string_view name = TrimWhitespace(
        line.substr(start, end == std::string_view::npos ? end : end - start));
    const std::string_view expected =
        field < num_attrs
            ? std::string_view(
                  schema_->attribute(static_cast<AttrIndex>(field)).name())
            : (field == num_attrs
                   ? std::string_view(schema_->class_attr().name())
                   : std::string_view());
    if (field > num_attrs || name != expected) {
      *error = Located(line_number,
                       "header does not match the schema at column " +
                           std::to_string(field + 1) + " (expected '" +
                           std::string(expected) + "', got '" +
                           std::string(name) + "')");
      return false;
    }
    ++field;
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  if (field != num_attrs + 1) {
    *error = Located(line_number,
                     "header has " + std::to_string(field) + " columns, " +
                         "schema needs " + std::to_string(num_attrs + 1));
    return false;
  }
  return true;
}

bool FeedParser::ParseLine(std::string_view line, uint64_t line_number,
                           ParsedRow* row, std::string* error) const {
  const size_t num_attrs = schema_->num_attributes();
  size_t field = 0;
  size_t start = 0;
  while (true) {
    const size_t end = line.find(',', start);
    const std::string_view cell = TrimWhitespace(
        line.substr(start, end == std::string_view::npos ? end : end - start));
    if (field < num_attrs) {
      const AttrIndex attr = static_cast<AttrIndex>(field);
      const Attribute& attribute = schema_->attribute(attr);
      if (attribute.is_numeric()) {
        double value = 0.0;
        if (!ParseDouble(cell, &value) || !std::isfinite(value)) {
          *error = Located(line_number, "bad numeric value '" +
                                            std::string(cell) +
                                            "' for attribute '" +
                                            attribute.name() + "'");
          return false;
        }
        row->numeric[field] = value;
      } else {
        // `?` and values outside the dictionary both map to
        // kInvalidCategory: unseen values are data (the drift detector's
        // unseen bucket), not defects.
        row->categorical[field] =
            cell == "?" ? kInvalidCategory : attribute.FindCategory(cell);
      }
    } else if (field == num_attrs) {
      if (cell == "?") {
        row->label = kInvalidCategory;  // delayed label
      } else {
        const CategoryId label = schema_->class_attr().FindCategory(cell);
        if (label == kInvalidCategory) {
          *error = Located(line_number,
                           "unknown class label '" + std::string(cell) + "'");
          return false;
        }
        row->label = label;
      }
    }
    ++field;
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  if (field != num_attrs + 1) {
    *error =
        Located(line_number, "expected " + std::to_string(num_attrs + 1) +
                                 " fields, got " + std::to_string(field));
    return false;
  }
  row->line = line_number;
  return true;
}

namespace {

std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

void FeedParser::Append(std::string_view bytes) {
  assert(!finished_);
  size_t start = 0;
  while (start <= bytes.size()) {
    const size_t nl = bytes.find('\n', start);
    if (nl == std::string_view::npos) {
      pending_.append(bytes.substr(start));
      return;
    }
    std::string_view line;
    if (pending_.empty()) {
      line = bytes.substr(start, nl - start);
    } else {
      pending_.append(bytes.substr(start, nl - start));
      line = pending_;
    }
    const uint64_t line_number = ++lines_seen_;
    line = StripCr(line);
    std::string error;
    if (!header_ok_) {
      if (CheckHeader(line, line_number, &error)) {
        header_ok_ = true;
      } else {
        RecordError(std::move(error));
      }
    } else if (line.empty()) {
      RecordError(Located(line_number, "empty line"));
    } else if (ParseLine(line, line_number, &scratch_, &error)) {
      ++rows_emitted_;
      if (row_fn_) row_fn_(scratch_);
    } else {
      RecordError(std::move(error));
    }
    pending_.clear();
    start = nl + 1;
  }
}

void FeedParser::Finish() {
  if (finished_) return;
  if (!pending_.empty()) {
    // Consume the unterminated final line exactly as if the producer had
    // terminated it.
    std::string last;
    last.swap(pending_);
    last.push_back('\n');
    Append(last);
  }
  finished_ = true;
}

// -- FeedTailer --------------------------------------------------------------

StatusOr<FeedTailer> FeedTailer::Open(const std::string& path,
                                      const Schema* schema,
                                      FeedParser::RowFn fn) {
  FeedParser parser(schema, path);
  parser.set_row_fn(std::move(fn));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("stream feed: cannot open " + path + ": " +
                            std::strerror(errno));
  }
  FeedTailer tailer(std::move(parser), fd);
  StatusOr<size_t> caught_up = tailer.Poll();
  if (!caught_up.ok()) return caught_up.status();
  return tailer;
}

FeedTailer::FeedTailer(FeedTailer&& other) noexcept
    : parser_(std::move(other.parser_)),
      fd_(other.fd_),
      bytes_consumed_(other.bytes_consumed_) {
  other.fd_ = -1;
}

FeedTailer::~FeedTailer() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<size_t> FeedTailer::Poll() {
  size_t total = 0;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = io::Read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("stream feed: read failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) break;
    parser_.Append(std::string_view(buf, static_cast<size_t>(n)));
    total += static_cast<size_t>(n);
    bytes_consumed_ += static_cast<size_t>(n);
  }
  return total;
}

}  // namespace pnr
