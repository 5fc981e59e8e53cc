// CSV import/export for datasets.
//
// Import infers a schema: a column whose every field parses as a double
// becomes numeric; anything else becomes categorical. One column is
// designated the class column (by name, or the last column by default).
//
// The grammar is quote-aware RFC-4180-style CSV: fields may be wrapped in
// double quotes to embed the delimiter, newlines, or (doubled) quotes;
// unquoted fields are trimmed of surrounding whitespace. A UTF-8 BOM and
// CRLF line endings are tolerated, and a missing trailing newline is fine.
// Parse errors report the line number, column index and offending token.
//
// ReadCsv and ReadCsvFromString run the ingest engine's serial reference
// parser; load through IngestEngine (data/ingest.h) with
// IngestOptions::num_threads for the memory-mapped, chunk-parallel engine.
// The loaded Dataset is byte-identical either way.

#ifndef PNR_DATA_CSV_H_
#define PNR_DATA_CSV_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace pnr {

/// Options controlling CSV import.
struct CsvReadOptions {
  /// Field delimiter.
  char delimiter = ',';
  /// Whether the first row is a header with attribute names.
  bool has_header = true;
  /// Name of the class column; empty means "last column".
  std::string class_column;
};

/// Reads `path` into a Dataset (memory-mapped when possible). All rows must
/// have the same arity.
StatusOr<Dataset> ReadCsv(const std::string& path,
                          const CsvReadOptions& options = {});

/// Parses CSV from an in-memory string (same semantics as ReadCsv).
StatusOr<Dataset> ReadCsvFromString(const std::string& text,
                                    const CsvReadOptions& options = {});

/// Writes `dataset` to `path` with a header row; the class column is last.
Status WriteCsv(const Dataset& dataset, const std::string& path,
                char delimiter = ',');

}  // namespace pnr

#endif  // PNR_DATA_CSV_H_
