// ARFF import (Weka's Attribute-Relation File Format) — the canonical
// distribution format for the rule-learning datasets of the paper's era.
//
// Supported subset: @relation, @attribute <name> numeric/real/integer,
// @attribute <name> {v1, v2, ...} (nominal), @data with comma-separated
// rows, '%' comments, quoted nominal values, and '?' missing values
// (mapped to kInvalidCategory for nominal attributes and NaN-free 0.0 for
// numeric ones — PNrule's condition semantics treat both as
// "matches nothing specific"). The last nominal attribute is the class
// unless `class_attribute` names another.
//
// The header is parsed serially; the `@data` section goes through the
// ingest engine (data/ingest.h): ReadArff and ReadArffFromString run the
// serial reference row loop, an IngestEngine with IngestOptions::num_threads
// the chunk-parallel parser. ARFF dictionaries are fixed by the
// declarations, so both paths trivially assign the same ids; tests still
// assert bitwise-identical datasets. Parse errors report the
// line number, attribute index and offending token.

#ifndef PNR_DATA_ARFF_H_
#define PNR_DATA_ARFF_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace pnr {

/// Options controlling ARFF import.
struct ArffReadOptions {
  /// Name of the attribute to use as the class; empty = the last declared
  /// nominal attribute.
  std::string class_attribute;
};

/// Everything the @data parser needs from a parsed ARFF header: the built
/// schema (declared dictionaries included), the per-declaration mapping to
/// feature attributes, and where the data section starts.
struct ArffLayout {
  Schema schema;
  std::vector<AttrIndex> attr_of;  ///< per declared attribute; -1 = class
  std::vector<bool> numeric;       ///< per declared attribute
  std::vector<std::string> names;  ///< per declared attribute (for errors)
  size_t class_index = 0;          ///< declaration index of the class
  size_t data_offset = 0;          ///< byte offset of the @data rows
  size_t data_first_line = 1;      ///< 1-based line number at data_offset
};

/// Parses the ARFF header (everything through the @data line) and resolves
/// the class attribute. The returned layout points into `text` via
/// data_offset; rows are parsed by the ingest engine.
StatusOr<ArffLayout> ParseArffHeader(std::string_view text,
                                     const ArffReadOptions& options = {});

/// Trims `text` and strips one layer of matching single or double quotes —
/// ARFF's field decoding, shared by the header and the row parsers.
std::string ArffUnquote(std::string_view text);

/// Parses ARFF text into a Dataset.
StatusOr<Dataset> ReadArffFromString(const std::string& text,
                                     const ArffReadOptions& options = {});

/// Reads an .arff file (memory-mapped when possible).
StatusOr<Dataset> ReadArff(const std::string& path,
                           const ArffReadOptions& options = {});

}  // namespace pnr

#endif  // PNR_DATA_ARFF_H_
