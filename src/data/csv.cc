// CSV entry points. Parsing lives in the ingest engine (data/ingest.cc):
// these wrappers only pick the engine options from CsvReadOptions. WriteCsv
// stays here.

#include "data/csv.h"

#include <cstdio>
#include <fstream>

#include "data/ingest.h"

namespace pnr {
namespace {

IngestOptions EngineOptions(const CsvReadOptions& options) {
  IngestOptions ingest;
  ingest.num_threads = options.num_threads;
  return ingest;
}

}  // namespace

StatusOr<Dataset> ReadCsvFromString(const std::string& text,
                                    const CsvReadOptions& options) {
  return IngestEngine(EngineOptions(options)).ParseCsv(text, options);
}

StatusOr<Dataset> ReadCsv(const std::string& path,
                          const CsvReadOptions& options) {
  return IngestEngine(EngineOptions(options)).LoadCsv(path, options);
}

Status WriteCsv(const Dataset& dataset, const std::string& path,
                char delimiter) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open '" + path + "' for write");
  const Schema& schema = dataset.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    file << schema.attribute(static_cast<AttrIndex>(a)).name() << delimiter;
  }
  file << schema.class_attr().name() << '\n';
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const AttrIndex attr = static_cast<AttrIndex>(a);
      if (schema.attribute(attr).is_numeric()) {
        // 17 significant digits round-trip every double bit for bit.
        char cell[32];
        std::snprintf(cell, sizeof(cell), "%.17g", dataset.numeric(r, attr));
        file << cell;
      } else {
        const CategoryId id = dataset.categorical(r, attr);
        file << (id == kInvalidCategory
                     ? "?"
                     : schema.attribute(attr).CategoryName(id));
      }
      file << delimiter;
    }
    file << schema.class_attr().CategoryName(dataset.label(r)) << '\n';
  }
  if (!file) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace pnr
