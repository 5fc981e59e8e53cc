// Parallel data-ingestion engine: chunked CSV/ARFF parsing over
// memory-mapped input with a deterministic dictionary merge.
//
// Every workload in this library starts by turning raw bytes into a
// columnar Dataset, and on rare-class problems the training sets are large
// precisely because positives are scarce. The engine makes that first stage
// parallel without giving up the repository-wide determinism contract:
//
//   1. The file is memory-mapped (streaming fallback) and a quote-aware
//      structural scan splits it into row-aligned chunks.
//   2. Chunks are parsed concurrently on a ThreadPool into thread-local
//      columnar blocks: numeric cells go straight into per-chunk double
//      vectors, categorical cells into per-chunk local dictionaries (values
//      kept in chunk-local first-appearance order) plus local codes.
//   3. Local dictionaries are merged serially in file order: walking chunks
//      first-to-last and each chunk's values in local first-appearance
//      order visits every distinct string exactly in its global
//      first-appearance row order, so the CategoryIds — and every model
//      trained downstream — are byte-identical to the serial parse for any
//      thread count and any chunking.
//   4. A final parallel pass rewrites the local codes to global ids; each
//      chunk owns a disjoint row range of the pre-sized Dataset storage.
//
// The serial reference parsers (the `--threads 1` path) implement the same
// grammar independently; tests assert the two produce bitwise-identical
// datasets, which is what protects the concurrency orchestration.

#ifndef PNR_DATA_INGEST_H_
#define PNR_DATA_INGEST_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/arff.h"
#include "data/csv.h"
#include "data/dataset.h"

namespace pnr {

/// Knobs controlling how the ingest engine reads and parallelizes.
struct IngestOptions {
  /// Worker threads for chunk parsing: 1 = the serial reference parser,
  /// 0 = all hardware threads, n = n threads. The loaded Dataset is
  /// byte-identical for every value.
  size_t num_threads = 1;

  /// Target chunk size in bytes; 0 picks one automatically (enough chunks
  /// to balance the pool, floored at ThreadPool::kMinBytesPerThread). When
  /// set explicitly the byte-based thread clamp is bypassed — tests use
  /// tiny values to force many chunks on small inputs.
  size_t chunk_bytes = 0;

  /// Load files via mmap when possible; false forces streaming reads.
  bool allow_mmap = true;
};

/// The ingestion engine. Stateless apart from its options; one engine can
/// load any number of files. `ReadCsv` / `ReadArff` are thin wrappers around
/// a default (serial) engine.
class IngestEngine {
 public:
  explicit IngestEngine(IngestOptions options = {}) : options_(options) {}

  const IngestOptions& options() const { return options_; }

  /// Loads a CSV file (mmap + chunk-parallel parse).
  StatusOr<Dataset> LoadCsv(const std::string& path,
                            const CsvReadOptions& options = {}) const;

  /// Parses CSV from an in-memory buffer (same semantics as LoadCsv).
  StatusOr<Dataset> ParseCsv(std::string_view text,
                             const CsvReadOptions& options = {}) const;

  /// Loads an ARFF file: serial header parse, chunk-parallel @data parse.
  StatusOr<Dataset> LoadArff(const std::string& path,
                             const ArffReadOptions& options = {}) const;

  /// Parses ARFF from an in-memory buffer (same semantics as LoadArff).
  StatusOr<Dataset> ParseArff(std::string_view text,
                              const ArffReadOptions& options = {}) const;

 private:
  IngestOptions options_;
};

// -- Path-level entry points (exposed for tests and benchmarks) -------------

/// The serial reference CSV parser: record-at-a-time scalar scan that
/// materializes every cell, infers column types, then builds the Dataset in
/// row order. Deliberately simple — it is the correctness baseline the
/// parallel engine is verified against (and the benchmark's serial lane).
StatusOr<Dataset> IngestCsvSerial(std::string_view text,
                                  const CsvReadOptions& options);

/// The chunk-parallel CSV engine described in the file comment. Produces a
/// Dataset bitwise-identical to IngestCsvSerial for any `ingest` settings.
StatusOr<Dataset> IngestCsvParallel(std::string_view text,
                                    const CsvReadOptions& options,
                                    const IngestOptions& ingest);

/// Serial reference parser for an ARFF `@data` section. `layout` comes from
/// ParseArffHeader (data/arff.h) and is consumed; the returned Dataset owns
/// its schema.
StatusOr<Dataset> IngestArffRowsSerial(std::string_view text,
                                       ArffLayout layout);

/// Chunk-parallel parser for an ARFF `@data` section. ARFF dictionaries are
/// fixed by the header declarations, so no merge is needed; rows land in
/// pre-sized storage at global offsets. Bitwise-identical to the serial
/// reference for any settings.
StatusOr<Dataset> IngestArffRowsParallel(std::string_view text,
                                         ArffLayout layout,
                                         const IngestOptions& ingest);

}  // namespace pnr

#endif  // PNR_DATA_INGEST_H_
