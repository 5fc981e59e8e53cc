// Tests for the parallel ingestion engine: bitwise serial/parallel
// equivalence (values, labels, weights, dictionaries), the quote-aware CSV
// grammar's edge cases through BOTH paths, located error messages, and the
// mmap/streaming file transports.

#include "data/ingest.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"

namespace pnr {
namespace {

// Asserts `a` and `b` are bitwise-identical datasets: same schema (names,
// types, dictionaries in id order), same cell bits, labels, and weights.
void ExpectBitwiseEqual(const Dataset& a, const Dataset& b) {
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  ASSERT_EQ(sa.num_attributes(), sb.num_attributes());
  for (size_t i = 0; i < sa.num_attributes(); ++i) {
    const Attribute& attr_a = sa.attribute(static_cast<AttrIndex>(i));
    const Attribute& attr_b = sb.attribute(static_cast<AttrIndex>(i));
    EXPECT_EQ(attr_a.name(), attr_b.name());
    ASSERT_EQ(attr_a.type(), attr_b.type());
    ASSERT_EQ(attr_a.num_categories(), attr_b.num_categories());
    for (size_t c = 0; c < attr_a.num_categories(); ++c) {
      EXPECT_EQ(attr_a.CategoryName(static_cast<CategoryId>(c)),
                attr_b.CategoryName(static_cast<CategoryId>(c)))
          << "attribute " << attr_a.name() << " category " << c;
    }
  }
  ASSERT_EQ(sa.num_classes(), sb.num_classes());
  for (size_t c = 0; c < sa.num_classes(); ++c) {
    EXPECT_EQ(sa.class_attr().CategoryName(static_cast<CategoryId>(c)),
              sb.class_attr().CategoryName(static_cast<CategoryId>(c)));
  }
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (RowId r = 0; r < a.num_rows(); ++r) {
    for (size_t i = 0; i < sa.num_attributes(); ++i) {
      const AttrIndex attr = static_cast<AttrIndex>(i);
      if (sa.attribute(attr).is_numeric()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a.numeric(r, attr)),
                  std::bit_cast<uint64_t>(b.numeric(r, attr)))
            << "row " << r << " attr " << i;
      } else {
        EXPECT_EQ(a.categorical(r, attr), b.categorical(r, attr))
            << "row " << r << " attr " << i;
      }
    }
    EXPECT_EQ(a.label(r), b.label(r)) << "row " << r;
  }
  EXPECT_EQ(a.weights(), b.weights());
}

// Runs `text` through the serial reference and the engine at 1/2/8 threads
// with aggressive chunking, asserting every parse is bitwise-identical.
// Returns the serial dataset for further inspection.
Dataset ExpectAllPathsAgree(const std::string& text,
                            const CsvReadOptions& options = {},
                            size_t chunk_bytes = 16) {
  auto serial = IngestCsvSerial(text, options);
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    IngestOptions ingest;
    ingest.num_threads = threads;
    ingest.chunk_bytes = chunk_bytes;
    auto parallel = IngestCsvParallel(text, options, ingest);
    EXPECT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitwiseEqual(serial.value(), parallel.value());
  }
  return std::move(serial).value();
}

// Asserts both paths reject `text` with the same code and message.
Status ExpectAllPathsReject(const std::string& text,
                            const CsvReadOptions& options = {},
                            size_t chunk_bytes = 16) {
  auto serial = IngestCsvSerial(text, options);
  EXPECT_FALSE(serial.ok());
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    IngestOptions ingest;
    ingest.num_threads = threads;
    ingest.chunk_bytes = chunk_bytes;
    auto parallel = IngestCsvParallel(text, options, ingest);
    EXPECT_FALSE(parallel.ok());
    EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
  }
  return serial.status();
}

std::string BigMixedCsv(size_t rows) {
  std::string text = "num,cat,mixed,label\n";
  for (size_t r = 0; r < rows; ++r) {
    text += std::to_string(r) + "." + std::to_string(r % 97);
    text += ",v" + std::to_string(r % 13);
    // `mixed` parses as a number for a long prefix, then flips.
    text += (r < rows / 2) ? "," + std::to_string(r)
                           : ",s" + std::to_string(r % 7);
    text += (r % 11 == 0) ? ",rare\n" : ",common\n";
  }
  return text;
}

TEST(IngestCsvTest, ParallelMatchesSerialBitwise) {
  const Dataset dataset = ExpectAllPathsAgree(BigMixedCsv(500), {}, 256);
  EXPECT_EQ(dataset.num_rows(), 500u);
  const Schema& schema = dataset.schema();
  ASSERT_EQ(schema.num_attributes(), 3u);
  EXPECT_TRUE(schema.attribute(0).is_numeric());
  EXPECT_TRUE(schema.attribute(1).is_categorical());
  // The mixed column must flip to categorical even though entire chunks of
  // it look numeric (the pass-B rebuild path).
  EXPECT_TRUE(schema.attribute(2).is_categorical());
  EXPECT_EQ(schema.num_classes(), 2u);
}

TEST(IngestCsvTest, DictionaryIdsFollowRowOrder) {
  const std::string text =
      "x,label\n"
      "c,pos\n"
      "a,neg\n"
      "c,neg\n"
      "b,pos\n";
  const Dataset dataset = ExpectAllPathsAgree(text);
  const Attribute& x = dataset.schema().attribute(0);
  ASSERT_EQ(x.num_categories(), 3u);
  // First-appearance order, not sorted order.
  EXPECT_EQ(x.CategoryName(0), "c");
  EXPECT_EQ(x.CategoryName(1), "a");
  EXPECT_EQ(x.CategoryName(2), "b");
  EXPECT_EQ(dataset.schema().class_attr().CategoryName(0), "pos");
}

TEST(IngestCsvTest, QuotedFieldsWithDelimitersAndNewlines) {
  const std::string text =
      "text,label\n"
      "\"a,b\",pos\n"
      "\"line1\nline2\",neg\n"
      "\"say \"\"hi\"\"\",pos\n"
      "  \"padded\"  ,neg\n"
      "plain,pos\n";
  const Dataset dataset = ExpectAllPathsAgree(text);
  ASSERT_EQ(dataset.num_rows(), 5u);
  const Attribute& attr = dataset.schema().attribute(0);
  EXPECT_EQ(attr.CategoryName(dataset.categorical(0, 0)), "a,b");
  EXPECT_EQ(attr.CategoryName(dataset.categorical(1, 0)), "line1\nline2");
  EXPECT_EQ(attr.CategoryName(dataset.categorical(2, 0)), "say \"hi\"");
  EXPECT_EQ(attr.CategoryName(dataset.categorical(3, 0)), "padded");
}

TEST(IngestCsvTest, CrlfAndMissingTrailingNewline) {
  const Dataset dataset =
      ExpectAllPathsAgree("x,label\r\n1,a\r\n2,b\r\n3,a");
  EXPECT_EQ(dataset.num_rows(), 3u);
  EXPECT_TRUE(dataset.schema().attribute(0).is_numeric());
  EXPECT_DOUBLE_EQ(dataset.numeric(2, 0), 3.0);
}

TEST(IngestCsvTest, Utf8BomIsStripped) {
  const Dataset dataset =
      ExpectAllPathsAgree("\xEF\xBB\xBFx,label\n1,a\n2,b\n");
  EXPECT_EQ(dataset.schema().attribute(0).name(), "x");
  EXPECT_TRUE(dataset.schema().attribute(0).is_numeric());
}

TEST(IngestCsvTest, MissingValuesBecomeCategories) {
  // Empty cells defeat numeric parsing, so the column becomes categorical
  // with "" as an ordinary dictionary entry — the historical behavior.
  const Dataset dataset = ExpectAllPathsAgree("x,label\n1,a\n,b\n3,a\n");
  const Attribute& x = dataset.schema().attribute(0);
  ASSERT_TRUE(x.is_categorical());
  EXPECT_EQ(x.CategoryName(dataset.categorical(1, 0)), "");
}

TEST(IngestCsvTest, BlankLinesAndWhitespaceRowsAreSkipped) {
  const Dataset dataset =
      ExpectAllPathsAgree("x,label\n\n1,a\n   \n\t\n2,b\n\n");
  EXPECT_EQ(dataset.num_rows(), 2u);
}

TEST(IngestCsvTest, FileSmallerThanOneChunk) {
  // Default chunking (chunk_bytes = 0) on a tiny input: the engine clamps
  // to one thread and one chunk but must still match the reference.
  const std::string text = "x,label\n1,a\n2,b\n";
  auto serial = IngestCsvSerial(text, {});
  ASSERT_TRUE(serial.ok());
  IngestOptions ingest;
  ingest.num_threads = 8;
  auto parallel = IngestCsvParallel(text, {}, ingest);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectBitwiseEqual(serial.value(), parallel.value());
}

TEST(IngestCsvTest, EmptyInputRejectedByBothPaths) {
  const Status status = ExpectAllPathsReject("");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ExpectAllPathsReject("\n\n  \n");  // only blank lines
}

TEST(IngestCsvTest, UnterminatedQuoteReportsOpeningLocation) {
  const Status status =
      ExpectAllPathsReject("x,label\n1,a\n\"oops,b\n2,c\n");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("CSV line 3, column 1"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("unterminated quoted field"),
            std::string::npos);
}

TEST(IngestCsvTest, JunkAfterClosingQuoteIsRejected) {
  const Status status = ExpectAllPathsReject("x,label\n\"a\"junk,b\n");
  EXPECT_NE(status.ToString().find("after closing quote"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("CSV line 2"), std::string::npos);
}

TEST(IngestCsvTest, WrongColumnCountReportsLineAndCounts) {
  const Status status =
      ExpectAllPathsReject("a,b,label\n1,2,x\n1,2\n3,4,y\n");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  const std::string message = status.ToString();
  EXPECT_NE(message.find("CSV line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("row has 2 fields, expected 3"), std::string::npos);
}

TEST(IngestCsvTest, ErrorLineNumbersCountQuotedNewlines) {
  // The quoted field on line 2 spans two physical lines, so the ragged row
  // after it sits on line 4.
  const Status status =
      ExpectAllPathsReject("x,label\n\"a\nb\",pos\nbad\n");
  // A single-field record is "ragged" relative to the 2-column header.
  EXPECT_NE(status.ToString().find("CSV line 4"), std::string::npos)
      << status.ToString();
}

TEST(IngestCsvTest, FirstErrorInLineOrderWins) {
  // Both chunks contain errors; the engine must report the earliest one,
  // exactly as the serial scan does.
  std::string text = "a,b,label\n";
  for (int r = 0; r < 50; ++r) text += "1,2,x\n";
  text += "ragged\n";  // line 52
  for (int r = 0; r < 50; ++r) text += "3,4,y\n";
  text += "also,ragged,very,much\n";
  const Status status = ExpectAllPathsReject(text, {}, 64);
  EXPECT_NE(status.ToString().find("CSV line 52"), std::string::npos)
      << status.ToString();
}

TEST(IngestCsvTest, EngineHonorsClassColumnAndHeaderOptions) {
  CsvReadOptions options;
  options.class_column = "label";
  ExpectAllPathsAgree("label,x\npos,1\nneg,2\n", options);

  CsvReadOptions no_header;
  no_header.has_header = false;
  const Dataset dataset = ExpectAllPathsAgree("1,2,x\n3,4,y\n", no_header);
  EXPECT_EQ(dataset.schema().attribute(0).name(), "attr0");
  EXPECT_EQ(dataset.num_rows(), 2u);
}

TEST(IngestEngineTest, MmapAndStreamingTransportsAgree) {
  const std::string path = ::testing::TempDir() + "/pnr_ingest_mmap.csv";
  {
    std::ofstream file(path);
    file << BigMixedCsv(200);
  }
  IngestOptions mmap_options;
  mmap_options.num_threads = 2;
  mmap_options.chunk_bytes = 512;
  IngestOptions stream_options = mmap_options;
  stream_options.allow_mmap = false;
  auto via_mmap = IngestEngine(mmap_options).LoadCsv(path);
  auto via_stream = IngestEngine(stream_options).LoadCsv(path);
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().ToString();
  ASSERT_TRUE(via_stream.ok()) << via_stream.status().ToString();
  ExpectBitwiseEqual(via_mmap.value(), via_stream.value());
  std::remove(path.c_str());
}

TEST(IngestEngineTest, EmptyFileReportsEmptyInput) {
  const std::string path = ::testing::TempDir() + "/pnr_ingest_empty.csv";
  { std::ofstream file(path); }
  // A zero-byte file takes a special path through MappedFile (mmap of
  // length 0 is not attempted); the mmap and streaming transports must
  // still produce the identical diagnostic, not just the same code.
  std::string first_error;
  for (const bool allow_mmap : {true, false}) {
    IngestOptions options;
    options.allow_mmap = allow_mmap;
    options.num_threads = 2;
    auto dataset = IngestEngine(options).LoadCsv(path);
    ASSERT_FALSE(dataset.ok());
    EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
    if (first_error.empty()) {
      first_error = dataset.status().ToString();
    } else {
      EXPECT_EQ(dataset.status().ToString(), first_error);
    }
  }
  EXPECT_NE(first_error.find("empty CSV input"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IngestEngineTest, QuotedFieldAtEofWithoutNewlineAgreesAcrossTransports) {
  // The last byte of the file is the closing quote of a quoted field — no
  // trailing newline. EOF is a record end, so this must parse, and the
  // mmap transport (which hands the parser a non-NUL-terminated view) must
  // agree byte-for-byte with streaming and with the in-memory parse.
  const std::string text =
      "x,label\n"
      "\"multi\nline\",pos\n"
      "7,\"neg\"";
  const Dataset in_memory = ExpectAllPathsAgree(text, {}, 8);
  ASSERT_EQ(in_memory.num_rows(), 2u);
  EXPECT_EQ(in_memory.schema().class_attr().CategoryName(in_memory.label(1)),
            "neg");

  const std::string path = ::testing::TempDir() + "/pnr_ingest_qeof.csv";
  {
    std::ofstream file(path, std::ios::binary);
    file << text;
  }
  for (const bool allow_mmap : {true, false}) {
    IngestOptions options;
    options.allow_mmap = allow_mmap;
    options.num_threads = 2;
    options.chunk_bytes = 8;
    auto loaded = IngestEngine(options).LoadCsv(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectBitwiseEqual(in_memory, loaded.value());
  }
  std::remove(path.c_str());
}

TEST(IngestCsvTest, LoneCarriageReturnIsFieldSpaceNotARecordSeparator) {
  // Classic-Mac '\r'-only endings are NOT record separators in this
  // grammar: '\r' is field-space, so a file with no '\n' is one record.
  // With a header that record is consumed and the parse fails — but it
  // must fail identically on every path, never split differently between
  // the serial reference and a chunked parallel parse.
  const Status status = ExpectAllPathsReject("x,label\r1,a\r2,b\r", {}, 4);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("no data rows"), std::string::npos);

  // A trailing lone '\r' at EOF (after a normal final record) is trimmed
  // like any other field-space.
  const Dataset dataset = ExpectAllPathsAgree("x,label\n1,a\n2,b\r", {}, 4);
  ASSERT_EQ(dataset.num_rows(), 2u);
  EXPECT_EQ(dataset.schema().class_attr().CategoryName(dataset.label(1)),
            "b");
}

TEST(IngestEngineTest, MissingFileIsIOError) {
  IngestOptions options;
  options.num_threads = 4;
  auto dataset = IngestEngine(options).LoadCsv("/nonexistent/file.csv");
  EXPECT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// ARFF through the engine.
// ---------------------------------------------------------------------------

constexpr const char* kArff =
    "% synthetic sensor capture\n"
    "@relation demo\n"
    "@attribute temp numeric\n"
    "@attribute mode {idle, busy, down}\n"
    "@attribute class {pos, neg}\n"
    "@data\n"
    "1.5, idle, pos\n"
    "2, ?, neg   % trailing comment\n"
    "?, down, pos\n"
    "\n"
    "-3.25, 'busy', neg\n";

TEST(IngestArffTest, ParallelMatchesSerialBitwise) {
  ArffReadOptions options;
  auto serial = ReadArffFromString(kArff, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial->num_rows(), 4u);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    IngestOptions ingest;
    ingest.num_threads = threads;
    ingest.chunk_bytes = 8;  // force a chunk per row or two
    auto parallel = IngestEngine(ingest).ParseArff(kArff, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitwiseEqual(serial.value(), parallel.value());
  }
}

TEST(IngestArffTest, MissingValueConventions) {
  auto dataset = ReadArffFromString(kArff);
  ASSERT_TRUE(dataset.ok());
  EXPECT_DOUBLE_EQ(dataset->numeric(2, 0), 0.0);  // numeric '?' -> 0.0
  EXPECT_EQ(dataset->categorical(1, 1), kInvalidCategory);  // nominal '?'
  EXPECT_EQ(dataset->categorical(3, 1), 1);  // quoted 'busy'
}

TEST(IngestArffTest, UndeclaredValueReportsLineAndColumn) {
  const std::string text =
      "@relation r\n"
      "@attribute a numeric\n"
      "@attribute class {x, y}\n"
      "@data\n"
      "1, x\n"
      "2, z\n";
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    IngestOptions ingest;
    ingest.num_threads = threads;
    ingest.chunk_bytes = threads == 1 ? 0 : 4;
    auto dataset = IngestEngine(ingest).ParseArff(text);
    ASSERT_FALSE(dataset.ok());
    const std::string message = dataset.status().ToString();
    EXPECT_NE(message.find("ARFF line 6, column 2"), std::string::npos)
        << message;
    EXPECT_NE(message.find("undeclared class value 'z'"), std::string::npos);
  }
}

TEST(IngestArffTest, RaggedRowReportsEarliestLine) {
  std::string text =
      "@relation r\n"
      "@attribute a numeric\n"
      "@attribute class {x}\n"
      "@data\n";
  for (int r = 0; r < 30; ++r) text += "1, x\n";
  text += "1, x, extra\n";  // line 35
  for (int r = 0; r < 30; ++r) text += "2, x\n";
  IngestOptions ingest;
  ingest.num_threads = 8;
  ingest.chunk_bytes = 32;
  auto dataset = IngestEngine(ingest).ParseArff(text);
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().ToString().find("ARFF line 35"),
            std::string::npos)
      << dataset.status().ToString();
  EXPECT_NE(dataset.status().ToString().find("row has 3 fields, expected 2"),
            std::string::npos);
}

}  // namespace
}  // namespace pnr
