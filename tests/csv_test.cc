#include "data/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>

namespace pnr {
namespace {

TEST(CsvTest, ParsesWithSchemaInference) {
  const std::string text =
      "x,service,label\n"
      "1.5,http,pos\n"
      "2.0,ftp,neg\n"
      "-3,http,neg\n";
  auto dataset = ReadCsvFromString(text);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->num_rows(), 3u);
  const Schema& schema = dataset->schema();
  ASSERT_EQ(schema.num_attributes(), 2u);
  EXPECT_TRUE(schema.attribute(0).is_numeric());
  EXPECT_TRUE(schema.attribute(1).is_categorical());
  EXPECT_EQ(schema.attribute(1).num_categories(), 2u);
  EXPECT_EQ(schema.num_classes(), 2u);
  EXPECT_DOUBLE_EQ(dataset->numeric(0, 0), 1.5);
  EXPECT_EQ(schema.class_attr().CategoryName(dataset->label(0)), "pos");
}

TEST(CsvTest, ClassColumnByName) {
  const std::string text =
      "label,x\n"
      "a,1\n"
      "b,2\n";
  CsvReadOptions options;
  options.class_column = "label";
  auto dataset = ReadCsvFromString(text, options);
  ASSERT_TRUE(dataset.ok());
  ASSERT_EQ(dataset->schema().num_attributes(), 1u);
  EXPECT_EQ(dataset->schema().attribute(0).name(), "x");
  EXPECT_EQ(dataset->schema().num_classes(), 2u);
}

TEST(CsvTest, NoHeaderGeneratesNames) {
  CsvReadOptions options;
  options.has_header = false;
  auto dataset = ReadCsvFromString("1,2,x\n3,4,y\n", options);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->schema().attribute(0).name(), "attr0");
  EXPECT_EQ(dataset->num_rows(), 2u);
}

TEST(CsvTest, MixedColumnBecomesCategorical) {
  auto dataset = ReadCsvFromString("x,label\n1,a\nfoo,b\n");
  ASSERT_TRUE(dataset.ok());
  EXPECT_TRUE(dataset->schema().attribute(0).is_categorical());
}

TEST(CsvTest, RejectsRaggedRows) {
  auto dataset = ReadCsvFromString("a,b,label\n1,2,x\n1,2\n");
  EXPECT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsMissingClassColumn) {
  CsvReadOptions options;
  options.class_column = "nope";
  auto dataset = ReadCsvFromString("a,label\n1,x\n", options);
  EXPECT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ReadCsvFromString("").ok());
  EXPECT_FALSE(ReadCsvFromString("a,b\n").ok());  // header only
}

TEST(CsvTest, ReadFileErrors) {
  auto dataset = ReadCsv("/nonexistent/path.csv");
  EXPECT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, WriteThenReadRoundTrips) {
  const std::string text =
      "x,service,label\n"
      "1.5,http,pos\n"
      "2,ftp,neg\n"
      "0,http,neg\n"  // overwritten with 0.1 + 0.2 below
      "1e-300,ftp,pos\n"
      "5e-324,http,neg\n"
      "123456789.123456789,ftp,neg\n"
      "-0.0,http,pos\n";
  auto parsed = ReadCsvFromString(text);
  ASSERT_TRUE(parsed.ok());
  Dataset original = std::move(parsed).value();
  // 0.1 + 0.2 needs all 17 significant digits to round-trip.
  original.set_numeric(2, 0, 0.1 + 0.2);

  const std::string path = ::testing::TempDir() + "/pnr_csv_test.csv";
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto reloaded = ReadCsv(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->num_rows(), original.num_rows());
  for (RowId r = 0; r < reloaded->num_rows(); ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>(reloaded->numeric(r, 0)),
              std::bit_cast<uint64_t>(original.numeric(r, 0)))
        << "row " << r << ": " << original.numeric(r, 0);
    EXPECT_EQ(reloaded->schema().attribute(1).CategoryName(
                  reloaded->categorical(r, 1)),
              original.schema().attribute(1).CategoryName(
                  original.categorical(r, 1)));
    EXPECT_EQ(reloaded->schema().class_attr().CategoryName(
                  reloaded->label(r)),
              original.schema().class_attr().CategoryName(
                  original.label(r)));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pnr
