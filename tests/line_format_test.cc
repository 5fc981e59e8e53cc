// The shared line-format codec (common/line_format.h): the name escape,
// the strict field tokenizer, the line cursor and its error shapes — and,
// end to end, that names with whitespace survive every model format and
// that errors inside an embedded multiclass block name the file's line.

#include "common/line_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>
#include <string>

#include "assoc/cba.h"
#include "assoc/model_io.h"
#include "common/rng.h"
#include "data/schema_io.h"
#include "pnrule/model_io.h"

namespace pnr {
namespace {

TEST(LineFormatTest, EscapeNameRoundTripsThroughTakeName) {
  EXPECT_EQ(EscapeName("tcp"), "tcp");
  EXPECT_EQ(EscapeName("tcp syn"), "tcp%20syn");
  EXPECT_EQ(EscapeName("50%\t\r\n"), "50%25%09%0D%0A");
  EXPECT_EQ(EscapeName(""), "%");
  for (const std::string name :
       {"tcp", "tcp syn", " lead", "trail ", "50%", "%", "", "a\nb", "%20"}) {
    const std::string line = "x " + EscapeName(name) + " y";
    Fields fields(line, LineMode::kTrimmed);
    std::string parsed;
    ASSERT_TRUE(fields.TakeKeyword("x"));
    ASSERT_TRUE(fields.TakeName(&parsed)) << line;
    EXPECT_EQ(parsed, name);
    EXPECT_TRUE(fields.TakeKeyword("y"));
    EXPECT_TRUE(fields.Exhausted());
  }
}

TEST(LineFormatTest, TakeNameRejectsNonCanonicalEscapes) {
  for (const char* field : {"a%", "a%2", "a%zz", "%41", "%2f", "%%"}) {
    Fields fields(field, LineMode::kTrimmed);
    std::string parsed;
    EXPECT_FALSE(fields.TakeName(&parsed)) << field;
  }
}

TEST(LineFormatTest, TakeUintIsCanonicalDecimal) {
  const auto take = [](const char* field, uint64_t* out) {
    Fields fields(field, LineMode::kTrimmed);
    return fields.TakeUint(out);
  };
  uint64_t value = 0;
  EXPECT_TRUE(take("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(take("18446744073709551615", &value));
  EXPECT_EQ(value, 18446744073709551615u);
  for (const char* bad : {"01", "+1", "-1", "1.0", "1e3", "x",
                          "18446744073709551616"}) {
    EXPECT_FALSE(take(bad, &value)) << bad;
  }
}

TEST(LineFormatTest, ExactFieldsAreSeparatedBySingleSpaces) {
  uint64_t value = 0;
  Fields good("windows 5", LineMode::kExact);
  EXPECT_TRUE(good.TakeKeyword("windows"));
  EXPECT_TRUE(good.TakeUint(&value));
  EXPECT_TRUE(good.Exhausted());
  for (const char* bad : {"windows  5", "windows 5 ", " windows 5",
                          "windows\t5", "windows 5\r"}) {
    Fields fields(bad, LineMode::kExact);
    EXPECT_FALSE(fields.TakeKeyword("windows") && fields.TakeUint(&value) &&
                 fields.Exhausted())
        << bad;
  }
  // The same spellings are fine where lines are trimmed.
  Fields loose(" windows \t 5 \r", LineMode::kTrimmed);
  EXPECT_TRUE(loose.TakeKeyword("windows"));
  EXPECT_TRUE(loose.TakeUint(&value));
  EXPECT_TRUE(loose.Exhausted());
  // Rest() keeps inner spaces of a trailing free-form value.
  Fields path("model out dir/m.txt", LineMode::kExact);
  EXPECT_TRUE(path.TakeKeyword("model"));
  EXPECT_EQ(path.Rest(), "out dir/m.txt");
}

TEST(LineFormatTest, CursorCountsPhysicalLines) {
  LineCursor trimmed("a\n\n  \r\nb \r\nc", "doc");
  std::string_view line;
  ASSERT_TRUE(trimmed.Next(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(trimmed.Next(&line));
  EXPECT_EQ(line, "b");
  EXPECT_EQ(trimmed.line(), 4u);
  ASSERT_TRUE(trimmed.Next(&line));  // a final line may lack its '\n'
  EXPECT_EQ(line, "c");
  EXPECT_EQ(trimmed.records(), 3u);
  EXPECT_FALSE(trimmed.Next(&line));
  EXPECT_EQ(trimmed.Error("bad").message(),
            "doc parse error at line 5: bad");
  EXPECT_EQ(trimmed.Truncated("'end'").message(),
            "doc parse error: unexpected end of input after line 5: "
            "expected 'end'");

  LineCursor exact("a\n\nend\n", "doc", LineMode::kExact);
  ASSERT_TRUE(exact.Next(&line));
  ASSERT_TRUE(exact.Next(&line));
  EXPECT_EQ(line, "");  // blank lines are lines
  EXPECT_TRUE(exact.Finish().ok());
  LineCursor torn("end", "doc", LineMode::kExact);  // no '\n': torn
  EXPECT_EQ(torn.Finish().message(),
            "doc parse error: unexpected end of input after line 0: "
            "expected 'end' marker");
  LineCursor trailing("end\nmore", "doc", LineMode::kExact);
  EXPECT_EQ(trailing.Finish().message(),
            "doc parse error at line 2: trailing content after 'end'");
}

TEST(LineFormatTest, HeaderNamesVersionSkew) {
  LineCursor skewed("pnrule-model v2\n", "model");
  const Status status = skewed.ReadHeader("pnrule-model");
  EXPECT_EQ(status.message(),
            "unsupported pnrule-model format version 'v2' (this build reads "
            "v1)");
  LineCursor wrong("pnrule-schema v1\n", "model");
  EXPECT_EQ(wrong.ReadHeader("pnrule-model").message(),
            "model parse error at line 1: missing 'pnrule-model v1' header");
}

TEST(LineFormatTest, LocatedPredicateAcceptsOnlyTheThreeShapes) {
  for (const char* located :
       {"model parse error at line 3: bad number",
        "InvalidArgument: schema parse error: unexpected end of input after "
        "line 0: expected 'pnrule-schema v1' header",
        "model 'fraud': unsupported pnrule-model format version 'v9' (this "
        "build reads v1)"}) {
    EXPECT_TRUE(IsLocatedParseError(located)) << located;
  }
  for (const char* unlocated :
       {"", "line 3: bad", "bad version", "model parse error at line x: y",
        "model parse error: unexpected end of input after line 3",
        "unsupported version"}) {
    EXPECT_FALSE(IsLocatedParseError(unlocated)) << unlocated;
  }
}

// -- Names with whitespace, end to end ----------------------------------------

// Rare classes keyed on names with spaces: "port scan" fires on
// proto type = "tcp syn" with large "src bytes"; "dos attack" on
// "icmp echo" with tiny ones.
Dataset SpacedNamesDataset() {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("src bytes"));
  schema.AddAttribute(
      Attribute::Categorical("proto type", {"tcp syn", "udp", "icmp echo"}));
  schema.AddAttribute(Attribute::Numeric("load %"));
  schema.GetOrAddClass("normal traffic");
  schema.GetOrAddClass("port scan");
  schema.GetOrAddClass("dos attack");
  Dataset dataset(std::move(schema));
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    const RowId row = dataset.AddRow();
    const double bytes = rng.NextDouble(0.0, 10.0);
    const CategoryId proto = static_cast<CategoryId>(rng.NextBelow(3));
    dataset.set_numeric(row, 0, bytes);
    dataset.set_categorical(row, 1, proto);
    dataset.set_numeric(row, 2, rng.NextDouble(0.0, 100.0));
    CategoryId label = 0;
    if (proto == 0 && bytes > 8.0 && rng.NextDouble() < 0.9) label = 1;
    if (proto == 2 && bytes < 1.0) label = 2;
    dataset.set_label(row, label);
  }
  return dataset;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/pnr_line_format_" + name;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(SpacedNamesTest, EveryModelFamilySurvivesSaveAndLoad) {
  const Dataset data = SpacedNamesDataset();
  const std::string schema_path = TempPath("spaced.schema");
  ASSERT_TRUE(SaveSchema(data.schema(), schema_path).ok());
  auto loaded_schema = LoadSchema(schema_path);
  ASSERT_TRUE(loaded_schema.ok()) << loaded_schema.status().ToString();
  EXPECT_EQ(SerializeSchema(*loaded_schema), SerializeSchema(data.schema()));
  const Schema& schema = *loaded_schema;
  const CategoryId scan = schema.class_attr().FindCategory("port scan");
  ASSERT_EQ(scan, 1);

  // PNrule: the learned rules test the spaced attribute and category.
  auto pnrule = PnruleLearner().Train(data, scan);
  ASSERT_TRUE(pnrule.ok()) << pnrule.status().ToString();
  const std::string pnrule_path = TempPath("spaced.model");
  ASSERT_TRUE(SavePnruleModel(*pnrule, data.schema(), pnrule_path).ok());
  auto pnrule_loaded = LoadPnruleModel(pnrule_path, schema);
  ASSERT_TRUE(pnrule_loaded.ok()) << pnrule_loaded.status().ToString();
  const std::string pnrule_text = SerializePnruleModel(*pnrule, schema);
  EXPECT_NE(pnrule_text.find("cond cat proto%20type tcp%20syn"),
            std::string::npos)
      << pnrule_text;

  // Multiclass: the "default <class>" line holds a spaced class name.
  auto committee = MultiClassPnruleLearner().Train(data);
  ASSERT_TRUE(committee.ok()) << committee.status().ToString();
  const std::string committee_path = TempPath("spaced.multiclass");
  ASSERT_TRUE(
      SaveMultiClassModel(*committee, data.schema(), committee_path).ok());
  auto committee_loaded = LoadMultiClassModel(committee_path, schema);
  ASSERT_TRUE(committee_loaded.ok()) << committee_loaded.status().ToString();
  EXPECT_NE(SerializeMultiClassModel(*committee, schema)
                .find("default normal%20traffic"),
            std::string::npos);

  // Assoc: "target", "default" and every rule header name classes.
  RowSubset rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  AssocMineOptions options;
  options.per_class_min_support = 0.3;
  auto mined = MineCba(data, rows, scan, options);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_GT(mined->model.rules().size(), 0u);
  const std::string assoc_path = TempPath("spaced.cars");
  ASSERT_TRUE(SaveAssocModel(mined->model, data.schema(), assoc_path).ok());
  auto assoc_loaded = LoadAssocModel(assoc_path, schema);
  ASSERT_TRUE(assoc_loaded.ok()) << assoc_loaded.status().ToString();
  EXPECT_NE(SerializeAssocModel(mined->model, schema)
                .find("target port%20scan"),
            std::string::npos);

  for (RowId row = 0; row < data.num_rows(); ++row) {
    ASSERT_TRUE(SameBits(pnrule_loaded->Score(data, row),
                         pnrule->Score(data, row)))
        << "row " << row;
    ASSERT_TRUE(SameBits(assoc_loaded->Score(data, row),
                         mined->model.Score(data, row)))
        << "row " << row;
    for (CategoryId cls = 0; cls < 3; ++cls) {
      ASSERT_TRUE(SameBits(committee_loaded->Score(data, row, cls),
                           committee->Score(data, row, cls)))
          << "row " << row << " class " << cls;
    }
    ASSERT_EQ(committee_loaded->Classify(data, row),
              committee->Classify(data, row));
  }
  for (const std::string& path :
       {schema_path, pnrule_path, committee_path, assoc_path}) {
    std::remove(path.c_str());
  }
}

TEST(SpacedNamesTest, MulticlassBlockErrorsNameTheFileLine) {
  const Dataset data = SpacedNamesDataset();
  const Schema& schema = data.schema();
  auto committee = MultiClassPnruleLearner().Train(data);
  ASSERT_TRUE(committee.ok()) << committee.status().ToString();
  std::string text = SerializeMultiClassModel(*committee, schema);

  // Find the second embedded class block and its first condition line.
  size_t block = text.find(" model ");
  block = text.find(" model ", block + 1);
  ASSERT_NE(block, std::string::npos) << text;
  const size_t cond = text.find("\ncond ", block);
  ASSERT_NE(cond, std::string::npos) << text;
  const size_t file_line =
      1 + static_cast<size_t>(std::count(text.begin(),
                                         text.begin() + cond + 1, '\n'));
  const size_t line_end = text.find('\n', cond + 1);
  text.replace(cond + 1, line_end - cond - 1, "cond cat proto%20type telnet");

  auto parsed = ParseMultiClassModel(text, schema);
  ASSERT_FALSE(parsed.ok());
  // The file's physical line, and the NotFound of the unknown category.
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
  EXPECT_NE(parsed.status().message().find(
                "multiclass model parse error at line " +
                std::to_string(file_line) +
                ": category 'telnet' not in attribute 'proto type'"),
            std::string::npos)
      << parsed.status().ToString();
}

}  // namespace
}  // namespace pnr
