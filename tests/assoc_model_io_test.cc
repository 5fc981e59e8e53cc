// Assoc model serialization hardening: parse(serialize(m)) is a fixpoint,
// malformed/truncated inputs produce located errors naming the line,
// version skew is named explicitly, trailing content is rejected, and the
// serving registry sniffs + loads assoc models through the same path as
// PNrule ones.

#include "assoc/model_io.h"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "assoc/cba.h"
#include "common/file_io.h"
#include "data/dataset.h"
#include "data/schema_io.h"
#include "serve/registry.h"

namespace pnr {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.AddAttribute(Attribute::Categorical("proto", {"tcp", "udp"}));
  schema.AddAttribute(Attribute::Numeric("port"));
  schema.GetOrAddClass("normal");
  schema.GetOrAddClass("attack");
  return schema;
}

// A small hand-built model covering both condition families (attribute
// indices follow TestSchema's declaration order).
AssocClassifier TestModel(const Schema& /*schema*/) {
  RuleSet rules;
  std::vector<AssocClassifier::RuleInfo> info;
  {
    Rule rule;
    rule.AddCondition(Condition::CatEqual(0, 1));     // proto = udp
    rule.AddCondition(Condition::Greater(1, 1023.5));  // port > 1023.5
    AssocClassifier::RuleInfo ri;
    ri.cls = 1;
    ri.support = 20;
    ri.class_support = 19;
    ri.confidence = 0.95;
    ri.lift = 9.5;
    ri.target_score = 0.95;
    rules.AddRule(std::move(rule));
    info.push_back(ri);
  }
  {
    Rule rule;
    rule.AddCondition(Condition::LessEqual(1, 80.0));  // port <= 80
    AssocClassifier::RuleInfo ri;
    ri.cls = 0;
    ri.support = 500;
    ri.class_support = 499;
    ri.confidence = 0.998;
    ri.lift = 1.02;
    ri.target_score = 0.002;
    rules.AddRule(std::move(rule));
    info.push_back(ri);
  }
  AssocClassifier model(std::move(rules), std::move(info),
                        /*target=*/1, /*default_class=*/0,
                        /*default_score=*/0.1);
  model.set_threshold(0.6);
  return model;
}

// Replaces 1-based line `n` of `text` with `replacement` (empty string
// deletes the line).
std::string WithLine(const std::string& text, size_t n,
                     const std::string& replacement) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  size_t i = 0;
  while (std::getline(in, line)) {
    ++i;
    if (i == n) {
      if (!replacement.empty()) out << replacement << '\n';
    } else {
      out << line << '\n';
    }
  }
  return out.str();
}

TEST(AssocModelIoTest, RoundTripIsAFixpoint) {
  const Schema schema = TestSchema();
  const AssocClassifier model = TestModel(schema);
  const std::string text = SerializeAssocModel(model, schema);
  auto parsed = ParseAssocModel(text, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeAssocModel(*parsed, schema), text);

  EXPECT_EQ(parsed->target(), model.target());
  EXPECT_EQ(parsed->default_class(), model.default_class());
  EXPECT_DOUBLE_EQ(parsed->default_score(), model.default_score());
  EXPECT_DOUBLE_EQ(parsed->threshold(), model.threshold());
  ASSERT_EQ(parsed->rules().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->rule_info()[0].confidence, 0.95);
  EXPECT_EQ(parsed->rule_info()[1].support, 500u);
}

TEST(AssocModelIoTest, ParsedModelScoresLikeTheOriginal) {
  const Schema schema = TestSchema();
  const AssocClassifier model = TestModel(schema);
  auto parsed = ParseAssocModel(SerializeAssocModel(model, schema), schema);
  ASSERT_TRUE(parsed.ok());
  Dataset data(schema);
  for (int i = 0; i < 10; ++i) {
    const RowId r = data.AddRow();
    data.set_categorical(r, 0, i % 2);
    data.set_numeric(r, 1, static_cast<double>(i * 300));
  }
  for (RowId r = 0; r < data.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(parsed->Score(data, r), model.Score(data, r));
  }
}

TEST(AssocModelIoTest, SniffRecognizesTheHeader) {
  const Schema schema = TestSchema();
  const std::string text = SerializeAssocModel(TestModel(schema), schema);
  auto any = ParseAnyModel(text, schema);
  ASSERT_TRUE(any.ok()) << any.status().ToString();
  EXPECT_EQ(any->kind, "assoc");
  EXPECT_EQ(any->primary_rules, 2u);
  any = ParseAnyModel("\n  \n" + text, schema);  // leading whitespace ok
  ASSERT_TRUE(any.ok()) << any.status().ToString();
  EXPECT_EQ(any->kind, "assoc");
  // Any other header goes to the PNrule parser, which names its header.
  any = ParseAnyModel("pnr-model v3\n", schema);
  ASSERT_FALSE(any.ok());
  EXPECT_NE(any.status().message().find(
                "line 1: missing 'pnrule-model v1' header"),
            std::string::npos)
      << any.status().ToString();
  any = ParseAnyModel("", schema);
  ASSERT_FALSE(any.ok());
  EXPECT_NE(any.status().message().find(
                "after line 0: expected 'pnrule-model v1' header"),
            std::string::npos)
      << any.status().ToString();
}

TEST(AssocModelIoTest, VersionSkewIsNamed) {
  const Schema schema = TestSchema();
  std::string text = SerializeAssocModel(TestModel(schema), schema);
  text = WithLine(text, 1, "pnr-assoc-model v2");
  auto parsed = ParseAssocModel(text, schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("version 'v2'"), std::string::npos);
}

TEST(AssocModelIoTest, UnknownClassIsALocatedError) {
  const Schema schema = TestSchema();
  std::string text = SerializeAssocModel(TestModel(schema), schema);
  text = WithLine(text, 2, "target martian");
  auto parsed = ParseAssocModel(text, schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("martian"), std::string::npos);
}

TEST(AssocModelIoTest, UnknownAttributeInConditionIsALocatedError) {
  const Schema schema = TestSchema();
  std::string text = SerializeAssocModel(TestModel(schema), schema);
  // Line 7 is the first condition of rule 1 ("cond cat proto udp").
  text = WithLine(text, 7, "cond cat nosuch udp");
  auto parsed = ParseAssocModel(text, schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 7"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("nosuch"), std::string::npos);
}

TEST(AssocModelIoTest, ClassSupportAboveSupportIsRejected) {
  const Schema schema = TestSchema();
  std::string text = SerializeAssocModel(TestModel(schema), schema);
  // Rule header at line 6: swap support/class_support so class > global.
  text = WithLine(text, 6, "rule 2 attack 19 20 0.95 9.5 0.95");
  auto parsed = ParseAssocModel(text, schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 6"), std::string::npos);
}

TEST(AssocModelIoTest, TruncationIsDistinguishedFromMalformation) {
  const Schema schema = TestSchema();
  const std::string text = SerializeAssocModel(TestModel(schema), schema);
  // Drop everything after the first rule header: the parser should say the
  // input *ended*, not that a line was malformed.
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  for (int i = 0; i < 6 && std::getline(in, line); ++i) out << line << '\n';
  auto parsed = ParseAssocModel(out.str(), schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unexpected end of input"),
            std::string::npos);
}

TEST(AssocModelIoTest, TrailingContentAfterEndIsRejected) {
  const Schema schema = TestSchema();
  std::string text = SerializeAssocModel(TestModel(schema), schema);
  text += "extra junk\n";
  auto parsed = ParseAssocModel(text, schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("trailing content"),
            std::string::npos);
}

TEST(AssocModelIoTest, EmptyInputIsATruncationError) {
  const Schema schema = TestSchema();
  auto parsed = ParseAssocModel("", schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unexpected end of input"),
            std::string::npos);
}

TEST(AssocModelIoTest, SaveLoadRoundTripsThroughDisk) {
  const Schema schema = TestSchema();
  const AssocClassifier model = TestModel(schema);
  const std::string path = ::testing::TempDir() + "/pnr_assoc_model_test.txt";
  ASSERT_TRUE(SaveAssocModel(model, schema, path).ok());
  auto loaded = LoadAssocModel(path, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeAssocModel(*loaded, schema),
            SerializeAssocModel(model, schema));
}

TEST(AssocModelIoTest, LoadOfMissingFileFails) {
  const Schema schema = TestSchema();
  auto loaded = LoadAssocModel("/nonexistent/assoc.model", schema);
  EXPECT_FALSE(loaded.ok());
}

// The serving registry accepts assoc models through the same --model path
// as PNrule ones: the format sniff routes the text, the entry reports
// kind "assoc", and scoring goes through the polymorphic classifier.
TEST(AssocModelIoTest, RegistrySniffsAndServesAssocModels) {
  const Schema schema = TestSchema();
  const AssocClassifier model = TestModel(schema);
  const std::string dir = ::testing::TempDir();
  const std::string model_path = dir + "/pnr_assoc_registry_model.txt";
  const std::string schema_path = dir + "/pnr_assoc_registry_schema.txt";
  ASSERT_TRUE(SaveAssocModel(model, schema, model_path).ok());
  ASSERT_TRUE(SaveSchema(schema, schema_path).ok());

  ModelRegistry registry;
  Status loaded = registry.Load("cars", model_path, schema_path);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  auto entry = registry.Get("cars");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, "assoc");
  EXPECT_EQ(entry->primary_rules, 2u);
  EXPECT_EQ(entry->secondary_rules, 0u);

  Dataset data(entry->schema);
  const RowId r = data.AddRow();
  data.set_categorical(r, 0, 1);      // udp
  data.set_numeric(r, 1, 4444.0);     // > 1023.5: the attack rule fires
  EXPECT_DOUBLE_EQ(entry->model->Score(data, r), 0.95);

  // A corrupt model file fails the Load with the name in the message and
  // leaves the previous version serving.
  ASSERT_TRUE(WriteStringToFile("pnr-assoc-model v1\ngarbage\n",
                                model_path).ok());
  Status reloaded = registry.Load("cars", model_path, schema_path);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_NE(reloaded.message().find("cars"), std::string::npos);
  auto still = registry.Get("cars");
  ASSERT_NE(still, nullptr);
  EXPECT_EQ(still->primary_rules, 2u);
}

}  // namespace
}  // namespace pnr
