#include "pnrule/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/metrics.h"
#include "synth/sweep.h"

namespace pnr {
namespace {

struct TrainedModel {
  TrainTestPair data;
  PnruleClassifier model;
};

TrainedModel TrainSmallModel() {
  TrainTestPair data = MakeNumericPair(NsynParams(3), 20000, 8000, 99);
  const CategoryId target =
      data.train.schema().class_attr().FindCategory("C");
  PnruleLearner learner;
  auto model = learner.Train(data.train, target);
  EXPECT_TRUE(model.ok());
  return TrainedModel{std::move(data), std::move(model).value()};
}

TEST(ModelIoTest, RoundTripPreservesPredictions) {
  TrainedModel trained = TrainSmallModel();
  const Schema& schema = trained.data.train.schema();
  const std::string text = SerializePnruleModel(trained.model, schema);
  auto reloaded = ParsePnruleModel(text, schema);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->p_rules().size(), trained.model.p_rules().size());
  ASSERT_EQ(reloaded->n_rules().size(), trained.model.n_rules().size());
  for (RowId row = 0; row < trained.data.test.num_rows(); ++row) {
    ASSERT_DOUBLE_EQ(reloaded->Score(trained.data.test, row),
                     trained.model.Score(trained.data.test, row))
        << "row " << row;
  }
}

TEST(ModelIoTest, RoundTripPreservesStructure) {
  TrainedModel trained = TrainSmallModel();
  const Schema& schema = trained.data.train.schema();
  auto reloaded =
      ParsePnruleModel(SerializePnruleModel(trained.model, schema), schema);
  ASSERT_TRUE(reloaded.ok());
  for (size_t i = 0; i < trained.model.p_rules().size(); ++i) {
    EXPECT_TRUE(reloaded->p_rules().rule(i) ==
                trained.model.p_rules().rule(i));
  }
  EXPECT_DOUBLE_EQ(reloaded->threshold(), trained.model.threshold());
  EXPECT_EQ(reloaded->use_score_matrix(), trained.model.use_score_matrix());
}

TEST(ModelIoTest, ThresholdSurvivesRoundTrip) {
  TrainedModel trained = TrainSmallModel();
  trained.model.set_threshold(0.25);
  const Schema& schema = trained.data.train.schema();
  auto reloaded =
      ParsePnruleModel(SerializePnruleModel(trained.model, schema), schema);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_DOUBLE_EQ(reloaded->threshold(), 0.25);
}

TEST(ModelIoTest, SaveAndLoadFile) {
  TrainedModel trained = TrainSmallModel();
  const Schema& schema = trained.data.train.schema();
  const std::string path = ::testing::TempDir() + "/pnr_model_test.txt";
  ASSERT_TRUE(SavePnruleModel(trained.model, schema, path).ok());
  auto reloaded = LoadPnruleModel(path, schema);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const Confusion a = EvaluateClassifier(
      trained.model, trained.data.test,
      schema.class_attr().FindCategory("C"));
  const Confusion b = EvaluateClassifier(
      *reloaded, trained.data.test, schema.class_attr().FindCategory("C"));
  EXPECT_DOUBLE_EQ(a.f_measure(), b.f_measure());
  std::remove(path.c_str());
}

TEST(ModelIoTest, ToleratesCrlfAndTrailingWhitespace) {
  // Models copied through Windows tooling arrive with CRLF endings and
  // stray trailing blanks; parsing must be byte-for-byte insensitive.
  TrainedModel trained = TrainSmallModel();
  const Schema& schema = trained.data.train.schema();
  const std::string text = SerializePnruleModel(trained.model, schema);
  std::string windows;
  for (const char c : text) {
    if (c == '\n') {
      windows += " \t\r\n";  // trailing whitespace + CRLF on every line
    } else {
      windows += c;
    }
  }
  auto reloaded = ParsePnruleModel(windows, schema);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  for (RowId row = 0; row < 500 && row < trained.data.test.num_rows();
       ++row) {
    ASSERT_DOUBLE_EQ(reloaded->Score(trained.data.test, row),
                     trained.model.Score(trained.data.test, row));
  }
}

TEST(ModelIoTest, RejectsUnknownFormatVersionByName) {
  TrainedModel trained = TrainSmallModel();
  const Schema& schema = trained.data.train.schema();
  std::string text = SerializePnruleModel(trained.model, schema);
  const size_t pos = text.find("v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "v7");
  auto parsed = ParsePnruleModel(text, schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("'v7'"), std::string::npos)
      << parsed.status().message();
}

TEST(ModelIoTest, RejectsMalformedInput) {
  TrainedModel trained = TrainSmallModel();
  const Schema& schema = trained.data.train.schema();
  EXPECT_FALSE(ParsePnruleModel("", schema).ok());
  EXPECT_FALSE(ParsePnruleModel("bogus header\n", schema).ok());
  // Truncated body.
  std::string text = SerializePnruleModel(trained.model, schema);
  text.resize(text.size() / 2);
  EXPECT_FALSE(ParsePnruleModel(text, schema).ok());
}

TEST(ModelIoTest, RejectsUnknownAttribute) {
  TrainedModel trained = TrainSmallModel();
  const Schema& schema = trained.data.train.schema();
  std::string text = SerializePnruleModel(trained.model, schema);
  // Rename an attribute reference to something the schema lacks.
  const size_t pos = text.find("cond ");
  ASSERT_NE(pos, std::string::npos);
  Schema other;  // empty feature set
  other.GetOrAddClass("C");
  other.GetOrAddClass("NC");
  EXPECT_FALSE(ParsePnruleModel(text, other).ok());
}

TEST(ModelIoTest, CommitteeLoaderRejectsNonFiniteOrNegativeWeights) {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  std::vector<std::optional<PnruleClassifier>> models(2);
  models[1].emplace(RuleSet(), RuleSet(), ScoreMatrix(), true);
  const std::string text = SerializeMultiClassModel(
      MultiClassPnruleClassifier(std::move(models), {1.0, 0.0}, 0), schema);
  ASSERT_TRUE(ParseMultiClassModel(text, schema).ok());
  // Line 4 is class 0's absent record, line 5 starts class 1's model.
  for (const char* bad : {"nan", "inf", "-inf", "-1", "-0.5"}) {
    for (const auto& [record, line] :
         {std::pair<std::string, std::string>{"class 0 1 absent", "4"},
          std::pair<std::string, std::string>{"class 1 0 model", "5"}}) {
      std::string edited = text;
      const size_t pos = edited.find(record);
      ASSERT_NE(pos, std::string::npos) << record;
      std::string replaced = record;
      replaced.replace(8, 1, bad);
      edited.replace(pos, record.size(), replaced);
      const auto parsed = ParseMultiClassModel(edited, schema);
      ASSERT_FALSE(parsed.ok()) << replaced;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find("line " + line + ":"),
                std::string::npos)
          << parsed.status().ToString();
      EXPECT_NE(parsed.status().message().find("finite and >= 0"),
                std::string::npos)
          << parsed.status().ToString();
    }
  }
}

TEST(ModelIoTest, LoadMissingFileFails) {
  Schema schema;
  auto loaded = LoadPnruleModel("/nonexistent/model.txt", schema);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace pnr
