#include "pnrule/multiclass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <numeric>
#include <optional>
#include <vector>

#include "induction/condition_search.h"
#include "pnrule/model_io.h"
#include "synth/kdd_sim.h"

namespace pnr {
namespace {

KddSimData SmallKdd() {
  KddSimParams params;
  params.train_records = 30000;
  params.test_records = 15000;
  params.seed = 5151;
  auto data = GenerateKddSim(params);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(MultiClassTest, TrainsOneModelPerTrainableClass) {
  const KddSimData kdd = SmallKdd();
  MultiClassPnruleLearner learner;
  auto committee = learner.Train(kdd.train);
  ASSERT_TRUE(committee.ok()) << committee.status().ToString();
  EXPECT_EQ(committee->num_classes(), 5u);
  const Schema& schema = kdd.train.schema();
  // The prevalent classes must have models; u2r may be too thin at this
  // scale but normal/dos certainly train.
  EXPECT_NE(committee->model_for(
                schema.class_attr().FindCategory("normal")),
            nullptr);
  EXPECT_NE(committee->model_for(schema.class_attr().FindCategory("dos")),
            nullptr);
}

TEST(MultiClassTest, AccuracyWellAboveMajorityBaseline) {
  const KddSimData kdd = SmallKdd();
  MultiClassPnruleLearner learner;
  auto committee = learner.Train(kdd.train);
  ASSERT_TRUE(committee.ok());
  const double accuracy = MultiClassAccuracy(*committee, kdd.test);
  // dos is ~74% of the test split; the committee should clearly beat
  // always-dos.
  EXPECT_GT(accuracy, 0.85) << accuracy;
}

TEST(MultiClassTest, ScoresAreZeroForModellessClass) {
  const KddSimData kdd = SmallKdd();
  MultiClassPnruleLearner learner;
  auto committee = learner.Train(kdd.train);
  ASSERT_TRUE(committee.ok());
  EXPECT_DOUBLE_EQ(committee->Score(kdd.test, 0, 99), 0.0);
}

TEST(MultiClassTest, ClassWeightsBiasPrediction) {
  const KddSimData kdd = SmallKdd();
  const Schema& schema = kdd.train.schema();
  const CategoryId dos = schema.class_attr().FindCategory("dos");

  MultiClassPnruleLearner plain;
  auto base = plain.Train(kdd.train);
  ASSERT_TRUE(base.ok());

  // Crush every class except dos: predictions collapse toward dos.
  std::vector<double> weights(5, 1e-6);
  weights[static_cast<size_t>(dos)] = 1.0;
  MultiClassPnruleLearner biased;
  biased.set_class_weights(weights);
  auto skewed = biased.Train(kdd.train);
  ASSERT_TRUE(skewed.ok());

  size_t base_dos = 0;
  size_t skewed_dos = 0;
  for (RowId row = 0; row < kdd.test.num_rows(); ++row) {
    if (base->Classify(kdd.test, row) == dos) ++base_dos;
    if (skewed->Classify(kdd.test, row) == dos) ++skewed_dos;
  }
  EXPECT_GE(skewed_dos, base_dos);
}

TEST(MultiClassTest, RejectsBadWeights) {
  const KddSimData kdd = SmallKdd();
  MultiClassPnruleLearner learner;
  learner.set_class_weights({1.0, 1.0});  // 2 weights, 5 classes
  auto committee = learner.Train(kdd.train);
  EXPECT_FALSE(committee.ok());
  // Every weight must be finite and >= 0; zero is allowed.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0}) {
    std::vector<double> weights(5, 1.0);
    weights[3] = bad;
    learner.set_class_weights(weights);
    committee = learner.Train(kdd.train);
    ASSERT_FALSE(committee.ok()) << bad;
    EXPECT_EQ(committee.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(committee.status().message().find("finite and >= 0"),
              std::string::npos)
        << committee.status().ToString();
  }
}

TEST(MultiClassTest, RejectsSingleClassSchema) {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  schema.GetOrAddClass("only");
  Dataset dataset(std::move(schema));
  dataset.AddRow();
  MultiClassPnruleLearner learner;
  EXPECT_FALSE(learner.Train(dataset).ok());
}

TEST(MultiClassTest, ReportNamesSkippedClasses) {
  // Schema knows three classes but the data only ever shows "a" and "b":
  // "ghost" must be reported as skipped with a reason, not silently absent.
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  const CategoryId a = schema.GetOrAddClass("a");
  const CategoryId b = schema.GetOrAddClass("b");
  const CategoryId ghost = schema.GetOrAddClass("ghost");
  Dataset dataset(std::move(schema));
  dataset.AppendRows(200);
  for (RowId row = 0; row < 200; ++row) {
    dataset.set_numeric(row, 0, row < 60 ? 1.0 : 0.0);
    dataset.set_label(row, row < 60 ? a : b);
  }
  MultiClassPnruleLearner learner;
  MultiClassTrainReport report;
  auto committee = learner.Train(dataset, &report);
  ASSERT_TRUE(committee.ok()) << committee.status().ToString();
  ASSERT_EQ(report.classes.size(), 3u);
  EXPECT_TRUE(report.classes[a].status.ok());
  EXPECT_TRUE(report.classes[b].status.ok());
  EXPECT_FALSE(report.classes[ghost].status.ok());
  EXPECT_EQ(report.classes[ghost].class_name, "ghost");
  EXPECT_EQ(report.classes[ghost].rows, 0u);
  EXPECT_NE(report.classes[ghost].status.message().find("no training"),
            std::string::npos);
  EXPECT_EQ(report.trained, 2u);
  EXPECT_EQ(committee->model_for(ghost), nullptr);
}

TEST(MultiClassTest, ReportFilledEvenWhenTrainFails) {
  // Every row is one class: it covers every row, the other class has none,
  // so no class is trainable — Train fails but the report explains why.
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x"));
  const CategoryId all = schema.GetOrAddClass("all");
  schema.GetOrAddClass("never");
  Dataset dataset(std::move(schema));
  dataset.AppendRows(50);
  for (RowId row = 0; row < 50; ++row) dataset.set_label(row, all);
  MultiClassPnruleLearner learner;
  MultiClassTrainReport report;
  auto committee = learner.Train(dataset, &report);
  EXPECT_FALSE(committee.ok());
  ASSERT_EQ(report.classes.size(), 2u);
  EXPECT_EQ(report.trained, 0u);
  EXPECT_NE(report.classes[0].status.message().find("every training row"),
            std::string::npos);
  EXPECT_NE(report.classes[1].status.message().find("no training"),
            std::string::npos);
}

TEST(MultiClassTest, ClassifyBatchMatchesClassifyWithZeroWeights) {
  const KddSimData kdd = SmallKdd();
  const Schema& schema = kdd.train.schema();
  // Zero out one trained class: the batched path skips its ScoreBatch pass
  // entirely, and must still agree with row-at-a-time Classify.
  std::vector<double> weights(5, 1.0);
  weights[static_cast<size_t>(schema.class_attr().FindCategory("dos"))] = 0.0;
  MultiClassPnruleLearner learner;
  learner.set_class_weights(weights);
  auto committee = learner.Train(kdd.train);
  ASSERT_TRUE(committee.ok());

  std::vector<RowId> rows(kdd.test.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<CategoryId> batched(rows.size());
  committee->ClassifyBatch(kdd.test, rows.data(), rows.size(),
                           batched.data());
  for (RowId row = 0; row < kdd.test.num_rows(); ++row) {
    ASSERT_EQ(batched[row], committee->Classify(kdd.test, row))
        << "row " << row;
  }
}

// The serial committee trains every class through one search engine. That
// must be invisible in the models: the committee serializes exactly like
// one whose classes each train with their own engine, and the shared
// engine sorts each numeric column once for the whole committee.
TEST(MultiClassTest, OneEngineForAllClassesMatchesAnEnginePerClass) {
  // Enough rows that a 4-thread engine scans the full rows in parallel
  // (ThreadPool::kMinRowsPerThread), so the first search builds the cache
  // slots — sorted orders and code copies — from pool workers.
  KddSimParams params;
  params.train_records = 2 * ThreadPool::kMinRowsPerThread + 1000;
  params.test_records = 1000;
  params.seed = 2727;
  auto kdd = GenerateKddSim(params);
  ASSERT_TRUE(kdd.ok()) << kdd.status().ToString();
  const Dataset& train = kdd->train;
  const Schema& schema = train.schema();
  const RowSubset rows = train.AllRows();

  size_t non_constant_numeric = 0;
  const auto num_attrs = static_cast<AttrIndex>(schema.num_attributes());
  for (AttrIndex attr = 0; attr < num_attrs; ++attr) {
    if (!schema.attribute(attr).is_numeric()) continue;
    const std::vector<double>& column = train.numeric_column(attr);
    const auto [lo, hi] = std::minmax_element(column.begin(), column.end());
    if (*lo != *hi) ++non_constant_numeric;
  }
  ASSERT_GT(non_constant_numeric, 0u);

  for (size_t threads : {1u, 4u}) {
    PnruleConfig config;
    config.num_threads = threads;
    const PnruleLearner learner(config);
    ConditionSearchEngine engine(train, threads);
    std::vector<std::optional<PnruleClassifier>> own_engine(
        schema.num_classes());
    CategoryId majority = 0;
    for (size_t cls = 0; cls < schema.num_classes(); ++cls) {
      const auto target = static_cast<CategoryId>(cls);
      const size_t count = train.CountClass(target);
      if (count > train.CountClass(majority)) majority = target;
      if (count == 0 || count == train.num_rows()) continue;
      auto alone = learner.TrainOnRows(train, rows, target);
      auto shared = learner.TrainOnRows(engine, rows, target);
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      ASSERT_TRUE(shared.ok()) << shared.status().ToString();
      EXPECT_EQ(SerializePnruleModel(*shared, schema),
                SerializePnruleModel(*alone, schema))
          << "class " << cls << ", " << threads << " threads";
      own_engine[cls] = std::move(alone).value();
    }
    EXPECT_EQ(engine.cache().sort_count(), non_constant_numeric)
        << threads << " threads";

    auto committee = MultiClassPnruleLearner(config).Train(train);
    ASSERT_TRUE(committee.ok()) << committee.status().ToString();
    const MultiClassPnruleClassifier reference(std::move(own_engine), {},
                                               majority);
    EXPECT_EQ(SerializeMultiClassModel(*committee, schema),
              SerializeMultiClassModel(reference, schema))
        << threads << " threads";
  }
}

TEST(MultiClassTest, ModelRoundTripsThroughText) {
  const KddSimData kdd = SmallKdd();
  MultiClassPnruleLearner learner;
  learner.set_class_weights({1.0, 0.5, 2.0, 1.0, 1.0});
  auto committee = learner.Train(kdd.train);
  ASSERT_TRUE(committee.ok());
  const Schema& schema = kdd.train.schema();
  const std::string text = SerializeMultiClassModel(*committee, schema);
  auto parsed = ParseMultiClassModel(text, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeMultiClassModel(*parsed, schema), text);
  EXPECT_EQ(parsed->default_class(), committee->default_class());
  // The round-tripped committee predicts identically.
  for (RowId row = 0; row < 500; ++row) {
    ASSERT_EQ(parsed->Classify(kdd.test, row),
              committee->Classify(kdd.test, row));
  }
}

TEST(MultiClassTest, ParseRejectsMalformedWrappers) {
  const KddSimData kdd = SmallKdd();
  const Schema& schema = kdd.train.schema();
  MultiClassPnruleLearner learner;
  auto committee = learner.Train(kdd.train);
  ASSERT_TRUE(committee.ok());
  const std::string text = SerializeMultiClassModel(*committee, schema);

  EXPECT_FALSE(ParseMultiClassModel("", schema).ok());
  EXPECT_FALSE(ParseMultiClassModel("pnrule-multiclass v9\n", schema).ok());
  // Truncate mid-file: the embedded block's line count no longer adds up.
  EXPECT_FALSE(
      ParseMultiClassModel(text.substr(0, text.size() / 2), schema).ok());
  // Trailing garbage after 'end'.
  EXPECT_FALSE(ParseMultiClassModel(text + "extra\n", schema).ok());
  // Class-count mismatch against the schema.
  Schema two;
  two.AddAttribute(Attribute::Numeric("x"));
  two.GetOrAddClass("a");
  two.GetOrAddClass("b");
  EXPECT_FALSE(ParseMultiClassModel(text, two).ok());
}

}  // namespace
}  // namespace pnr
