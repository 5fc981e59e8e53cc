// Out-of-core / parallel training determinism: the whole point of the
// shard-store pipeline is that models are *byte-identical* no matter how
// the data is sharded, how it is paged, or how many threads train — so
// every test here compares canonical serializations for equality.
//
//   * {1, 2, 8} search threads x {1, 2, 4} shards x {PNrule, RIPPER,
//     C4.5rules}: one serialization per learner across the whole matrix.
//   * In-RAM vs demand-paged (working set capped far below the dataset):
//     bitwise-equal PNrule and multiclass models.
//   * Parallel one-vs-rest at {1, 2, 8} class-threads: bitwise-equal
//     committees, also when every class task asks for 8 search threads
//     of its own (nested fan-outs run inline).
//   * Zonemap pruning: constant numeric columns are skipped without
//     changing the model.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "c45/rules.h"
#include "data/shard_store.h"
#include "induction/condition_search.h"
#include "pnrule/model_io.h"
#include "pnrule/multiclass.h"
#include "pnrule/pnrule.h"
#include "ripper/ripper.h"
#include "synth/kdd_sim.h"

namespace pnr {
namespace {

const Dataset& SharedTrain() {
  static const Dataset train = [] {
    KddSimParams params;
    params.train_records = 4000;
    params.test_records = 1000;
    params.seed = 913;
    auto generated = GenerateKddSim(params);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    return std::move(generated).value().train;
  }();
  return train;
}

CategoryId Target(const Dataset& data, const char* name) {
  const CategoryId target = data.schema().class_attr().FindCategory(name);
  EXPECT_NE(target, kInvalidCategory);
  return target;
}

// The shared training split, round-tripped through an n-shard store.
Dataset ShardedTrain(uint32_t num_shards) {
  ShardStoreWriteOptions options;
  options.num_shards = num_shards;
  auto bytes = SerializeShardStore(SharedTrain(), options);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto reader =
      ShardStoreReader::OpenBuffer(std::move(bytes).value(), "train.pns");
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  auto loaded = (*reader)->LoadDataset();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

std::string PnruleModel(const Dataset& data, size_t threads) {
  PnruleConfig config;
  config.num_threads = threads;
  auto model = PnruleLearner(config).Train(data, Target(data, "probe"));
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return SerializePnruleModel(*model, data.schema());
}

std::string RipperModel(const Dataset& data, size_t threads) {
  RipperConfig config;
  config.num_threads = threads;
  auto model = RipperLearner(config).Train(data, Target(data, "probe"));
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return model->Describe(data.schema());
}

std::string C45RulesModel(const Dataset& data, size_t threads) {
  C45RulesConfig config;
  config.tree.num_threads = threads;
  auto model = C45RulesLearner(config).Train(data, Target(data, "probe"));
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return model->Describe(data.schema());
}

TEST(TrainShardedTest, ThreadByShardMatrixIsByteIdentical) {
  const std::string pnrule_ref = PnruleModel(SharedTrain(), 1);
  const std::string ripper_ref = RipperModel(SharedTrain(), 1);
  const std::string c45_ref = C45RulesModel(SharedTrain(), 1);
  EXPECT_FALSE(pnrule_ref.empty());
  for (uint32_t shards : {1u, 2u, 4u}) {
    const Dataset data = ShardedTrain(shards);
    for (size_t threads : {1u, 2u, 8u}) {
      EXPECT_EQ(PnruleModel(data, threads), pnrule_ref)
          << "pnrule threads=" << threads << " shards=" << shards;
      EXPECT_EQ(RipperModel(data, threads), ripper_ref)
          << "ripper threads=" << threads << " shards=" << shards;
      EXPECT_EQ(C45RulesModel(data, threads), c45_ref)
          << "c45rules threads=" << threads << " shards=" << shards;
    }
  }
}

// Demand-paged training with the working set capped far below the dataset:
// the paged run must produce the very same bytes as the in-RAM run while
// actually spilling (evictions observed, peak residency bounded).
TEST(TrainShardedTest, OutOfCoreTrainingIsBitwiseIdentical) {
  ShardStoreWriteOptions options;
  options.num_shards = 4;
  auto bytes = SerializeShardStore(SharedTrain(), options);
  ASSERT_TRUE(bytes.ok());
  auto reader =
      ShardStoreReader::OpenBuffer(std::move(bytes).value(), "train.pns");
  ASSERT_TRUE(reader.ok());
  const size_t column_bytes = (*reader)->column_bytes();
  const size_t budget = column_bytes / 8;  // well below the full columns
  auto paged = MakePagedDataset(*reader, budget);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  PnruleConfig config;
  config.search_cache_budget_bytes = budget;
  auto model = PnruleLearner(config).Train(*paged, Target(*paged, "probe"));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(SerializePnruleModel(*model, paged->schema()),
            PnruleModel(SharedTrain(), 1));

  EXPECT_GT(paged->column_evict_count(), 0u) << "budget never forced a spill";
  // The pager may briefly hold budget + the faulting column before
  // evicting back down; anything above that means the cap leaked.
  EXPECT_LE(paged->peak_resident_column_bytes(),
            budget + SharedTrain().num_rows() * sizeof(double));
}

std::string MultiClassModel(const Dataset& data, size_t train_threads,
                            size_t search_threads = 1) {
  PnruleConfig config;
  config.num_threads = search_threads;
  MultiClassPnruleLearner learner(config);
  learner.set_train_threads(train_threads);
  MultiClassTrainReport report;
  auto model = learner.Train(data, &report);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(report.classes.size(), data.schema().num_classes());
  EXPECT_GT(report.trained, 0u);
  return SerializeMultiClassModel(*model, data.schema());
}

TEST(TrainShardedTest, ParallelOneVsRestIsByteIdentical) {
  const std::string reference = MultiClassModel(SharedTrain(), 1);
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(MultiClassModel(SharedTrain(), threads), reference)
        << "train_threads=" << threads;
  }
  // Sharded input, parallel classes: still the same bytes.
  EXPECT_EQ(MultiClassModel(ShardedTrain(4), 8), reference);
}

TEST(TrainShardedTest, OutOfCoreParallelOneVsRestIsByteIdentical) {
  ShardStoreWriteOptions options;
  options.num_shards = 4;
  auto bytes = SerializeShardStore(SharedTrain(), options);
  ASSERT_TRUE(bytes.ok());
  auto reader =
      ShardStoreReader::OpenBuffer(std::move(bytes).value(), "train.pns");
  ASSERT_TRUE(reader.ok());
  auto paged = MakePagedDataset(*reader, (*reader)->column_bytes() / 8);
  ASSERT_TRUE(paged.ok());
  // Each class task clones its own paged view, so the parallel run works
  // the shared reader from several learners at once.
  EXPECT_EQ(MultiClassModel(*paged, 8), MultiClassModel(SharedTrain(), 1));
}

// Class tasks that each ask for 8 search threads build their engines
// inside a loop body, so those searches run inline — and whatever width
// they run at, the committee's bytes never change.
TEST(TrainShardedTest, NestedSearchThreadsAreByteIdentical) {
  EXPECT_EQ(MultiClassModel(SharedTrain(), 8, 8),
            MultiClassModel(SharedTrain(), 1));
}

TEST(TrainShardedTest, TrainReportAccountsForEveryClass) {
  MultiClassPnruleLearner learner{PnruleConfig{}};
  MultiClassTrainReport report;
  auto model = learner.Train(SharedTrain(), &report);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_EQ(report.classes.size(), SharedTrain().schema().num_classes());
  size_t ok_classes = 0;
  size_t total_rows = 0;
  for (const ClassTrainStatus& entry : report.classes) {
    EXPECT_FALSE(entry.class_name.empty());
    total_rows += entry.rows;
    if (entry.status.ok()) {
      ++ok_classes;
      EXPECT_GT(entry.num_p_rules, 0u) << entry.class_name;
    } else {
      // Skipped classes carry a reason, and the committee has no model.
      EXPECT_FALSE(entry.status.message().empty());
      EXPECT_EQ(model->model_for(entry.cls), nullptr);
    }
  }
  EXPECT_EQ(ok_classes, report.trained);
  EXPECT_EQ(total_rows, SharedTrain().num_rows());
}

// Zonemap pruning: constant numeric columns are provably cut-free, so the
// engine skips them — counted, and without changing the chosen conditions.
TEST(TrainShardedTest, ZonemapPruningSkipsConstantColumns) {
  const Dataset& base = SharedTrain();
  Schema schema = base.schema();
  const AttrIndex flat = schema.AddAttribute(Attribute::Numeric("flat_pad"));
  Dataset padded(std::move(schema));
  padded.AppendRows(base.num_rows());
  for (RowId row = 0; row < base.num_rows(); ++row) {
    const auto num_attrs =
        static_cast<AttrIndex>(base.schema().num_attributes());
    for (AttrIndex attr = 0; attr < num_attrs; ++attr) {
      if (base.schema().attribute(attr).is_numeric()) {
        padded.set_numeric(row, attr, base.numeric(row, attr));
      } else {
        padded.set_categorical(row, attr, base.categorical(row, attr));
      }
    }
    padded.set_numeric(row, flat, 1.5);
    padded.set_label(row, base.label(row));
  }
  ShardStoreWriteOptions options;
  options.num_shards = 2;
  auto bytes = SerializeShardStore(padded, options);
  ASSERT_TRUE(bytes.ok());
  auto reader =
      ShardStoreReader::OpenBuffer(std::move(bytes).value(), "pad.pns");
  ASSERT_TRUE(reader.ok());
  auto loaded = (*reader)->LoadDataset();
  ASSERT_TRUE(loaded.ok());
  ASSERT_FALSE(loaded->numeric_range_hints().empty());

  ConditionSearchEngine hinted(*loaded);
  ConditionSearchEngine plain(SharedTrain());
  const CategoryId target = Target(*loaded, "probe");
  const auto scorer = [](const RuleStats& stats) { return stats.positive; };
  const auto best_hinted = hinted.FindBest(loaded->AllRows(), target, scorer);
  const auto best_plain = plain.FindBest(SharedTrain().AllRows(), target,
                                         scorer);
  EXPECT_GT(hinted.pruned_attr_scans(), 0u);
  EXPECT_EQ(plain.pruned_attr_scans(), 0u);
  ASSERT_TRUE(best_hinted.has_value());
  ASSERT_TRUE(best_plain.has_value());
  EXPECT_EQ(best_hinted->condition.attr, best_plain->condition.attr);
  EXPECT_EQ(best_hinted->value, best_plain->value);
}

}  // namespace
}  // namespace pnr
