// Batch-vs-row equivalence of the compiled scoring engine: for every model
// family the ScoreBatch/PredictBatch fast paths must be *bitwise* identical
// to the per-row Score/Predict calls, for any thread count and block size.
// Also covers the engine's edge cases (empty rule sets, all-missing
// categorical columns, non-default thresholds), the compiled replay inside
// ScoreMatrix::Build, scattered row orders (the gather-once path) and the
// one-vs-rest committee's one-program ClassifyBatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "assoc/cba.h"
#include "c45/rules.h"
#include "c45/tree_classifier.h"
#include "common/rng.h"
#include "pnrule/multiclass.h"
#include "pnrule/pnrule.h"
#include "pnrule/score_matrix.h"
#include "ripper/ripper.h"
#include "synth/kdd_sim.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::MakeMixedDataset;

const KddSimData& SharedKdd() {
  static const KddSimData data = [] {
    KddSimParams params;
    params.train_records = 3000;
    params.test_records = 1500;
    params.seed = 913;
    auto generated = GenerateKddSim(params);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    return std::move(generated).value();
  }();
  return data;
}

CategoryId KddTarget() {
  const CategoryId target =
      SharedKdd().train.schema().class_attr().FindCategory("probe");
  EXPECT_NE(target, kInvalidCategory);
  return target;
}

std::vector<RowId> AllRowIds(const Dataset& dataset) {
  std::vector<RowId> rows(dataset.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  return rows;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Scores + predictions of the batch engine under `options`.
struct BatchResult {
  std::vector<double> scores;
  std::vector<uint8_t> predicted;
};

BatchResult RunBatch(const BinaryClassifier& model, const Dataset& dataset,
                     const BatchScoreOptions& options) {
  const std::vector<RowId> rows = AllRowIds(dataset);
  BatchResult result;
  result.scores.resize(rows.size());
  result.predicted.resize(rows.size());
  model.ScoreBatch(dataset, rows.data(), rows.size(), result.scores.data(),
                   options);
  model.PredictBatch(dataset, rows.data(), rows.size(),
                     result.predicted.data(), options);
  return result;
}

// Asserts batch == row-at-a-time, bitwise, for threads 1/2/8 and a block
// size small enough to exercise multi-block paths on the kdd test set.
void ExpectBatchMatchesRows(const BinaryClassifier& model,
                            const Dataset& dataset) {
  const std::vector<RowId> rows = AllRowIds(dataset);
  std::vector<double> row_scores(rows.size());
  std::vector<uint8_t> row_predicted(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    row_scores[i] = model.Score(dataset, rows[i]);
    row_predicted[i] = model.Predict(dataset, rows[i]) ? 1 : 0;
  }

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (const size_t block_size : {size_t{4096}, size_t{64}}) {
      BatchScoreOptions options;
      options.num_threads = threads;
      options.block_size = block_size;
      const BatchResult batch = RunBatch(model, dataset, options);
      EXPECT_TRUE(BitIdentical(batch.scores, row_scores))
          << "scores diverged at threads=" << threads
          << " block_size=" << block_size;
      EXPECT_EQ(batch.predicted, row_predicted)
          << "predictions diverged at threads=" << threads
          << " block_size=" << block_size;
    }
  }
}

TEST(BatchScoreTest, PnruleBatchMatchesRowPath) {
  const KddSimData& data = SharedKdd();
  auto model = PnruleLearner().Train(data.train, KddTarget());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectBatchMatchesRows(*model, data.test);
}

TEST(BatchScoreTest, RipperBatchMatchesRowPath) {
  const KddSimData& data = SharedKdd();
  auto model = RipperLearner().Train(data.train, KddTarget());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectBatchMatchesRows(*model, data.test);
}

TEST(BatchScoreTest, C45TreeBatchMatchesRowPath) {
  const KddSimData& data = SharedKdd();
  auto model = C45TreeLearner().Train(data.train, KddTarget());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectBatchMatchesRows(*model, data.test);
}

TEST(BatchScoreTest, C45RulesBatchMatchesRowPath) {
  const KddSimData& data = SharedKdd();
  auto model = C45RulesLearner().Train(data.train, KddTarget());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectBatchMatchesRows(*model, data.test);
}

TEST(BatchScoreTest, ScoresAreBitIdenticalAcrossThreadCounts) {
  const KddSimData& data = SharedKdd();
  auto model = PnruleLearner().Train(data.train, KddTarget());
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  BatchScoreOptions serial;
  serial.num_threads = 1;
  serial.block_size = 128;  // many blocks, so scheduling could matter
  const BatchResult reference = RunBatch(*model, data.test, serial);
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    BatchScoreOptions options = serial;
    options.num_threads = threads;
    const BatchResult got = RunBatch(*model, data.test, options);
    EXPECT_TRUE(BitIdentical(got.scores, reference.scores))
        << threads << " threads diverged";
    EXPECT_EQ(got.predicted, reference.predicted)
        << threads << " threads diverged";
  }
}

TEST(BatchScoreTest, PredictCsvIsByteIdenticalAcrossThreadCounts) {
  // The exact property `pnr predict --threads n` relies on: the formatted
  // row,score,predicted output must not depend on the thread count.
  const KddSimData& data = SharedKdd();
  auto model = PnruleLearner().Train(data.train, KddTarget());
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  auto render = [&](size_t threads) {
    BatchScoreOptions options;
    options.num_threads = threads;
    const BatchResult batch = RunBatch(*model, data.test, options);
    std::string csv = "row,score,predicted\n";
    char line[64];
    for (size_t i = 0; i < batch.scores.size(); ++i) {
      std::snprintf(line, sizeof(line), "%u,%.6f,%d\n",
                    static_cast<RowId>(i), batch.scores[i],
                    batch.predicted[i] ? 1 : 0);
      csv += line;
    }
    return csv;
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(2));
  EXPECT_EQ(serial, render(8));
}

TEST(BatchScoreTest, EmptyPnruleRuleSetsScoreZero) {
  const Dataset dataset =
      MakeMixedDataset({{1.0, 0, false}, {2.0, 1, true}, {3.0, 2, false}});
  const PnruleClassifier model(RuleSet(), RuleSet(), ScoreMatrix(),
                               /*use_score_matrix=*/true);
  ExpectBatchMatchesRows(model, dataset);
  const BatchResult batch = RunBatch(model, dataset, {});
  for (const double score : batch.scores) EXPECT_EQ(score, 0.0);
}

TEST(BatchScoreTest, EmptyRipperRuleSetScoresZero) {
  const Dataset dataset = MakeMixedDataset({{1.0, 0, true}, {2.0, 1, false}});
  const RipperClassifier model{RuleSet()};
  ExpectBatchMatchesRows(model, dataset);
  const BatchResult batch = RunBatch(model, dataset, {});
  for (const double score : batch.scores) EXPECT_EQ(score, 0.0);
}

TEST(BatchScoreTest, AllMissingCategoricalColumnNeverMatches) {
  Dataset dataset = MakeMixedDataset(
      {{1.0, 0, true}, {2.0, 1, false}, {3.0, 2, true}, {4.0, 0, false}});
  for (RowId row = 0; row < dataset.num_rows(); ++row) {
    dataset.set_categorical(row, 1, kInvalidCategory);
  }
  Rule rule;
  rule.AddCondition(Condition::CatEqual(1, 0));
  RuleSet rules;
  rules.AddRule(rule);
  const RipperClassifier model{rules};
  ExpectBatchMatchesRows(model, dataset);
  const BatchResult batch = RunBatch(model, dataset, {});
  for (const double score : batch.scores) EXPECT_EQ(score, 0.0);
}

TEST(BatchScoreTest, PredictBatchHonorsNonDefaultThreshold) {
  const KddSimData& data = SharedKdd();
  auto trained = PnruleLearner().Train(data.train, KddTarget());
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  PnruleClassifier model = std::move(trained).value();
  for (const double threshold : {0.0, 0.25, 0.9, 1.0}) {
    model.set_threshold(threshold);
    ExpectBatchMatchesRows(model, data.test);
  }
}

TEST(BatchScoreTest, ScoreMatrixBuildMatchesInterpretedReplay) {
  // ScoreMatrix::Build replays the rule lists through the compiled matcher;
  // every cell weight must equal a hand-interpreted first-match replay.
  const KddSimData& data = SharedKdd();
  const CategoryId target = KddTarget();
  auto model = PnruleLearner().Train(data.train, target);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const RuleSet& p_rules = model->p_rules();
  const RuleSet& n_rules = model->n_rules();
  ASSERT_FALSE(p_rules.empty());

  const RowSubset rows = data.train.AllRows();
  const ScoreMatrix built = ScoreMatrix::Build(
      data.train, rows, target, p_rules, n_rules, PnruleConfig());

  const size_t num_n = n_rules.size();
  std::vector<double> cell_weight(p_rules.size() * (num_n + 1), 0.0);
  for (const RowId row : rows) {
    const int p = p_rules.FirstMatch(data.train, row);
    if (p == kNoRule) continue;
    const int n = n_rules.FirstMatch(data.train, row);
    const size_t n_index = n == kNoRule ? num_n : static_cast<size_t>(n);
    cell_weight[static_cast<size_t>(p) * (num_n + 1) + n_index] +=
        data.train.weight(row);
  }
  for (size_t p = 0; p < p_rules.size(); ++p) {
    for (size_t n = 0; n <= num_n; ++n) {
      EXPECT_DOUBLE_EQ(built.CellWeight(p, n),
                       cell_weight[p * (num_n + 1) + n])
          << "cell (" << p << ", " << n << ")";
    }
  }
}

// Row orders a batch caller may pass: in order, shuffled, reversed, and
// every row twice with the copies interleaved out of order.
std::vector<std::pair<std::string, std::vector<RowId>>> RowOrders(
    const Dataset& dataset) {
  const std::vector<RowId> in_order = AllRowIds(dataset);
  std::vector<RowId> shuffled = in_order;
  Rng rng(4711);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
  }
  std::vector<RowId> reversed(in_order.rbegin(), in_order.rend());
  std::vector<RowId> duplicated;
  for (size_t i = 0; i < shuffled.size(); ++i) {
    duplicated.push_back(shuffled[i]);
    duplicated.push_back(in_order[i]);
  }
  return {{"in order", in_order},
          {"shuffled", shuffled},
          {"reversed", reversed},
          {"duplicated", duplicated}};
}

// Single models score scattered rows (gathered once per block and
// attribute) exactly as they score the same rows in order.
TEST(BatchScoreTest, ScatteredRowsScoreAsInOrderPermuted) {
  const KddSimData& data = SharedKdd();
  const CategoryId target = KddTarget();
  auto pnrule = PnruleLearner().Train(data.train, target);
  auto ripper = RipperLearner().Train(data.train, target);
  auto c45_rules = C45RulesLearner().Train(data.train, target);
  auto cba = MineCba(data.train, data.train.AllRows(), target,
                     AssocMineOptions());
  ASSERT_TRUE(pnrule.ok() && ripper.ok() && c45_rules.ok() && cba.ok());
  const std::vector<std::pair<std::string, const BinaryClassifier*>> models =
      {{"pnrule", &*pnrule},
       {"ripper", &*ripper},
       {"c45rules", &*c45_rules},
       {"cba", &cba->model}};
  for (const auto& [name, model] : models) {
    const std::vector<double> reference =
        model->ScoreRows(data.test, data.test.AllRows());
    for (const auto& [order, rows] : RowOrders(data.test)) {
      for (const size_t block_size : {size_t{64}, size_t{4096}}) {
        BatchScoreOptions options;
        options.block_size = block_size;
        std::vector<double> scores(rows.size());
        model->ScoreBatch(data.test, rows.data(), rows.size(), scores.data(),
                          options);
        std::vector<double> expected(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          expected[i] = reference[rows[i]];
        }
        EXPECT_TRUE(BitIdentical(scores, expected))
            << name << ", " << order << ", block_size=" << block_size;
      }
    }
  }
}

// A kdd committee with every special case ClassifyBatch must honour: a
// zero-weight class, an absent class (no model) and a class whose N-list
// is empty.
MultiClassPnruleClassifier EdgeCaseCommittee() {
  const KddSimData& data = SharedKdd();
  const Schema& schema = data.train.schema();
  auto trained = MultiClassPnruleLearner().Train(data.train);
  EXPECT_TRUE(trained.ok()) << trained.status().ToString();
  const size_t num_classes = trained->num_classes();
  std::vector<std::optional<PnruleClassifier>> models(num_classes);
  for (size_t cls = 0; cls < num_classes; ++cls) {
    const PnruleClassifier* model =
        trained->model_for(static_cast<CategoryId>(cls));
    if (model != nullptr) models[cls].emplace(*model);
  }
  const auto id = [&](const char* name) {
    const CategoryId cls = schema.class_attr().FindCategory(name);
    EXPECT_NE(cls, kInvalidCategory) << name;
    return static_cast<size_t>(cls);
  };
  models[id("u2r")].reset();
  const size_t probe = id("probe");
  EXPECT_TRUE(models[probe].has_value());
  EXPECT_FALSE(models[probe]->n_rules().empty());
  const RuleSet p_rules = models[probe]->p_rules();
  const PnruleConfig config;
  ScoreMatrix scores =
      ScoreMatrix::Build(data.train, data.train.AllRows(),
                         static_cast<CategoryId>(probe), p_rules, RuleSet(),
                         config);
  models[probe].emplace(p_rules, RuleSet(), std::move(scores),
                        config.use_score_matrix);
  std::vector<double> weights(num_classes, 1.0);
  weights[id("dos")] = 0.0;
  weights[id("r2l")] = 2.5;
  return MultiClassPnruleClassifier(std::move(models), std::move(weights),
                                    trained->default_class());
}

// The committee's one-program ClassifyBatch equals per-row Classify for
// every row order, block size, thread count and residency.
TEST(BatchScoreTest, CommitteeClassifyBatchMatchesClassify) {
  const KddSimData& data = SharedKdd();
  const MultiClassPnruleClassifier committee = EdgeCaseCommittee();
  ASSERT_NE(data.test.num_rows() % 64, 0u);
  std::vector<CategoryId> per_row(data.test.num_rows());
  for (RowId row = 0; row < data.test.num_rows(); ++row) {
    per_row[row] = committee.Classify(data.test, row);
  }
  // Every committee case must be live: some row goes to each of several
  // classes, and to the default.
  std::vector<size_t> votes(committee.num_classes() + 1, 0);
  for (const CategoryId cls : per_row) ++votes[static_cast<size_t>(cls)];
  EXPECT_GE(std::count_if(votes.begin(), votes.end(),
                          [](size_t v) { return v > 0; }),
            3);

  // Tight: below one categorical column, so every column switch faults.
  const Dataset paged = testutil::PagedCopy(
      data.test, data.test.num_rows() * sizeof(CategoryId) / 2);
  for (const Dataset* dataset : {&data.test, &paged}) {
    for (const auto& [order, rows] : RowOrders(data.test)) {
      std::vector<CategoryId> expected(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) expected[i] = per_row[rows[i]];
      for (const size_t block_size :
           {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{4096}}) {
        for (const size_t threads : {size_t{1}, size_t{4}}) {
          BatchScoreOptions options;
          options.block_size = block_size;
          options.num_threads = threads;
          std::vector<CategoryId> batched(rows.size(), kInvalidCategory);
          committee.ClassifyBatch(*dataset, rows.data(), rows.size(),
                                  batched.data(), options);
          EXPECT_EQ(batched, expected)
              << (dataset->paged() ? "paged, " : "in RAM, ") << order
              << ", block_size=" << block_size << ", threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pnr
