// Column-fault budget of PNrule training on a demand-paged dataset.
//
// Every fault decodes a whole column, so on a budget smaller than one
// column the fault count is the cost model of out-of-core training. These
// tests pin the counts the training loop's access patterns promise
// (DESIGN.md §14, "Access-pattern discipline"); all of them are exact and
// deterministic:
//
//   * ScoreMatrix::Build replays its P- and N-list in one pass over the
//     rows, faulting each attribute the lists reference at most once;
//   * once an engine has built its sorted orders, a numeric search over any
//     row subset faults nothing — the cache holds the sorted values and
//     rank maps the search needs;
//   * on such a warm engine the whole N-phase faults nothing: its searches,
//     its rules' coverage, the possible-condition count and every MDL
//     check read the engine's cache, weights and labels only;
//   * a one-vs-rest committee faults each column once for all its classes,
//     plus its ScoreMatrix sweeps, and its ClassifyBatch faults each
//     column its lists reference at most once per row block;
//   * C4.5rules' rule steps (everything after its tree) fault each
//     attribute the tree's rules reference at most once.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "c45/rules.h"
#include "common/rng.h"
#include "induction/condition_search.h"
#include "induction/mdl.h"
#include "pnrule/model_io.h"
#include "pnrule/multiclass.h"
#include "pnrule/n_phase.h"
#include "pnrule/p_phase.h"
#include "pnrule/score_matrix.h"
#include "synth/kdd_sim.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeNumericDataset;

// Four uniform attributes. The target sits in two bands (x0 in [2, 3],
// x1 in [7, 8]) except where x2 < 2 or x3 > 8, so the P-phase finds the
// bands and the N-phase learns absence rules on other attributes. The
// default size spans several 4096-row blocks.
Dataset BandsDataset(size_t num_rows = 10000) {
  Rng rng(4242);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    std::vector<double> x(4);
    for (double& v : x) v = rng.NextDouble(0, 10);
    const bool band = (x[0] >= 2 && x[0] <= 3) || (x[1] >= 7 && x[1] <= 8);
    const bool vetoed = x[2] < 2 || x[3] > 8;
    const bool positive = band && !vetoed ? !rng.NextBool(0.05)
                                          : rng.NextBool(0.01);
    rows.push_back({std::move(x), positive});
  }
  return MakeNumericDataset(4, rows);
}

// A paged view of `in_ram` whose budget holds less than one column, so
// every switch to another column is a fault.
Dataset PagedView(const Dataset& in_ram) {
  return testutil::PagedCopy(in_ram, in_ram.num_rows() * sizeof(double) / 2);
}

size_t DistinctAttrs(const std::vector<const RuleSet*>& lists) {
  std::set<AttrIndex> attrs;
  for (const RuleSet* rules : lists) {
    for (const Rule& rule : rules->rules()) {
      for (const Condition& c : rule.conditions()) attrs.insert(c.attr);
    }
  }
  return attrs.size();
}

size_t DistinctAttrs(const RuleSet& rules) { return DistinctAttrs({&rules}); }

double PosMinusNeg(const RuleStats& stats) {
  return stats.positive - stats.negative();
}

TEST(PagedFaultBudgetTest, ScoreMatrixFaultsEachColumnOnce) {
  const Dataset in_ram = BandsDataset();
  const PnruleConfig config;
  const RowSubset rows = in_ram.AllRows();
  const PPhaseResult p = RunPPhase(in_ram, rows, kPos, config);
  const NPhaseResult n =
      RunNPhase(in_ram, p.covered_rows, kPos, p.total_positive_weight,
                p.covered_positive_weight, config);
  ASSERT_GE(p.rules.size(), 2u);
  ASSERT_GE(n.rules.size(), 1u);
  const ScoreMatrix reference =
      ScoreMatrix::Build(in_ram, rows, kPos, p.rules, n.rules, config);

  const Dataset paged = PagedView(in_ram);
  const uint64_t before = paged.column_fault_count();
  const ScoreMatrix matrix =
      ScoreMatrix::Build(paged, rows, kPos, p.rules, n.rules, config);
  EXPECT_LE(paged.column_fault_count() - before,
            DistinctAttrs({&p.rules, &n.rules}));
  EXPECT_EQ(matrix.ToString(), reference.ToString());
}

TEST(PagedFaultBudgetTest, NumericSearchFaultsOnlyWhileBuildingOrders) {
  // Large enough that a 4-thread engine scans the full rows in parallel,
  // building the orders (and pinning their columns) concurrently.
  const Dataset in_ram = BandsDataset(40000);
  ConditionSearchEngine in_ram_engine(in_ram);
  // A small subset (its column is built by sorting ranks) and a large one
  // (by filtering the sorted order), each searched twice.
  RowSubset small, large;
  for (RowId r = 0; r < in_ram.num_rows(); ++r) {
    if (r % 397 == 0) small.push_back(r);
    if (r % 3 != 0) large.push_back(r);
  }
  for (size_t threads : {1u, 4u}) {
    const Dataset paged = PagedView(in_ram);
    ConditionSearchEngine engine(paged, threads);
    ASSERT_TRUE(engine.FindBest(paged.AllRows(), kPos, PosMinusNeg));
    const uint64_t built = paged.column_fault_count();
    EXPECT_LE(built, paged.schema().num_attributes()) << "one per order";
    for (const RowSubset* rows : {&small, &large, &small, &large}) {
      const auto best = engine.FindBest(*rows, kPos, PosMinusNeg);
      const auto expected = in_ram_engine.FindBest(*rows, kPos, PosMinusNeg);
      ASSERT_TRUE(best.has_value() && expected.has_value());
      EXPECT_EQ(best->condition, expected->condition);
    }
    EXPECT_EQ(paged.column_fault_count(), built) << threads << " threads";
  }
}

TEST(PagedFaultBudgetTest, NPhaseMdlCheckAddsNoFaults) {
  const Dataset in_ram = BandsDataset();
  const PnruleConfig config;
  const PPhaseResult p = RunPPhase(in_ram, in_ram.AllRows(), kPos, config);
  const NPhaseResult reference =
      RunNPhase(in_ram, p.covered_rows, kPos, p.total_positive_weight,
                p.covered_positive_weight, config);

  // The phase under test, on an engine whose orders are already built.
  const Dataset paged = PagedView(in_ram);
  ConditionSearchEngine engine(paged);
  ASSERT_TRUE(engine.FindBest(paged.AllRows(), kPos, PosMinusNeg));
  const uint64_t before = paged.column_fault_count();
  const NPhaseResult n =
      RunNPhase(engine, p.covered_rows, kPos, p.total_positive_weight,
                p.covered_positive_weight, config);
  ASSERT_GE(n.rules.size(), 2u);
  ASSERT_GE(DistinctAttrs(n.rules), 2u);
  EXPECT_EQ(paged.column_fault_count(), before);
  EXPECT_EQ(n.rules.ToString(paged.schema()),
            reference.rules.ToString(in_ram.schema()));
  EXPECT_EQ(n.description_lengths, reference.description_lengths);
}

TEST(PagedFaultBudgetTest, CommitteeFaultsEachColumnOncePlusScoreMatrix) {
  KddSimParams params;
  params.train_records = 3000;
  params.test_records = 1000;
  params.seed = 616;
  auto generated = GenerateKddSim(params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const Dataset& in_ram = generated->train;
  const MultiClassPnruleLearner learner;
  auto reference = learner.Train(in_ram);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Below one categorical column, so every switch of column is a fault.
  const Dataset paged = testutil::PagedCopy(
      in_ram, in_ram.num_rows() * sizeof(CategoryId) / 2);
  auto committee = learner.Train(paged);
  ASSERT_TRUE(committee.ok()) << committee.status().ToString();
  EXPECT_EQ(SerializeMultiClassModel(*committee, paged.schema()),
            SerializeMultiClassModel(*reference, in_ram.schema()));

  // Searches and coverage of every class read the one engine's cache, which
  // reads each column once; only ScoreMatrix::Build goes back to the
  // dataset, once per attribute of each rule list.
  size_t score_matrix_sweeps = 0;
  size_t classes = 0;
  for (size_t cls = 0; cls < committee->num_classes(); ++cls) {
    const PnruleClassifier* model =
        committee->model_for(static_cast<CategoryId>(cls));
    if (model == nullptr) continue;
    ++classes;
    score_matrix_sweeps +=
        DistinctAttrs({&model->p_rules(), &model->n_rules()});
  }
  ASSERT_GE(classes, 3u);
  EXPECT_LE(paged.column_fault_count(),
            paged.schema().num_attributes() + score_matrix_sweeps);
}

TEST(PagedFaultBudgetTest, CommitteeClassifyBatchFaultsEachColumnOncePerBlock) {
  KddSimParams params;
  params.train_records = 3000;
  params.test_records = 1000;
  params.seed = 616;
  auto generated = GenerateKddSim(params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  auto committee = MultiClassPnruleLearner().Train(generated->train);
  ASSERT_TRUE(committee.ok()) << committee.status().ToString();
  std::vector<const RuleSet*> lists;
  for (size_t cls = 0; cls < committee->num_classes(); ++cls) {
    const PnruleClassifier* model =
        committee->model_for(static_cast<CategoryId>(cls));
    if (model == nullptr) continue;
    lists.push_back(&model->p_rules());
    lists.push_back(&model->n_rules());
  }
  const size_t referenced = DistinctAttrs(lists);
  ASSERT_GE(referenced, 3u);

  const Dataset& in_ram = generated->test;
  std::vector<RowId> rows(in_ram.num_rows());
  for (RowId r = 0; r < in_ram.num_rows(); ++r) {
    rows[r] = (r * 389) % in_ram.num_rows();  // scattered: the gather path
  }
  BatchScoreOptions options;
  options.block_size = 128;
  const size_t blocks = (rows.size() + options.block_size - 1) /
                        options.block_size;
  std::vector<CategoryId> expected(rows.size());
  committee->ClassifyBatch(in_ram, rows.data(), rows.size(), expected.data(),
                           options);

  // Below one categorical column, so every switch of column is a fault.
  const Dataset paged = testutil::PagedCopy(
      in_ram, in_ram.num_rows() * sizeof(CategoryId) / 2);
  std::vector<CategoryId> predicted(rows.size());
  const uint64_t before = paged.column_fault_count();
  committee->ClassifyBatch(paged, rows.data(), rows.size(), predicted.data(),
                           options);
  EXPECT_EQ(predicted, expected);
  // Every class's P- and N-list share the block's condition masks, so each
  // referenced column faults at most once per block for the committee.
  EXPECT_LE(paged.column_fault_count() - before, blocks * referenced);
}

TEST(PagedFaultBudgetTest, C45RulesStepsFaultEachRuleColumnOnce) {
  KddSimParams params;
  params.train_records = 2000;
  params.test_records = 1000;
  params.seed = 515;
  auto generated = GenerateKddSim(params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const Dataset& in_ram = generated->train;
  const CategoryId target =
      in_ram.schema().class_attr().FindCategory("probe");
  const C45RulesLearner learner;
  auto reference = learner.Train(in_ram, target);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Below one categorical column, so every switch of column is a fault.
  const size_t budget = in_ram.num_rows() * sizeof(CategoryId) / 2;
  const Dataset paged = testutil::PagedCopy(in_ram, budget);
  auto model = learner.Train(paged, target);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const uint64_t faults = paged.column_fault_count();
  EXPECT_EQ(model->Describe(paged.schema()),
            reference->Describe(in_ram.schema()));

  // Replay, on a fresh view, what the learner does before its rule steps:
  // the possible-condition count and the unpruned tree.
  const Dataset replay = testutil::PagedCopy(in_ram, budget);
  CountPossibleConditions(replay);
  C45Config tree_config = learner.config().tree;
  tree_config.prune = false;
  auto tree = BuildC45Tree(replay, replay.AllRows(), tree_config);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const uint64_t tree_faults = replay.column_fault_count();
  RuleSet leaf_rules;
  for (const auto& entry : ExtractTreeRules(
           *tree, replay.schema(), learner.config().max_initial_rules)) {
    leaf_rules.AddRule(entry.rule);
  }
  ASSERT_GE(DistinctAttrs(leaf_rules), 3u);
  EXPECT_LE(faults - tree_faults, DistinctAttrs(leaf_rules));
}

}  // namespace
}  // namespace pnr
