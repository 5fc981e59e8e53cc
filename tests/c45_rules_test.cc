#include "c45/rules.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "eval/metrics.h"
#include "synth/kdd_sim.h"
#include "synth/sweep.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeNumericDataset;

TEST(C45RulesConfigTest, Validation) {
  EXPECT_TRUE(C45RulesConfig().Validate().ok());
  C45RulesConfig config;
  config.cf = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = C45RulesConfig();
  config.max_initial_rules = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = C45RulesConfig();
  config.tree.min_objs = -1.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ExtractTreeRulesTest, OneRulePerLeafWithPathConditions) {
  // Hand-build a small tree: root splits x0 at 5; right child splits x0 at
  // 7 (tests same-attribute bound merging).
  DecisionTree tree;
  tree.set_num_classes(2);
  TreeNode leaf_low;
  leaf_low.is_leaf = true;
  leaf_low.predicted_class = 0;
  leaf_low.total_weight = 10.0;
  leaf_low.class_weights = {10.0, 0.0};
  TreeNode leaf_mid = leaf_low;
  leaf_mid.predicted_class = 1;
  leaf_mid.class_weights = {0.0, 10.0};
  TreeNode leaf_high = leaf_low;
  const int32_t low = tree.AddNode(leaf_low);
  const int32_t mid = tree.AddNode(leaf_mid);
  const int32_t high = tree.AddNode(leaf_high);
  TreeNode right;
  right.is_leaf = false;
  right.attr = 0;
  right.threshold = 7.0;
  right.children = {mid, high};
  right.total_weight = 20.0;
  right.class_weights = {10.0, 10.0};
  const int32_t right_id = tree.AddNode(right);
  TreeNode root = right;
  root.threshold = 5.0;
  root.children = {low, right_id};
  const int32_t root_id = tree.AddNode(root);
  tree.set_root(root_id);

  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x0"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  const auto rules = ExtractTreeRules(tree, schema, 100);
  ASSERT_EQ(rules.size(), 3u);
  // The (5, 7] path must merge into Greater(5) AND LessEqual(7).
  bool found_mid = false;
  for (const auto& entry : rules) {
    if (entry.cls != 1) continue;
    found_mid = true;
    ASSERT_EQ(entry.rule.size(), 2u);
    EXPECT_EQ(entry.rule.conditions()[0], Condition::Greater(0, 5.0));
    EXPECT_EQ(entry.rule.conditions()[1], Condition::LessEqual(0, 7.0));
  }
  EXPECT_TRUE(found_mid);
}

TEST(ExtractTreeRulesTest, MergesToTightestBound) {
  // Root: x0 <= 8; child: x0 <= 3 -> the leftmost path keeps only <= 3.
  DecisionTree tree;
  tree.set_num_classes(2);
  TreeNode leaf;
  leaf.is_leaf = true;
  leaf.total_weight = 5.0;
  leaf.class_weights = {5.0, 0.0};
  const int32_t l0 = tree.AddNode(leaf);
  const int32_t l1 = tree.AddNode(leaf);
  const int32_t l2 = tree.AddNode(leaf);
  TreeNode inner;
  inner.is_leaf = false;
  inner.attr = 0;
  inner.threshold = 3.0;
  inner.children = {l0, l1};
  inner.total_weight = 10.0;
  inner.class_weights = {10.0, 0.0};
  const int32_t inner_id = tree.AddNode(inner);
  TreeNode root = inner;
  root.threshold = 8.0;
  root.children = {inner_id, l2};
  tree.set_root(tree.AddNode(root));

  Schema schema;
  schema.AddAttribute(Attribute::Numeric("x0"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  const auto rules = ExtractTreeRules(tree, schema, 100);
  ASSERT_EQ(rules.size(), 3u);
  bool found = false;
  for (const auto& entry : rules) {
    if (entry.rule.size() == 1 &&
        entry.rule.conditions()[0] == Condition::LessEqual(0, 3.0)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(C45RulesLearnerTest, LearnsSeparableConcept) {
  Rng rng(66);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.NextDouble(0, 10);
    const double b = rng.NextDouble(0, 10);
    rows.push_back({{a, b}, a > 7.0 && b < 3.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  C45RulesLearner learner;
  auto model = learner.Train(dataset, kPos);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Confusion eval = EvaluateClassifier(*model, dataset, kPos);
  EXPECT_GT(eval.f_measure(), 0.9) << eval.ToString();
}

TEST(C45RulesLearnerTest, GeneralizationSimplifiesRules) {
  // Noisy irrelevant attribute x1: paths will condition on it, but
  // generalization should strip most of those conditions.
  Rng rng(67);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 1500; ++i) {
    const double a = rng.NextDouble(0, 10);
    rows.push_back({{a, rng.NextDouble(0, 10)}, a > 8.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  C45RulesLearner learner;
  auto model = learner.Train(dataset, kPos);
  ASSERT_TRUE(model.ok());
  // Rules for the positive class should be single-condition (x0 > ~8).
  for (const auto& entry : model->rules()) {
    if (entry.cls == kPos) {
      EXPECT_LE(entry.rule.size(), 2u)
          << entry.rule.ToString(dataset.schema());
    }
  }
}

TEST(C45RulesLearnerTest, DefaultClassCoversUncovered) {
  const Dataset dataset = MakeNumericDataset(
      1, {{{1.0}, false}, {{2.0}, false}, {{3.0}, false}, {{4.0}, false}});
  C45RulesLearner learner;
  auto model = learner.Train(dataset, kPos);
  ASSERT_TRUE(model.ok());
  // All-negative data: the default must be the negative class.
  EXPECT_EQ(model->default_class(), 0);
  EXPECT_FALSE(model->Predict(dataset, 0));
}

TEST(C45RulesLearnerTest, RareClassEndToEnd) {
  const TrainTestPair data = MakeNumericPair(NsynParams(1), 20000, 8000, 41);
  const CategoryId target =
      data.train.schema().class_attr().FindCategory("C");
  C45RulesLearner learner;
  auto model = learner.Train(data.train, target);
  ASSERT_TRUE(model.ok());
  const Confusion test = EvaluateClassifier(*model, data.test, target);
  EXPECT_GT(test.f_measure(), 0.4) << test.ToString();
  const std::string text = model->Describe(data.train.schema());
  EXPECT_NE(text.find("default:"), std::string::npos);
}

TEST(C45RulesLearnerTest, ScoresAreProbabilities) {
  const TrainTestPair data = MakeNumericPair(NsynParams(1), 5000, 2000, 42);
  const CategoryId target =
      data.train.schema().class_attr().FindCategory("C");
  C45RulesLearner learner;
  auto model = learner.Train(data.train, target);
  ASSERT_TRUE(model.ok());
  for (RowId row = 0; row < 500; ++row) {
    const double score = model->Score(data.test, row);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}


TEST(ExtractTreeRulesTest, CategoricalBranchesBecomeEqualityConditions) {
  // Root splits on a 3-valued categorical attribute; every branch becomes
  // one rule with a CatEqual condition for its value.
  DecisionTree tree;
  tree.set_num_classes(2);
  TreeNode leaf;
  leaf.is_leaf = true;
  leaf.total_weight = 5.0;
  leaf.class_weights = {5.0, 0.0};
  TreeNode pos_leaf = leaf;
  pos_leaf.predicted_class = 1;
  pos_leaf.class_weights = {0.0, 5.0};
  const int32_t l0 = tree.AddNode(leaf);
  const int32_t l1 = tree.AddNode(pos_leaf);
  const int32_t l2 = tree.AddNode(leaf);
  TreeNode root;
  root.is_leaf = false;
  root.attr = 0;
  root.children = {l0, l1, l2};
  root.total_weight = 15.0;
  root.class_weights = {10.0, 5.0};
  tree.set_root(tree.AddNode(root));

  Schema schema;
  schema.AddAttribute(Attribute::Categorical("color", {"r", "g", "b"}));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  const auto rules = ExtractTreeRules(tree, schema, 100);
  ASSERT_EQ(rules.size(), 3u);
  bool found_pos = false;
  for (const auto& entry : rules) {
    ASSERT_EQ(entry.rule.size(), 1u);
    EXPECT_EQ(entry.rule.conditions()[0].op, ConditionOp::kCatEqual);
    if (entry.cls == 1) {
      found_pos = true;
      EXPECT_EQ(entry.rule.conditions()[0].category, 1);  // "g"
    }
  }
  EXPECT_TRUE(found_pos);
}

TEST(ExtractTreeRulesTest, RespectsRuleCap) {
  // A numeric chain of depth 4 has 5 leaves; cap at 2.
  Rng rng(68);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.NextDouble(0, 10);
    rows.push_back({{x, rng.NextDouble(0, 10)}, x > 5.0});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  C45Config config;
  config.prune = false;
  auto tree = BuildC45Tree(dataset, dataset.AllRows(), config);
  ASSERT_TRUE(tree.ok());
  const auto rules = ExtractTreeRules(*tree, dataset.schema(), 2);
  EXPECT_LE(rules.size(), 2u);
}

TEST(C45RulesLearnerTest, WeightedTrainingIsSupported) {
  // Stratified weights flip majority decisions; the learner must not choke
  // on non-unit weights (it falls back to weighted coverage counting).
  Rng rng(69);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 800; ++i) {
    const double x = rng.NextDouble(0, 10);
    rows.push_back({{x, 0.0}, x > 8.0 && rng.NextBool(0.4)});
  }
  Dataset dataset = MakeNumericDataset(2, rows);
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    if (dataset.label(r) == kPos) dataset.set_weight(r, 10.0);
  }
  C45RulesLearner learner;
  auto model = learner.Train(dataset, kPos);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Confusion c = EvaluateClassifier(*model, dataset, kPos);
  EXPECT_GT(c.recall(), 0.5);  // up-weighted positives win their region
}

// ---------------------------------------------------------------------------
// Golden models. Each fingerprint is the model's Describe() text, every
// rule's training statistics at full precision and the sum of the model's
// scores over the training split (which brings in the default class's
// score). The expected text was recorded from the row-at-a-time reference
// implementation of every step; the mask-based steps must reproduce it
// exactly, in RAM and on a demand-paged copy.

std::string Fingerprint(const C45RulesClassifier& model, const Dataset& data) {
  std::string out = model.Describe(data.schema());
  for (const auto& entry : model.rules()) {
    out += "stats " + FormatDouble(entry.rule.train_stats.covered, 17) + " " +
           FormatDouble(entry.rule.train_stats.positive, 17) + "\n";
  }
  const RowSubset all = data.AllRows();
  std::vector<double> scores(all.size());
  model.ScoreBatch(data, all.data(), all.size(), scores.data());
  double sum = 0.0;
  for (double score : scores) sum += score;
  return out + "score_sum " + FormatDouble(sum, 17) + "\n";
}

// Trains on `rows` of `data` and of a paged copy whose budget holds less
// than one column, and checks both fingerprints against `expected`.
void ExpectGolden(const Dataset& data, const RowSubset& rows,
                  const char* target_name, const char* expected) {
  const CategoryId target =
      data.schema().class_attr().FindCategory(target_name);
  ASSERT_NE(target, kInvalidCategory);
  auto model = C45RulesLearner().TrainOnRows(data, rows, target);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(Fingerprint(*model, data), expected);

  const Dataset paged =
      testutil::PagedCopy(data, data.num_rows() * sizeof(double) / 2);
  auto paged_model = C45RulesLearner().TrainOnRows(paged, rows, target);
  ASSERT_TRUE(paged_model.ok()) << paged_model.status().ToString();
  EXPECT_EQ(Fingerprint(*paged_model, data), expected);
}

Dataset KddSimTrain() {
  KddSimParams params;
  params.train_records = 3000;
  params.test_records = 1000;
  params.seed = 77;
  auto generated = GenerateKddSim(params);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return std::move(generated).value().train;
}

constexpr const char* kNsyn4000 =
    "C4.5rules model\n"
    "[0] IF a0 <= 49.9574 THEN class NC   (cov=2004.0, acc=1.0000)\n"
    "[1] IF a0 > 50.0449 THEN class NC   (cov=1979.0, acc=1.0000)\n"
    "[2] IF a0 > 49.9574 AND a0 <= 50.0449 AND a1 <= 46.8572 THEN"
    " class C   (cov=8.0, acc=1.0000)\n"
    "[3] IF a0 > 49.9574 AND a0 <= 50.0449 AND a2 > 59.3504 THEN class"
    " C   (cov=8.0, acc=0.8750)\n"
    "default: class NC\n"
    "stats 2004.00000000000000000 2004.00000000000000000\n"
    "stats 1979.00000000000000000 1979.00000000000000000\n"
    "stats 8.00000000000000000 8.00000000000000000\n"
    "stats 8.00000000000000000 7.00000000000000000\n"
    "score_sum 13.86466006657738248\n";

constexpr const char* kKdd3000 =
    "C4.5rules model\n"
    "[0] IF dst_bytes <= 0.5000 AND duration <= 0.5000 AND count >"
    " 16.5000 AND flag = SF THEN class dos   (cov=1338.0, acc=1.0000)\n"
    "[1] IF dst_bytes <= 0.5000 AND duration <= 0.5000 AND count >"
    " 16.5000 AND src_bytes <= 0.5000 THEN class dos   (cov=1034.0,"
    " acc=1.0000)\n"
    "[2] IF dst_bytes <= 0.5000 AND duration <= 0.5000 AND flag = S0"
    " THEN class dos   (cov=813.0, acc=1.0000)\n"
    "[3] IF src_bytes > 52938.0000 AND src_bytes <= 64927.5000 THEN"
    " class dos   (cov=19.0, acc=1.0000)\n"
    "[4] IF dst_bytes <= 0.5000 AND duration <= 0.5000 AND count <="
    " 16.5000 AND serror_rate <= 0.3735 THEN class probe   (cov=11.0,"
    " acc=1.0000)\n"
    "[5] IF dst_bytes > 0.5000 AND serror_rate > 0.3218 AND count >"
    " 64.0000 THEN class probe   (cov=4.0, acc=1.0000)\n"
    "[6] IF dst_bytes <= 0.5000 AND duration > 0.5000 AND serror_rate"
    " > 0.3764 THEN class probe   (cov=3.0, acc=1.0000)\n"
    "[7] IF num_failed_logins > 1.5000 AND logged_in = no THEN class"
    " r2l   (cov=2.0, acc=1.0000)\n"
    "[8] IF dst_bytes > 0.5000 THEN class normal   (cov=588.0,"
    " acc=0.9490)\n"
    "[9] IF duration > 0.5000 AND serror_rate <= 0.3764 THEN class"
    " normal   (cov=469.0, acc=0.9467)\n"
    "default: class probe\n"
    "stats 1338.00000000000000000 1338.00000000000000000\n"
    "stats 1034.00000000000000000 1034.00000000000000000\n"
    "stats 813.00000000000000000 813.00000000000000000\n"
    "stats 19.00000000000000000 19.00000000000000000\n"
    "stats 11.00000000000000000 11.00000000000000000\n"
    "stats 4.00000000000000000 4.00000000000000000\n"
    "stats 3.00000000000000000 3.00000000000000000\n"
    "stats 2.00000000000000000 2.00000000000000000\n"
    "stats 588.00000000000000000 558.00000000000000000\n"
    "stats 469.00000000000000000 444.00000000000000000\n"
    "score_sum 51.72361453212448623\n";

constexpr const char* kKddOddRows3000 =
    "C4.5rules model\n"
    "[0] IF dst_bytes <= 1.0000 AND duration <= 0.5000 AND count <="
    " 48.0000 AND flag = SF THEN class probe   (cov=4.0, acc=1.0000)\n"
    "[1] IF dst_bytes > 1.0000 AND serror_rate > 0.3197 AND count >"
    " 64.0000 THEN class probe   (cov=3.0, acc=1.0000)\n"
    "[2] IF dst_bytes <= 1.0000 AND duration <= 0.5000 AND count >"
    " 48.0000 THEN class dos   (cov=1184.0, acc=0.9992)\n"
    "[3] IF dst_bytes <= 1.0000 AND src_bytes <= 3.5000 THEN class dos"
    "   (cov=529.0, acc=0.9981)\n"
    "[4] IF src_bytes > 52938.0000 AND service = http THEN class dos  "
    " (cov=8.0, acc=1.0000)\n"
    "[5] IF src_bytes <= 52938.0000 AND count <= 64.0000 AND service ="
    " http THEN class normal   (cov=141.0, acc=1.0000)\n"
    "[6] IF dst_bytes > 1.0000 AND src_bytes <= 52938.0000 AND"
    " serror_rate <= 0.3197 THEN class normal   (cov=260.0,"
    " acc=0.9923)\n"
    "default: class normal\n"
    "stats 4.00000000000000000 4.00000000000000000\n"
    "stats 3.00000000000000000 3.00000000000000000\n"
    "stats 1184.00000000000000000 1183.00000000000000000\n"
    "stats 529.00000000000000000 528.00000000000000000\n"
    "stats 8.00000000000000000 8.00000000000000000\n"
    "stats 141.00000000000000000 141.00000000000000000\n"
    "stats 260.00000000000000000 258.00000000000000000\n"
    "score_sum 2403.42840473379465038\n";

constexpr const char* kKddWeighted3000 =
    "C4.5rules model\n"
    "[0] IF dst_bytes > 0.5000 AND serror_rate <= 0.3218 AND src_bytes"
    " <= 52938.0000 AND num_failed_logins <= 0.5000 AND duration <="
    " 195.5000 THEN class normal   (cov=401.6, acc=1.0000)\n"
    "[1] IF dst_bytes > 0.5000 AND serror_rate <= 0.3218 AND src_bytes"
    " <= 52938.0000 AND num_failed_logins <= 0.5000 AND hot <= 0.5000"
    " THEN class normal   (cov=388.6, acc=1.0000)\n"
    "[2] IF num_failed_logins > 0.5000 AND logged_in = yes THEN class"
    " normal   (cov=25.8, acc=1.0000)\n"
    "[3] IF dst_bytes > 0.5000 AND serror_rate > 0.3253 AND count <="
    " 63.0000 THEN class normal   (cov=17.0, acc=1.0000)\n"
    "[4] IF dst_bytes <= 0.5000 AND duration > 0.5000 AND serror_rate"
    " <= 0.3764 THEN class normal   (cov=16.0, acc=1.0000)\n"
    "[5] IF dst_bytes <= 0.5000 AND duration <= 0.5000 AND count <="
    " 42.5000 AND serror_rate <= 0.6872 THEN class probe   (cov=90.0,"
    " acc=1.0000)\n"
    "[6] IF dst_bytes <= 0.5000 AND duration <= 0.5000 AND count <="
    " 124.5000 AND src_bytes > 0.5000 THEN class probe   (cov=91.0,"
    " acc=0.9890)\n"
    "[7] IF dst_bytes > 0.5000 AND serror_rate > 0.3218 AND count >"
    " 63.0000 THEN class probe   (cov=30.0, acc=1.0000)\n"
    "[8] IF dst_bytes <= 0.5000 AND duration > 0.5000 AND serror_rate"
    " > 0.3764 THEN class probe   (cov=22.5, acc=1.0000)\n"
    "[9] IF serror_rate > 0.3218 AND dst_bytes <= 17.0000 AND"
    " serror_rate <= 0.3253 THEN class probe   (cov=7.5, acc=1.0000)\n"
    "[10] IF num_failed_logins > 0.5000 AND logged_in = no THEN class"
    " r2l   (cov=37.8, acc=0.9735)\n"
    "[11] IF src_bytes > 64927.5000 AND hot > 1.5000 THEN class r2l  "
    " (cov=12.2, acc=1.0000)\n"
    "[12] IF src_bytes <= 52938.0000 AND num_failed_logins <= 0.5000"
    " AND duration > 195.5000 AND hot > 0.5000 AND hot <= 1.5000 THEN"
    " class r2l   (cov=25.9, acc=0.9459)\n"
    "[13] IF duration <= 0.5000 AND count > 124.5000 THEN class dos  "
    " (cov=1702.6, acc=1.0000)\n"
    "[14] IF duration <= 0.5000 AND serror_rate > 0.6872 THEN class"
    " dos   (cov=827.7, acc=0.9909)\n"
    "[15] IF src_bytes > 52938.0000 AND src_bytes <= 64927.5000 THEN"
    " class dos   (cov=16.0, acc=1.0000)\n"
    "default: class normal\n"
    "stats 401.59999999999905640 401.59999999999905640\n"
    "stats 388.59999999999911324 388.59999999999911324\n"
    "stats 25.79999999999999716 25.79999999999999716\n"
    "stats 17.00000000000000000 17.00000000000000000\n"
    "stats 16.00000000000000000 16.00000000000000000\n"
    "stats 90.00000000000000000 90.00000000000000000\n"
    "stats 91.00000000000000000 90.00000000000000000\n"
    "stats 30.00000000000000000 30.00000000000000000\n"
    "stats 22.50000000000000000 22.50000000000000000\n"
    "stats 7.50000000000000000 7.50000000000000000\n"
    "stats 37.75000000000000000 36.75000000000000000\n"
    "stats 12.25000000000000000 12.25000000000000000\n"
    "stats 25.89999999999999858 24.50000000000000000\n"
    "stats 1702.60000000001946319 1702.60000000001946319\n"
    "stats 827.69999999999492957 820.19999999999492957\n"
    "stats 16.00000000000000000 16.00000000000000000\n"
    "score_sum 31.98849423657396329\n";

TEST(C45RulesGoldenTest, NumericTwoClass) {
  const TrainTestPair data = MakeNumericPair(NsynParams(1), 4000, 1000, 43);
  ExpectGolden(data.train, data.train.AllRows(), "C", kNsyn4000);
}

TEST(C45RulesGoldenTest, MixedAttributesFiveClasses) {
  const Dataset data = KddSimTrain();
  ExpectGolden(data, data.AllRows(), "probe", kKdd3000);
}

TEST(C45RulesGoldenTest, RowSubset) {
  // Every other row: the masks index positions in the subset, and the
  // numeric sweeps take their gather path.
  const Dataset data = KddSimTrain();
  RowSubset odd;
  for (RowId r = 1; r < data.num_rows(); r += 2) odd.push_back(r);
  ExpectGolden(data, odd, "dos", kKddOddRows3000);
}

TEST(C45RulesGoldenTest, NonUnitWeights) {
  // Fractional weights keep every step on the weighted (row-order sum)
  // path instead of popcounts.
  Dataset data = KddSimTrain();
  const Attribute& classes = data.schema().class_attr();
  for (RowId r = 0; r < data.num_rows(); ++r) {
    const std::string& name = classes.CategoryName(data.label(r));
    if (name == "probe") {
      data.set_weight(r, 7.5);
    } else if (name == "r2l") {
      data.set_weight(r, 12.25);
    } else if (r % 3 == 0) {
      data.set_weight(r, 0.4);
    }
  }
  ExpectGolden(data, data.AllRows(), "probe", kKddWeighted3000);
}

}  // namespace
}  // namespace pnr
