// baselines_kdd: the paper's comparison learners on kdd_sim's rare r2l
// class. Each pass ingests the CSV, trains RIPPER, a C4.5 tree, C4.5rules
// and CBA, and scores the held-out split with the three rule models;
// PNrule does no work here, so ripper/, c45/ and assoc/ are
// measured by a workload of their own. Every learner that takes a thread
// count gets one per core; every model is thread-count-invariant.

#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "assoc/cba.h"
#include "c45/rules.h"
#include "c45/tree.h"
#include "common.h"
#include "data/ingest.h"
#include "eval/confusion.h"
#include "ripper/ripper.h"

namespace pipebench {
namespace {

using namespace pnr;

struct Sizes {
  size_t train_rows;
  size_t test_rows;
};

Sizes SizesFor(const Options& options) {
  return options.quick ? Sizes{4000, 2000} : Sizes{60000, 20000};
}

// Held-out scoring runs this many times per pass, so its time is long
// enough to measure steadily.
constexpr size_t kPredictRepeats = 20;

struct PassOutput {
  double train_s = 0.0;
  double predict_s = 0.0;  ///< the kPredictRepeats rounds of held-out scoring
  double rare_f1 = 0.0;    ///< mean r2l F-measure of the three rule models
  std::string models;     ///< every model rendered, for the identity gate
  size_t itemsets = 0;
};

double RareF1(const std::vector<uint8_t>& predicted, const Dataset& test,
              const std::vector<RowId>& rows, CategoryId target) {
  Confusion confusion;
  for (size_t i = 0; i < rows.size(); ++i) {
    confusion.Add(test.label(rows[i]) == target, predicted[i] != 0);
  }
  return confusion.f_measure();
}

PassOutput RunPass(const KddCsv& csv, uint64_t seed, Tracer* tracer,
                   Result* result) {
  PassOutput out;
  const size_t threads = HardwareThreads();
  const Clock::time_point start = Clock::now();
  IngestOptions ingest;
  ingest.num_threads = threads;
  const StatusOr<Dataset> parsed = tracer->Run(
      "data.ingest", [&] { return IngestEngine(ingest).ParseCsv(csv.text); });
  const Dataset& all = Require(parsed, "ingest", result);
  const Dataset train = CopyRows(all, 0, csv.train_rows);
  const Dataset test = CopyRows(all, csv.train_rows, all.num_rows());
  const Schema& schema = train.schema();
  const CategoryId target = schema.class_attr().FindCategory("r2l");
  if (target == kInvalidCategory) {
    throw std::runtime_error("the kdd_sim CSV has no r2l class");
  }

  RipperConfig ripper_config;
  ripper_config.num_threads = threads;
  const StatusOr<RipperClassifier> ripper_trained = tracer->Run("ripper", [&] {
    return RipperLearner(ripper_config).Train(train, target);
  });
  C45Config tree_config;
  tree_config.num_threads = threads;
  const StatusOr<DecisionTree> tree_built = tracer->Run("c45.tree", [&] {
    return BuildC45Tree(train, train.AllRows(), tree_config);
  });
  C45RulesConfig rules_config;
  rules_config.tree.num_threads = threads;
  const StatusOr<C45RulesClassifier> c45_trained =
      tracer->Run("c45.rules", [&] {
        return C45RulesLearner(rules_config).Train(train, target);
      });
  AssocMineOptions mine_options;
  mine_options.num_threads = threads;
  const StatusOr<AssocMineResult> cba_mined = tracer->Run("assoc.cba", [&] {
    return MineCba(train, train.AllRows(), target, mine_options);
  });
  out.train_s = Seconds(start, Clock::now());

  const RipperClassifier& ripper = Require(ripper_trained, "RIPPER", result);
  const DecisionTree& tree = Require(tree_built, "C4.5 tree", result);
  const C45RulesClassifier& c45 = Require(c45_trained, "C4.5rules", result);
  const AssocMineResult& cba = Require(cba_mined, "CBA", result);
  out.models = ripper.Describe(schema) + tree.ToString(schema) +
               c45.Describe(schema) + cba.model.Describe(schema);
  out.itemsets = cba.stats.frequent_itemsets;
  const std::vector<RowId> rows = ShuffledRows(test.num_rows(), seed);
  const BinaryClassifier* models[] = {&ripper, &c45, &cba.model};
  std::vector<std::vector<uint8_t>> predicted(
      std::size(models), std::vector<uint8_t>(rows.size()));
  const Clock::time_point predict_start = Clock::now();
  tracer->Run("rules.score", [&] {
    for (size_t round = 0; round < kPredictRepeats; ++round) {
      for (size_t m = 0; m < std::size(models); ++m) {
        models[m]->PredictBatch(test, rows.data(), rows.size(),
                                predicted[m].data());
      }
    }
  });
  out.predict_s = Seconds(predict_start, Clock::now());
  for (const std::vector<uint8_t>& labels : predicted) {
    out.rare_f1 += RareF1(labels, test, rows, target) / 3.0;
  }
  return out;
}

}  // namespace

void RunBaselinesKdd(const Options& options, Result* result) {
  const Sizes sizes = SizesFor(options);
  const auto csv = RepeatSetup(
      [&] {
        return std::make_unique<KddCsv>(MakeKddCsv(
            DeriveSeed(DataSeed(options), 4), sizes.train_rows, sizes.test_rows));
      },
      result);
  Tracer tracer;
  std::vector<PassOutput> untraced;
  std::vector<PassOutput> traced;
  std::string reference;
  const PassTimes times = RunPasses(options, 3, &tracer, [&](bool is_traced) {
    PassOutput out = RunPass(*csv, options.seed, &tracer, result);
    if (reference.empty()) reference = out.models;
    result->Gate(out.models == reference,
                 "a baseline model differs from the first pass's");
    (is_traced ? traced : untraced).push_back(std::move(out));
  });

  // Rows each model scores per pass: all three score the held-out split.
  const double scored_rows =
      3.0 * static_cast<double>(kPredictRepeats * sizes.test_rows);
  std::vector<double> train_s, rows_per_s;
  for (const PassOutput& out : untraced) {
    train_s.push_back(out.train_s);
    rows_per_s.push_back(scored_rows / out.predict_s);
  }
  const std::string wall = "wall, median of untraced passes";
  result->end_to_end["result_s"] = {
      Median(train_s), "s",
      wall + ": CSV bytes -> RIPPER, C4.5 tree, C4.5rules and CBA trained"};
  result->end_to_end["rows_per_s"] = {
      Median(rows_per_s), "1/s",
      wall + ": held-out rows scored by PredictBatch of RIPPER, C4.5rules "
             "and CBA / their scoring time"};
  result->end_to_end["rare_f1"] = {
      untraced.front().rare_f1, "ratio",
      "mean r2l F-measure of RIPPER, C4.5rules and CBA on the held-out split"};
  result->named["train_s"] = result->end_to_end["result_s"];
  result->named["predict_rows_per_s"] = result->end_to_end["rows_per_s"];
  result->named["rare_f1"] = result->end_to_end["rare_f1"];
  result->config["train_rows"] = std::to_string(sizes.train_rows);
  result->config["test_rows"] = std::to_string(sizes.test_rows);
  result->config["learner_threads"] = std::to_string(HardwareThreads());
  result->config["passes"] = std::to_string(untraced.size() + traced.size());

  if (!options.trace) return;
  AddLedger(tracer, times, result);
  auto& layers = result->layers;
  const double ingest_s = layers["data.ingest.busy_s"].value;
  layers["data.ingest.mb_per_s"] = {
      ingest_s > 0 ? static_cast<double>(csv->text.size()) / 1e6 / ingest_s
                   : 0.0,
      "MB/s", "CSV bytes / data.ingest.busy_s"};
  layers["rules.score.ns_per_row"] = {
      1e9 / Median(rows_per_s), "ns",
      "wall, median untraced pass: PredictBatch over the held-out split"};
  layers["assoc.itemsets"] = {static_cast<double>(traced.back().itemsets),
                              "count", "count, frequent itemsets CBA mined"};
}

}  // namespace pipebench
