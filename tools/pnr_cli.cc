// pnr: command-line PNrule — train on a CSV, evaluate, save/load models,
// score new data. The "downstream user" entry point that needs no C++.
//
// Usage:
//   pnr train   --data train.csv --target fraud [--model model.txt]
//               [--rp 0.99] [--rn 0.9] [--min-support 0.01] [--p1]
//               [--threads n] [--class-column label]
//               [--multiclass] [--train-threads n] [--max-resident-mb m]
//   pnr eval    --data test.csv --target fraud --model model.txt
//               [--class-column label]
//   pnr predict --data new.csv --target fraud --model model.txt
//               [--class-column label]   (prints one score per row)
//   pnr shard   --data train.csv --out train.pns [--shards n]
//               [--class-column label] [--threads n]
//   pnr mine    --data train.csv --target fraud [--model model.txt]
//               [--min-support 0.01] [--per-class-support 0.05]
//               [--min-conf 0.5] [--min-lift 1.0] [--max-len 3]
//               [--bins 8] [--threads n] [--class-column label]
//   pnr serve   --models name=model.txt[,name2=other.txt] [--port 8080]
//               [--shards 0] [--max-batch 1024] [--no-batching]
//   pnr probe   --port 8080 --row "attr=value,..." [--model name]
//               [--schema model.txt.schema --binary]
//   pnr tune    (--data train.csv | --synth kdd) --target fraud
//               [--config grid.cfg] [--folds 5] [--budget N]
//               [--metric recall|precision|f] [--z 2.0] [--keep 0.5]
//               [--seed n] [--threads n] [--out DIR]
//   pnr stream  --data feed.csv --model model.txt --target fraud
//               [--out-dir DIR] [--window 1000] [--sliding 5]
//               [--threshold 0.5] [--threads n] [--train-threads n]
//               [--psi-threshold 0.25] [--score-psi-threshold 0.25]
//               [--confirm-windows 2] [--reference-windows 4]
//               [--retrain-rows 6000] [--no-retrain] [--max-swaps n]
//               [--checkpoint FILE] [--resume] [--journal FILE]
//               [--follow] [--poll-ms 200] [--idle-exit-polls n]
//               [--serve-port p] [--serve-shards n] [--model-name stream]
//   pnr stream  --generate --out-dir DIR [--train 20000] [--pre 12000]
//               [--post 8000] [--seed n]
//
// `--target` is the class value treated as positive. Training prints the
// learned rules; eval prints recall / precision / F and ranking areas.
// `shard` rewrites a dataset as a compressed columnar shard file; every
// subcommand's `--data` then accepts either format (sniffed by magic).
// With `--max-resident-mb` a shard-store input is demand-paged instead of
// fully loaded, so training works on datasets much larger than RAM.
// `--multiclass` trains a one-vs-rest committee over every class (no
// `--target` needed), prints a per-class training report, and fans the
// class loop out over `--train-threads` workers — the model bytes are
// identical for any thread count and shard count.
// `serve` loads each model with its `<model>.schema` sidecar (written by
// train) and answers POST /v1/predict (plus the binary protocol on the
// same port) across `--shards` reactor shards until SIGTERM/SIGINT, then
// drains in-flight requests before exiting (see docs/API.md). `probe`
// sends one predict request — JSON by default, the compact binary frame
// with --binary — and prints the score. `tune` races a
// hyperparameter grid over stratified CV with successive-halving /
// confidence-bound elimination and writes EXPERIMENTS.md + BENCH_tune.json
// artifacts to --out (byte-identical for any --threads; see DESIGN.md §12).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "assoc/cba.h"
#include "assoc/model_io.h"
#include "cli/usage.h"
#include "common/file_io.h"
#include "common/net.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/schema_io.h"
#include "data/shard_store.h"
#include "eval/curves.h"
#include "eval/metrics.h"
#include "pnrule/model_io.h"
#include "pnrule/pnrule.h"
#include "serve/binary.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/server.h"
#include "stream/engine.h"
#include "synth/kdd_sim.h"
#include "tune/report.h"

namespace {

using namespace pnr;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool p1 = false;
  bool no_batching = false;
  bool binary = false;
  bool multiclass = false;
  bool follow = false;
  bool resume = false;
  bool generate = false;
  bool no_retrain = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--p1") {
      args.p1 = true;
    } else if (arg == "--no-batching") {
      args.no_batching = true;
    } else if (arg == "--binary") {
      args.binary = true;
    } else if (arg == "--multiclass") {
      args.multiclass = true;
    } else if (arg == "--follow") {
      args.follow = true;
    } else if (arg == "--resume") {
      args.resume = true;
    } else if (arg == "--generate") {
      args.generate = true;
    } else if (arg == "--no-retrain") {
      args.no_retrain = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args.options[arg.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", arg.c_str());
    }
  }
  return args;
}

int Usage() {
  std::fprintf(stderr, "%s", PnrUsageText().c_str());
  return 2;
}

double OptionOr(const Args& args, const std::string& key, double fallback);

// True when the file starts with the shard-store magic. A short or
// unreadable file simply isn't a shard store; the CSV reader then produces
// the user-facing error.
bool SniffShardStore(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char head[8] = {};
  const size_t n = std::fread(head, 1, sizeof(head), file);
  std::fclose(file);
  return LooksLikeShardStore(std::string_view(head, n));
}

// Paging budget in bytes from --max-resident-mb (0 = load fully).
size_t ResidentBudgetBytes(const Args& args) {
  const double mb = OptionOr(args, "max-resident-mb", 0.0);
  return mb > 0.0 ? static_cast<size_t>(mb * 1024.0 * 1024.0) : 0;
}

StatusOr<Dataset> LoadData(const Args& args) {
  const auto data_it = args.options.find("data");
  if (data_it == args.options.end()) {
    return Status::InvalidArgument("--data is required");
  }
  if (SniffShardStore(data_it->second)) {
    auto reader = ShardStoreReader::Open(data_it->second);
    if (!reader.ok()) return reader.status();
    const size_t budget = ResidentBudgetBytes(args);
    if (budget > 0) return MakePagedDataset(*reader, budget);
    return (*reader)->LoadDataset();
  }
  CsvReadOptions options;
  const auto class_it = args.options.find("class-column");
  if (class_it != args.options.end()) options.class_column = class_it->second;
  options.num_threads = static_cast<size_t>(OptionOr(args, "threads", 1.0));
  return ReadCsv(data_it->second, options);
}

StatusOr<CategoryId> ResolveTarget(const Args& args, const Dataset& data) {
  const auto it = args.options.find("target");
  if (it == args.options.end()) {
    return Status::InvalidArgument("--target is required");
  }
  const CategoryId target = data.schema().class_attr().FindCategory(it->second);
  if (target == kInvalidCategory) {
    return Status::NotFound("class '" + it->second +
                            "' does not occur in the data");
  }
  return target;
}

double OptionOr(const Args& args, const std::string& key,
                double fallback) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  double value = fallback;
  ParseDouble(it->second, &value);
  return value;
}

BatchScoreOptions BatchOptions(const Args& args) {
  BatchScoreOptions options;
  options.num_threads = static_cast<size_t>(OptionOr(args, "threads", 1.0));
  return options;
}

// The per-class account of a one-vs-rest run: every class appears, with
// either its rule counts or the reason the committee falls back on it.
void PrintTrainReport(const MultiClassTrainReport& report) {
  std::printf("per-class training report:\n");
  std::printf("  %-16s %10s %8s %8s %8s  %s\n", "class", "rows", "p-rules",
              "n-rules", "seconds", "status");
  for (const ClassTrainStatus& entry : report.classes) {
    std::printf("  %-16s %10zu %8zu %8zu %8.2f  %s\n",
                entry.class_name.c_str(), entry.rows, entry.num_p_rules,
                entry.num_n_rules, entry.train_seconds,
                entry.status.ok() ? "ok" : entry.status.ToString().c_str());
  }
  std::printf("  trained %zu of %zu classes\n", report.trained,
              report.classes.size());
}

int TrainMultiClass(const Args& args, const Dataset& data,
                    const PnruleConfig& config) {
  MultiClassPnruleLearner learner(config);
  learner.set_train_threads(
      static_cast<size_t>(OptionOr(args, "train-threads", 1.0)));
  MultiClassTrainReport report;
  auto model = learner.Train(data, &report);
  PrintTrainReport(report);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("training-set accuracy: %.4f\n",
              MultiClassAccuracy(*model, data, BatchOptions(args)));

  const auto model_it = args.options.find("model");
  if (model_it != args.options.end()) {
    Status saved =
        SaveMultiClassModel(*model, data.schema(), model_it->second);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    const std::string schema_path = model_it->second + ".schema";
    saved = SaveSchema(data.schema(), schema_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("model written to %s (schema sidecar: %s)\n",
                model_it->second.c_str(), schema_path.c_str());
  }
  return 0;
}

int Train(const Args& args) {
  auto data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  PnruleConfig config;
  config.min_coverage_fraction = OptionOr(args, "rp", 0.99);
  config.n_recall_lower_limit = OptionOr(args, "rn", 0.9);
  config.min_support_fraction = OptionOr(args, "min-support", 0.01);
  config.num_threads =
      static_cast<size_t>(OptionOr(args, "threads", 1.0));
  // Out-of-core runs bound the search cache by the same budget that pages
  // the dataset; in-core runs keep it unbounded. Either way the model
  // bytes are unchanged.
  config.search_cache_budget_bytes = ResidentBudgetBytes(args);
  if (args.p1) config.max_p_rule_length = 1;
  if (args.multiclass) return TrainMultiClass(args, *data, config);

  auto target = ResolveTarget(args, *data);
  if (!target.ok()) {
    std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
    return 1;
  }

  auto model = PnruleLearner(config).Train(*data, *target);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", model->Describe(data->schema()).c_str());
  const Confusion train_eval = EvaluateClassifier(*model, *data, *target);
  std::printf("training-set fit: %s\n", train_eval.ToString().c_str());

  const auto model_it = args.options.find("model");
  if (model_it != args.options.end()) {
    Status saved = SavePnruleModel(*model, data->schema(), model_it->second);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    // The schema sidecar lets `pnr serve` load this model without any
    // training data on hand.
    const std::string schema_path = model_it->second + ".schema";
    saved = SaveSchema(data->schema(), schema_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("model written to %s (schema sidecar: %s)\n",
                model_it->second.c_str(), schema_path.c_str());
  }
  return 0;
}

// Loads either model family through one --model flag: the file header is
// sniffed, so `pnr eval`/`pnr predict` score PNrule and mined associative
// models interchangeably.
StatusOr<std::unique_ptr<BinaryClassifier>> LoadModel(const Args& args,
                                                      const Dataset& data) {
  const auto it = args.options.find("model");
  if (it == args.options.end()) {
    return Status::InvalidArgument("--model is required");
  }
  auto text = ReadFileToString(it->second);
  if (!text.ok()) return text.status();
  auto model = ParseAnyModel(*text, data.schema());
  if (!model.ok()) return model.status();
  std::unique_ptr<BinaryClassifier> classifier =
      std::move(model).value().classifier;
  classifier->set_threshold(
      OptionOr(args, "threshold", classifier->threshold()));
  return classifier;
}

// `pnr shard`: rewrite --data as a compressed columnar shard file that the
// other subcommands accept in place of the CSV (and can demand-page).
int Shard(const Args& args) {
  const auto out_it = args.options.find("out");
  if (out_it == args.options.end()) {
    std::fprintf(stderr, "--out is required, e.g. --out train.pns\n");
    return 2;
  }
  auto data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  ShardStoreWriteOptions options;
  options.num_shards = static_cast<uint32_t>(OptionOr(args, "shards", 1.0));
  const Status written = WriteShardStore(*data, out_it->second, options);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  const uint32_t shards =
      options.num_shards == 0
          ? 1
          : static_cast<uint32_t>(std::min<uint64_t>(options.num_shards,
                                                     data->num_rows()));
  std::printf("wrote %zu rows x %zu attrs in %u shard(s) to %s\n",
              data->num_rows(), data->schema().num_attributes(), shards,
              out_it->second.c_str());
  return 0;
}

int Eval(const Args& args) {
  auto data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  if (args.multiclass) {
    const auto it = args.options.find("model");
    if (it == args.options.end()) {
      std::fprintf(stderr, "--model is required\n");
      return 2;
    }
    auto model = LoadMultiClassModel(it->second, data->schema());
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    std::printf("accuracy: %.4f\n",
                MultiClassAccuracy(*model, *data, BatchOptions(args)));
    return 0;
  }
  auto target = ResolveTarget(args, *data);
  if (!target.ok()) {
    std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
    return 1;
  }
  auto model = LoadModel(args, *data);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const BatchScoreOptions batch = BatchOptions(args);
  const Confusion c = EvaluateClassifier(**model, *data, *target, batch);
  std::printf("%s\n", c.ToString().c_str());
  const RankingSummary ranking =
      SummarizeRanking(**model, *data, *target, batch);
  std::printf("ROC-AUC=%.4f PR-AUC=%.4f\n", ranking.roc_auc,
              ranking.pr_auc);
  return 0;
}

int Predict(const Args& args) {
  auto data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto model = LoadModel(args, *data);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const BatchScoreOptions batch = BatchOptions(args);
  std::vector<RowId> rows(data->num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<double> scores(rows.size());
  std::vector<uint8_t> predicted(rows.size());
  (*model)->ScoreBatch(*data, rows.data(), rows.size(), scores.data(), batch);
  (*model)->PredictBatch(*data, rows.data(), rows.size(), predicted.data(),
                         batch);
  std::printf("row,score,predicted\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%u,%.6f,%d\n", rows[i], scores[i], predicted[i] ? 1 : 0);
  }
  return 0;
}

// `pnr tune`: race a hyperparameter grid over stratified CV.
//
// With --synth kdd the racer runs on a generated kdd_sim training split and
// the winner is additionally compared against the default configuration on
// the (shifted-distribution) test split — the quick way to reproduce the
// paper-style tuned-vs-default numbers without any data on disk. The
// written artifacts cover the race only, so they are byte-identical for
// any --threads value.
int Tune(const Args& args) {
  const auto target_it = args.options.find("target");
  if (target_it == args.options.end()) {
    std::fprintf(stderr, "--target is required\n");
    return 2;
  }

  // Data: a CSV file or the kdd_sim generator.
  Dataset train(Schema{});
  Dataset test(Schema{});
  bool have_test = false;
  std::string dataset_desc;
  const auto synth_it = args.options.find("synth");
  if (synth_it != args.options.end()) {
    if (synth_it->second != "kdd") {
      std::fprintf(stderr, "unknown --synth generator '%s' (valid: kdd)\n",
                   synth_it->second.c_str());
      return 2;
    }
    KddSimParams params;
    params.train_records =
        static_cast<size_t>(OptionOr(args, "synth-train", 20000.0));
    params.test_records =
        static_cast<size_t>(OptionOr(args, "synth-test", 12000.0));
    params.seed = static_cast<uint64_t>(OptionOr(args, "seed", 20010521.0));
    auto data = GenerateKddSim(params);
    if (!data.ok()) {
      std::fprintf(stderr, "kdd_sim: %s\n", data.status().ToString().c_str());
      return 1;
    }
    KddSimData sim = std::move(data).value();
    train = std::move(sim.train);
    test = std::move(sim.test);
    have_test = true;
    dataset_desc = "kdd_sim train=" + std::to_string(params.train_records) +
                   " test=" + std::to_string(params.test_records);
  } else {
    auto data = LoadData(args);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    train = std::move(data).value();
    dataset_desc = args.options.at("data") + " rows=" +
                   std::to_string(train.num_rows());
  }
  const CategoryId target =
      train.schema().class_attr().FindCategory(target_it->second);
  if (target == kInvalidCategory) {
    std::fprintf(stderr, "class '%s' does not occur in the data\n",
                 target_it->second.c_str());
    return 1;
  }

  // Grid: --config file or the built-in default space.
  ConfigSpace space = ConfigSpace::Default();
  const auto config_it = args.options.find("config");
  if (config_it != args.options.end()) {
    auto text = ReadFileToString(config_it->second);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto parsed = ConfigSpace::Parse(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    space = std::move(parsed).value();
  }
  const std::vector<TrialConfig> configs = space.Enumerate(PnruleConfig{});

  RacerOptions options;
  options.num_folds = static_cast<size_t>(OptionOr(args, "folds", 5.0));
  options.seed = static_cast<uint64_t>(OptionOr(args, "seed", 20010521.0));
  options.max_evals = static_cast<size_t>(OptionOr(args, "budget", 0.0));
  options.confidence_z = OptionOr(args, "z", 2.0);
  options.keep_fraction = OptionOr(args, "keep", 0.5);
  options.num_threads = static_cast<size_t>(OptionOr(args, "threads", 1.0));
  const auto metric_it = args.options.find("metric");
  if (metric_it != args.options.end() &&
      !ParseTuneMetric(metric_it->second, &options.metric)) {
    std::fprintf(stderr,
                 "unknown --metric '%s' (valid: recall precision f)\n",
                 metric_it->second.c_str());
    return 2;
  }

  std::printf("racing %zu configurations over %zu folds on %s "
              "(objective %s)...\n",
              configs.size(), options.num_folds, dataset_desc.c_str(),
              TuneMetricName(options.metric));
  std::fflush(stdout);
  Racer racer(options);
  auto result = racer.Race(train, target, configs);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  TuneReport report;
  report.dataset = dataset_desc;
  report.target = target_it->second;
  report.options = options;
  report.configs = configs;
  report.result = std::move(result).value();
  std::printf("%s", RenderTuneMarkdown(report).c_str());

  // Held-out comparison (synth mode): winner vs default config, trained on
  // the full training split, evaluated on the shifted test split.
  if (have_test) {
    const CategoryId test_target =
        test.schema().class_attr().FindCategory(target_it->second);
    struct Contender {
      const char* name;
      TrialConfig trial;
    };
    const Contender contenders[] = {
        {"tuned", report.configs[report.result.best_config]},
        {"default", TrialConfig{}},
    };
    std::printf("\nheld-out test split (%zu rows):\n", test.num_rows());
    std::vector<RowId> all_rows(train.num_rows());
    std::iota(all_rows.begin(), all_rows.end(), RowId{0});
    for (const Contender& contender : contenders) {
      // Same trainer the racer's folds use, so the winner reproduces its
      // raced configuration exactly — including mined CBA winners.
      auto classifier = TrainTrialClassifier(contender.trial, train, all_rows,
                                             target, options.num_threads);
      if (!classifier.ok()) {
        std::fprintf(stderr, "training failed: %s\n",
                     classifier.status().ToString().c_str());
        return 1;
      }
      BatchScoreOptions batch;
      batch.num_threads = options.num_threads;
      const Confusion c =
          EvaluateClassifier(**classifier, test, test_target, batch);
      std::printf("  %-8s %s\n", contender.name, c.ToString().c_str());
    }
  }

  const auto out_it = args.options.find("out");
  if (out_it != args.options.end()) {
    const Status written = WriteTuneArtifacts(report, out_it->second);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\nartifacts written to %s/EXPERIMENTS.md and "
                "%s/BENCH_tune.json\n",
                out_it->second.c_str(), out_it->second.c_str());
  }
  return 0;
}

// `pnr mine`: CBA-style associative classifier for a rare target class
// (DESIGN.md §16). Numerics are discretized with the supervised equi-depth/
// entropy discretizer, frequent itemsets are mined with a per-class minimum
// support so rare-class rules survive the global floor, and database-
// coverage selection orders the surviving rules into a model that scores
// through the same compiled rule path as PNrule. The mined model bytes are
// identical for any --threads and for in-RAM vs demand-paged input.
int Mine(const Args& args) {
  auto data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto target = ResolveTarget(args, *data);
  if (!target.ok()) {
    std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
    return 1;
  }

  AssocMineOptions options;
  options.min_support = OptionOr(args, "min-support", options.min_support);
  options.per_class_min_support =
      OptionOr(args, "per-class-support", options.per_class_min_support);
  options.min_confidence = OptionOr(args, "min-conf", options.min_confidence);
  options.min_lift = OptionOr(args, "min-lift", options.min_lift);
  options.max_len = static_cast<size_t>(
      OptionOr(args, "max-len", static_cast<double>(options.max_len)));
  options.discretize.max_bins = static_cast<size_t>(OptionOr(
      args, "bins", static_cast<double>(options.discretize.max_bins)));
  options.num_threads = static_cast<size_t>(OptionOr(args, "threads", 1.0));

  std::vector<RowId> rows(data->num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  auto mined = MineCba(*data, rows, *target, options);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }
  AssocClassifier model = std::move(mined->model);
  model.set_threshold(OptionOr(args, "threshold", model.threshold()));
  const MineStats& stats = mined->stats;
  std::printf("mined %zu items (%zu numeric attrs discretized), "
              "%zu frequent itemsets (%zu rescued by per-class support),\n"
              "      %zu candidate rules -> %zu selected\n",
              stats.num_items, stats.discretized_attrs,
              stats.frequent_itemsets, stats.itemsets_rescued,
              stats.rules_generated, stats.rules_selected);
  std::printf("%s", model.Describe(data->schema()).c_str());
  const Confusion train_eval =
      EvaluateClassifier(model, *data, *target, BatchOptions(args));
  std::printf("training-set fit: %s\n", train_eval.ToString().c_str());

  const auto model_it = args.options.find("model");
  if (model_it != args.options.end()) {
    Status saved = SaveAssocModel(model, data->schema(), model_it->second);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    // Schema sidecar, as for train: `pnr serve` loads the mined model with
    // no training data on hand.
    const std::string schema_path = model_it->second + ".schema";
    saved = SaveSchema(data->schema(), schema_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("model written to %s (schema sidecar: %s)\n",
                model_it->second.c_str(), schema_path.c_str());
  }
  return 0;
}

// SIGTERM/SIGINT handling: the handler may only touch async-signal-safe
// state, so it writes one byte to a pipe; the main thread blocks on the
// read end and runs the (mutex-taking) graceful Shutdown itself.
WakePipe* g_signal_pipe = nullptr;

void HandleStopSignal(int) {
  if (g_signal_pipe != nullptr) g_signal_pipe->Wake();
}

int Serve(const Args& args) {
  const auto models_it = args.options.find("models");
  if (models_it == args.options.end()) {
    std::fprintf(stderr,
                 "--models is required, e.g. --models fraud=model.txt\n");
    return 2;
  }
  ModelRegistry registry;
  for (const std::string& spec : SplitString(models_it->second, ',')) {
    if (spec.empty()) continue;
    const size_t eq = spec.find('=');
    std::string name;
    std::string path;
    if (eq == std::string::npos) {
      path = spec;
      // Bare path: the name is the filename without directories/extension.
      const size_t slash = path.find_last_of('/');
      const size_t start = slash == std::string::npos ? 0 : slash + 1;
      const size_t dot = path.find('.', start);
      name = path.substr(start, dot == std::string::npos ? std::string::npos
                                                         : dot - start);
    } else {
      name = spec.substr(0, eq);
      path = spec.substr(eq + 1);
    }
    const Status loaded = registry.Load(name, path, path + ".schema");
    if (!loaded.ok()) {
      std::fprintf(stderr, "loading '%s': %s\n", name.c_str(),
                   loaded.ToString().c_str());
      return 1;
    }
    std::printf("loaded model '%s' from %s\n", name.c_str(), path.c_str());
  }

  ServerConfig config;
  config.port = static_cast<uint16_t>(OptionOr(args, "port", 8080.0));
  // 0 = one shard per hardware thread.
  config.num_shards = static_cast<size_t>(OptionOr(args, "shards", 0.0));
  config.batcher.enabled = !args.no_batching;
  config.batcher.max_batch_rows =
      static_cast<size_t>(OptionOr(args, "max-batch", 1024.0));

  PredictionServer server(config, &registry);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving %zu model(s) on 127.0.0.1:%u (%zu shards, "
              "batching %s)\n",
              registry.size(), server.port(), server.num_shards(),
              config.batcher.enabled ? "on" : "off");
  std::fflush(stdout);

  auto pipe = MakeWakePipe();
  if (!pipe.ok()) {
    std::fprintf(stderr, "%s\n", pipe.status().ToString().c_str());
    return 1;
  }
  WakePipe signal_pipe = std::move(pipe).value();
  g_signal_pipe = &signal_pipe;
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  (void)WaitReadable(signal_pipe.read_end.get(), -1);
  std::printf("shutdown signal received, draining...\n");
  std::fflush(stdout);
  server.Shutdown();
  g_signal_pipe = nullptr;
  std::printf("drained; %llu requests served\n",
              static_cast<unsigned long long>(
                  server.Totals().predict.requests));
  return 0;
}

// -- pnr stream --------------------------------------------------------------

// Appends rows [begin, end) of `src` to `dst` (same schema).
void CopyRowRange(const Dataset& src, size_t begin, size_t end, Dataset* dst) {
  const Schema& schema = src.schema();
  for (size_t r = begin; r < end; ++r) {
    const RowId from = static_cast<RowId>(r);
    const RowId to = dst->AddRow();
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const AttrIndex attr = static_cast<AttrIndex>(a);
      if (schema.attribute(attr).is_numeric()) {
        dst->set_numeric(to, attr, src.numeric(from, attr));
      } else {
        dst->set_categorical(to, attr, src.categorical(from, attr));
      }
    }
    dst->set_label(to, src.label(from));
  }
}

// `pnr stream --generate`: writes the synthetic drift scenario — a training
// CSV drawn from the kdd_sim training distribution plus a feed whose first
// --pre rows continue that distribution and whose last --post rows come
// from the shifted test distribution (novel subclasses included). The feed
// is what `pnr stream` then replays or tails.
int StreamGenerate(const Args& args) {
  const auto out_it = args.options.find("out-dir");
  if (out_it == args.options.end()) {
    std::fprintf(stderr, "--generate needs --out-dir <dir>\n");
    return 2;
  }
  const std::string out_dir = out_it->second;
  ::mkdir(out_dir.c_str(), 0755);  // EEXIST is fine
  const size_t train_rows = static_cast<size_t>(OptionOr(args, "train", 20000));
  const size_t pre_rows = static_cast<size_t>(OptionOr(args, "pre", 12000));
  const size_t post_rows = static_cast<size_t>(OptionOr(args, "post", 8000));

  KddSimParams params;
  params.train_records = train_rows + pre_rows;
  params.test_records = post_rows;
  params.seed = static_cast<uint64_t>(OptionOr(args, "seed", 20010521));
  auto sim = GenerateKddSim(params);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }

  Dataset train(sim->train.schema());
  CopyRowRange(sim->train, 0, train_rows, &train);
  Dataset feed(sim->train.schema());
  CopyRowRange(sim->train, train_rows, train_rows + pre_rows, &feed);
  CopyRowRange(sim->test, 0, post_rows, &feed);

  const std::string train_path = out_dir + "/train.csv";
  const std::string feed_path = out_dir + "/feed.csv";
  Status written = WriteCsv(train, train_path, ',');
  if (written.ok()) written = WriteCsv(feed, feed_path, ',');
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows) and %s (%zu rows: %zu pre-drift + %zu "
              "shifted)\n",
              train_path.c_str(), train.num_rows(), feed_path.c_str(),
              feed.num_rows(), pre_rows, post_rows);
  return 0;
}

// `pnr stream`: replay or tail an append-only CSV feed through a compiled
// model with windowed rare-class metrics, PSI drift detection, and
// drift-triggered background retraining + registry hot-swap (DESIGN.md
// §15). The journal, retrained models, and swap sequence are byte-identical
// at any --threads.
int Stream(const Args& args) {
  if (args.generate) return StreamGenerate(args);

  const auto data_it = args.options.find("data");
  const auto model_it = args.options.find("model");
  const auto target_it = args.options.find("target");
  if (data_it == args.options.end() || model_it == args.options.end() ||
      target_it == args.options.end()) {
    std::fprintf(stderr,
                 "pnr stream needs --data <feed.csv>, --model <file>, and "
                 "--target <class>\n");
    return 2;
  }
  const std::string out_dir = args.options.count("out-dir")
                                  ? args.options.at("out-dir")
                                  : std::string("stream_out");
  ::mkdir(out_dir.c_str(), 0755);

  auto schema = LoadSchema(model_it->second + ".schema");
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 1;
  }
  const CategoryId target =
      schema->class_attr().FindCategory(target_it->second);
  if (target == kInvalidCategory) {
    std::fprintf(stderr, "class '%s' is not in the model schema\n",
                 target_it->second.c_str());
    return 1;
  }

  const std::string model_name = args.options.count("model-name")
                                     ? args.options.at("model-name")
                                     : std::string("stream");
  const std::string checkpoint_path = args.options.count("checkpoint")
                                          ? args.options.at("checkpoint")
                                          : std::string();

  // Resume: the checkpoint names the model to reinstall and positions the
  // stream; otherwise the run starts from --model at window 0.
  StreamCheckpoint checkpoint;
  bool resumed = false;
  if (args.resume) {
    if (checkpoint_path.empty()) {
      std::fprintf(stderr, "--resume needs --checkpoint <file>\n");
      return 2;
    }
    auto text = ReadFileToString(checkpoint_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto parsed = ParseStreamCheckpoint(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    checkpoint = std::move(parsed).value();
    resumed = true;
  }

  ModelRegistry registry;
  const std::string initial_model =
      resumed ? checkpoint.model_path : model_it->second;
  Status loaded = registry.Load(model_name, initial_model,
                                initial_model + ".schema");
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }

  // Budget: --threads workers are reserved for scoring; retraining leases
  // up to --train-threads more, so training can never starve the scorer.
  const size_t score_threads =
      std::max<size_t>(1, static_cast<size_t>(OptionOr(args, "threads", 1)));
  const size_t train_threads = std::max<size_t>(
      1, static_cast<size_t>(OptionOr(args, "train-threads", 2)));
  ThreadBudget budget(score_threads + train_threads);
  budget.Reserve(score_threads);

  StreamEngineOptions options;
  options.window_rows =
      static_cast<uint64_t>(OptionOr(args, "window", 1000));
  options.sliding_windows =
      static_cast<size_t>(OptionOr(args, "sliding", 5));
  options.threshold = OptionOr(args, "threshold", 0.5);
  options.score_threads = score_threads;
  options.target = target;
  options.retrain_enabled = !args.no_retrain;
  options.retrain_rows =
      static_cast<uint64_t>(OptionOr(args, "retrain-rows", 6000));
  options.max_swaps = static_cast<uint64_t>(
      OptionOr(args, "max-swaps", static_cast<double>(1ull << 62)));
  options.model_path = initial_model;
  options.checkpoint_path = checkpoint_path;
  options.drift.reference_windows =
      static_cast<size_t>(OptionOr(args, "reference-windows", 4));
  options.drift.psi_threshold = OptionOr(args, "psi-threshold", 0.25);
  options.drift.score_psi_threshold =
      OptionOr(args, "score-psi-threshold", 0.25);
  options.drift.label_psi_threshold =
      OptionOr(args, "label-psi-threshold", 0.05);
  options.drift.confirm_windows =
      static_cast<size_t>(OptionOr(args, "confirm-windows", 2));
  options.retrain.out_dir = out_dir;
  options.retrain.model_name = model_name;
  options.retrain.want_threads = train_threads;
  options.retrain.max_resident_mb =
      static_cast<size_t>(OptionOr(args, "max-resident-mb", 0));
  options.retrain.learner.min_support_fraction =
      OptionOr(args, "min-support", 0.01);

  std::FILE* journal = nullptr;
  if (args.options.count("journal")) {
    journal = std::fopen(args.options.at("journal").c_str(),
                         resumed ? "a" : "w");
    if (journal == nullptr) {
      std::fprintf(stderr, "cannot open journal %s\n",
                   args.options.at("journal").c_str());
      return 1;
    }
  }
  options.line_fn = [journal](const std::string& line) {
    std::printf("%s\n", line.c_str());
    if (journal != nullptr) {
      std::fprintf(journal, "%s\n", line.c_str());
      std::fflush(journal);
    }
  };

  StreamEngine engine(&*schema, &registry, &budget, options);
  if (resumed) {
    Status restored = engine.RestoreCheckpoint(checkpoint);
    if (!restored.ok()) {
      std::fprintf(stderr, "%s\n", restored.ToString().c_str());
      if (journal != nullptr) std::fclose(journal);
      return 1;
    }
    std::printf("resumed at window %llu (%llu swaps so far)\n",
                static_cast<unsigned long long>(checkpoint.windows),
                static_cast<unsigned long long>(checkpoint.swaps));
  }
  Status started = engine.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    if (journal != nullptr) std::fclose(journal);
    return 1;
  }

  // Optional co-hosted serving fleet on the same registry: a hot-swap from
  // the retrain orchestrator is visible to HTTP clients (and in /metrics
  // as pnr_serve_model_version / pnr_serve_model_swaps_total).
  std::unique_ptr<PredictionServer> server;
  if (args.options.count("serve-port")) {
    ServerConfig config;
    config.port =
        static_cast<uint16_t>(OptionOr(args, "serve-port", 8080));
    config.num_shards =
        static_cast<size_t>(OptionOr(args, "serve-shards", 1));
    server = std::make_unique<PredictionServer>(config, &registry);
    Status serve_started = server->Start();
    if (!serve_started.ok()) {
      std::fprintf(stderr, "%s\n", serve_started.ToString().c_str());
      if (journal != nullptr) std::fclose(journal);
      return 1;
    }
    std::printf("serving on 127.0.0.1:%u while streaming\n", server->port());
  }

  FeedTailer::Options tail_options;
  tail_options.catchup_threads = score_threads;
  auto opened = FeedTailer::Open(
      data_it->second, &*schema,
      [&engine](const ParsedRow& row) { engine.Ingest(row); }, tail_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    if (journal != nullptr) std::fclose(journal);
    return 1;
  }
  FeedTailer tailer = std::move(opened).value();

  int exit_code = 0;
  Status pumped = engine.Pump();
  if (pumped.ok() && args.follow) {
    // Tail mode: poll for appended bytes until a stop signal or the idle
    // limit. Determinism still holds — the journal depends only on the
    // bytes, not on how polling sliced them.
    auto pipe = MakeWakePipe();
    if (!pipe.ok()) {
      std::fprintf(stderr, "%s\n", pipe.status().ToString().c_str());
      if (journal != nullptr) std::fclose(journal);
      return 1;
    }
    WakePipe signal_pipe = std::move(pipe).value();
    g_signal_pipe = &signal_pipe;
    struct sigaction action {};
    action.sa_handler = HandleStopSignal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    const int poll_ms =
        std::max(1, static_cast<int>(OptionOr(args, "poll-ms", 200)));
    const int idle_limit =
        static_cast<int>(OptionOr(args, "idle-exit-polls", 0));
    int idle_polls = 0;
    while (pumped.ok()) {
      auto read = tailer.Poll();
      if (!read.ok()) {
        pumped = read.status();
        break;
      }
      if (*read > 0) {
        idle_polls = 0;
        pumped = engine.Pump();
        continue;
      }
      ++idle_polls;
      if (idle_limit > 0 && idle_polls >= idle_limit) break;
      auto woke = WaitReadable(signal_pipe.read_end.get(), poll_ms);
      if (woke.ok() && *woke) break;  // SIGTERM/SIGINT
    }
    g_signal_pipe = nullptr;
  }
  if (pumped.ok()) {
    auto final_read = tailer.Poll();  // drain anything appended meanwhile
    if (final_read.ok()) {
      tailer.Finish();
      pumped = engine.FinishStream();
    } else {
      pumped = final_read.status();
    }
  }
  if (!pumped.ok()) {
    std::fprintf(stderr, "%s\n", pumped.ToString().c_str());
    exit_code = 1;
  }

  const FeedParser& parser = tailer.parser();
  std::printf("stream done: %llu rows, %llu windows, %llu swaps, %llu "
              "rejected lines\n",
              static_cast<unsigned long long>(engine.rows_ingested()),
              static_cast<unsigned long long>(engine.windows_processed()),
              static_cast<unsigned long long>(engine.swaps_done()),
              static_cast<unsigned long long>(parser.error_count()));
  for (const std::string& error : parser.errors()) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  if (server != nullptr) server->Shutdown();
  if (journal != nullptr) std::fclose(journal);
  return exit_code;
}

// One predict request against a running server: JSON by default, the
// compact binary frame with --binary (which needs the schema sidecar to
// lay out columns). The smoke test drives both protocols through this.
int Probe(const Args& args) {
  const uint16_t port = static_cast<uint16_t>(OptionOr(args, "port", 8080.0));
  const auto row_it = args.options.find("row");
  if (row_it == args.options.end()) {
    std::fprintf(stderr, "--row is required, e.g. --row \"x=0.5,color=red\"\n");
    return 2;
  }
  std::vector<std::pair<std::string, std::string>> cells;
  for (const std::string& part : SplitString(row_it->second, ',')) {
    if (part.empty()) continue;
    const size_t eq = part.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "--row entry '%s' is not attr=value\n",
                   part.c_str());
      return 2;
    }
    cells.emplace_back(part.substr(0, eq), part.substr(eq + 1));
  }
  const auto model_it = args.options.find("model");
  const std::string model =
      model_it == args.options.end() ? "" : model_it->second;

  if (args.options.count("binary") != 0 || args.binary) {
    const auto schema_it = args.options.find("schema");
    if (schema_it == args.options.end()) {
      std::fprintf(stderr, "--binary needs --schema <model>.schema\n");
      return 2;
    }
    auto schema = LoadSchema(schema_it->second);
    if (!schema.ok()) {
      std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
      return 1;
    }
    std::string payload;
    const Status encoded = EncodeBinaryRowFromText(*schema, cells, &payload);
    if (!encoded.ok()) {
      std::fprintf(stderr, "%s\n", encoded.ToString().c_str());
      return 1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      std::perror("socket");
      return 1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::perror("connect");
      ::close(fd);
      return 1;
    }
    const std::string frame = EncodeBinaryRequest(model, payload);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent, 0);
      if (n <= 0) {
        std::perror("send");
        ::close(fd);
        return 1;
      }
      sent += static_cast<size_t>(n);
    }
    std::string data;
    char buf[4096];
    BinaryResponse response;
    size_t consumed = 0;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0) {
        std::perror("recv");
        ::close(fd);
        return 1;
      }
      if (n == 0) {
        std::fprintf(stderr, "connection closed mid-response\n");
        ::close(fd);
        return 1;
      }
      data.append(buf, static_cast<size_t>(n));
      const Status parsed = ParseBinaryResponse(data, &response, &consumed);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
        ::close(fd);
        return 1;
      }
      if (consumed > 0) break;
    }
    ::close(fd);
    if (response.status != BinaryStatus::kOk) {
      std::fprintf(stderr, "binary status %d: %s\n",
                   static_cast<int>(response.status),
                   response.error.c_str());
      return 1;
    }
    std::printf("binary ok: score %.17g predicted %d\n", response.scores[0],
                static_cast<int>(response.predicted[0]));
    return 0;
  }

  // JSON path: every value travels as a string — the server re-parses
  // numerics through ParseDouble, so typed encoding is unnecessary here.
  std::string body = "{";
  if (!model.empty()) {
    body += "\"model\":";
    AppendJsonString(&body, model);
    body += ',';
  }
  body += "\"rows\":[{";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) body += ',';
    AppendJsonString(&body, cells[i].first);
    body += ':';
    AppendJsonString(&body, cells[i].second);
  }
  body += "}]}";
  auto connect = HttpClient::Connect(port);
  if (!connect.ok()) {
    std::fprintf(stderr, "%s\n", connect.status().ToString().c_str());
    return 1;
  }
  HttpClient client = std::move(connect).value();
  auto response = client.Roundtrip("POST", "/v1/predict", body);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("HTTP %d %s\n", response->status, response->body.c_str());
  return response->status == 200 ? 0 : 1;
}

}  // namespace

// Handlers paired positionally with kPnrSubcommands (cli/usage.h); the
// static_assert keeps the two tables the same length, and cli_usage_test
// keeps every listed subcommand present in the usage text.
int (*const kHandlers[])(const Args&) = {
    Train, Eval, Predict, Shard, Mine, Serve, Probe, Tune, Stream,
};
static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) == kNumPnrSubcommands,
              "dispatch table out of sync with kPnrSubcommands");

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  for (size_t i = 0; i < kNumPnrSubcommands; ++i) {
    if (args.command == kPnrSubcommands[i]) return kHandlers[i](args);
  }
  return Usage();
}
