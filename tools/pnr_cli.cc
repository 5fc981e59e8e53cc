// pnr: command-line PNrule — train on a CSV, evaluate, save/load models,
// score new data, serve, tune and stream. The "downstream user" entry
// point that needs no C++.
//
// Every subcommand's flags are declared once, in src/cli/flags.cc; `pnr`
// with no arguments prints the usage rendered from that table. main()
// parses the command line against it before any handler runs, and the
// handlers below read typed values only.

#include <signal.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "assoc/cba.h"
#include "assoc/model_io.h"
#include "cli/flags.h"
#include "common/file_io.h"
#include "common/line_format.h"
#include "common/net.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/ingest.h"
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
using cli::Flags;

// Prints `status` after `what` and returns the exit code of a failed run.
int Fail(const Status& status, const char* what = "") {
  std::fprintf(stderr, "%s%s\n", what, status.ToString().c_str());
  return 1;
}

// A bad command line the table alone cannot catch (a required flag left
// out, a malformed --row): reported like the parser's errors, exit 2.
int UsageError(const Flags& flags, const std::string& message) {
  std::fprintf(stderr, "pnr %s: %s\n%s", flags.command().name,
               message.c_str(), cli::UsageText(flags.command()).c_str());
  return 2;
}

// 0 when every flag in `names` is set, else the usage error for the first
// one missing.
int Require(const Flags& flags, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (!flags.Has(name)) {
      return UsageError(flags, std::string("--") + name + " is required");
    }
  }
  return 0;
}

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

// Paging budget in bytes from --max-resident-mb (0 = load fully). The cap
// keeps an absurd budget from overflowing the byte count.
size_t ResidentBudgetBytes(const Flags& flags) {
  double mb = 0.0;
  flags.Read("max-resident-mb", &mb);
  return mb > 0.0 ? static_cast<size_t>(std::min(mb, 1e12) * 1024.0 * 1024.0)
                  : 0;
}

StatusOr<Dataset> LoadData(const Flags& flags) {
  const std::string& path = flags.Text("data");
  if (SniffShardStore(path)) {
    auto reader = ShardStoreReader::Open(path);
    if (!reader.ok()) return reader.status();
    const size_t budget = ResidentBudgetBytes(flags);
    if (budget > 0) return MakePagedDataset(*reader, budget);
    return (*reader)->LoadDataset();
  }
  CsvReadOptions options;
  flags.Read("class-column", &options.class_column);
  IngestOptions ingest;
  flags.Read("threads", &ingest.num_threads);
  return IngestEngine(ingest).LoadCsv(path, options);
}

StatusOr<CategoryId> ResolveTarget(const Flags& flags, const Dataset& data) {
  const std::string& name = flags.Text("target");
  const CategoryId target = data.schema().class_attr().FindCategory(name);
  if (target == kInvalidCategory) {
    return Status::NotFound("class '" + name + "' does not occur in the data");
  }
  return target;
}

BatchScoreOptions BatchOptions(const Flags& flags) {
  BatchScoreOptions options;
  flags.Read("threads", &options.num_threads);
  return options;
}

// Writes the model to --model (when given), then the `.schema` sidecar
// that lets `pnr serve` load it with no training data on hand.
template <typename Model>
int SaveModel(const Flags& flags, const Model& model, const Schema& schema,
              std::string (*serialize)(const Model&, const Schema&)) {
  if (!flags.Has("model")) return 0;
  const std::string& path = flags.Text("model");
  const std::string schema_path = path + ".schema";
  Status saved = WriteStringToFile(serialize(model, schema), path);
  if (saved.ok()) saved = SaveSchema(schema, schema_path);
  if (!saved.ok()) return Fail(saved);
  std::printf("model written to %s (schema sidecar: %s)\n", path.c_str(),
              schema_path.c_str());
  return 0;
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

int TrainMultiClass(const Flags& flags, const Dataset& data,
                    const PnruleConfig& config) {
  MultiClassPnruleLearner learner(config);
  size_t train_threads = 0;
  if (flags.Read("train-threads", &train_threads)) {
    learner.set_train_threads(train_threads);
  }
  MultiClassTrainReport report;
  auto model = learner.Train(data, &report);
  PrintTrainReport(report);
  if (!model.ok()) return Fail(model.status(), "training failed: ");
  std::printf("training-set accuracy: %.4f\n",
              MultiClassAccuracy(*model, data, BatchOptions(flags)));
  return SaveModel(flags, *model, data.schema(), SerializeMultiClassModel);
}

int Train(const Flags& flags) {
  const bool multiclass = flags.Has("multiclass");
  if (int rc = Require(flags, {"data"})) return rc;
  if (!multiclass) {
    if (int rc = Require(flags, {"target"})) return rc;
  }
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  PnruleConfig config;
  flags.Read("rp", &config.min_coverage_fraction);
  flags.Read("rn", &config.n_recall_lower_limit);
  flags.Read("min-support", &config.min_support_fraction);
  flags.Read("threads", &config.num_threads);
  // Out-of-core runs bound the search cache by the same budget that pages
  // the dataset; in-core runs keep it unbounded. Either way the model
  // bytes are unchanged.
  config.search_cache_budget_bytes = ResidentBudgetBytes(flags);
  if (flags.Has("p1")) config.max_p_rule_length = 1;
  if (multiclass) return TrainMultiClass(flags, *data, config);

  auto target = ResolveTarget(flags, *data);
  if (!target.ok()) return Fail(target.status());
  auto model = PnruleLearner(config).Train(*data, *target);
  if (!model.ok()) return Fail(model.status(), "training failed: ");
  std::printf("%s", model->Describe(data->schema()).c_str());
  const Confusion train_eval = EvaluateClassifier(*model, *data, *target);
  std::printf("training-set fit: %s\n", train_eval.ToString().c_str());
  return SaveModel(flags, *model, data->schema(), SerializePnruleModel);
}

// True when `text` is a one-vs-rest committee, which only `pnr eval`
// scores: it predicts a class per row, not a score for one target.
bool IsCommittee(const std::string& text) {
  LineCursor probe(text, "model");
  Fields header;
  return probe.Next(&header) && header.TakeKeyword("pnrule-multiclass");
}

// Parses --model's text with either binary family (the header is
// sniffed), applying --threshold.
StatusOr<std::unique_ptr<BinaryClassifier>> ParseModel(
    const Flags& flags, const std::string& text, const Dataset& data) {
  auto model = ParseAnyModel(text, data.schema());
  if (!model.ok()) return model.status();
  std::unique_ptr<BinaryClassifier> classifier =
      std::move(model).value().classifier;
  double threshold = classifier->threshold();
  flags.Read("threshold", &threshold);
  classifier->set_threshold(threshold);
  return classifier;
}

// `pnr shard`: rewrite --data as a compressed columnar shard file that the
// other subcommands accept in place of the CSV (and can demand-page).
int Shard(const Flags& flags) {
  if (int rc = Require(flags, {"data", "out"})) return rc;
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  ShardStoreWriteOptions options;
  uint64_t shards = options.num_shards;
  flags.Read("shards", &shards);
  // The writer caps the shard count at one per row.
  options.num_shards = static_cast<uint32_t>(
      std::min<uint64_t>(shards, std::numeric_limits<uint32_t>::max()));
  const Status written = WriteShardStore(*data, flags.Text("out"), options);
  if (!written.ok()) return Fail(written);
  const uint64_t written_shards =
      shards == 0 ? 1 : std::min<uint64_t>(shards, data->num_rows());
  std::printf("wrote %zu rows x %zu attrs in %llu shard(s) to %s\n",
              data->num_rows(), data->schema().num_attributes(),
              static_cast<unsigned long long>(written_shards),
              flags.Text("out").c_str());
  return 0;
}

int Eval(const Flags& flags) {
  if (int rc = Require(flags, {"data", "model"})) return rc;
  auto text = ReadFileToString(flags.Text("model"));
  if (!text.ok()) return Fail(text.status());
  const bool committee = IsCommittee(*text);
  if (!committee) {
    if (int rc = Require(flags, {"target"})) return rc;
  }
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  if (committee) {
    auto model = ParseMultiClassModel(*text, data->schema());
    if (!model.ok()) return Fail(model.status());
    std::printf("accuracy: %.4f\n",
                MultiClassAccuracy(*model, *data, BatchOptions(flags)));
    return 0;
  }
  auto target = ResolveTarget(flags, *data);
  if (!target.ok()) return Fail(target.status());
  auto model = ParseModel(flags, *text, *data);
  if (!model.ok()) return Fail(model.status());
  const BatchScoreOptions batch = BatchOptions(flags);
  const Confusion c = EvaluateClassifier(**model, *data, *target, batch);
  std::printf("%s\n", c.ToString().c_str());
  const RankingSummary ranking =
      SummarizeRanking(**model, *data, *target, batch);
  std::printf("ROC-AUC=%.4f PR-AUC=%.4f\n", ranking.roc_auc,
              ranking.pr_auc);
  return 0;
}

int Predict(const Flags& flags) {
  if (int rc = Require(flags, {"data", "model"})) return rc;
  auto text = ReadFileToString(flags.Text("model"));
  if (!text.ok()) return Fail(text.status());
  if (IsCommittee(*text)) {
    std::fprintf(stderr,
                 "pnr predict: %s is a one-vs-rest committee, which predicts "
                 "a class per row rather than a score; evaluate it with "
                 "`pnr eval`\n",
                 flags.Text("model").c_str());
    return 1;
  }
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto model = ParseModel(flags, *text, *data);
  if (!model.ok()) return Fail(model.status());
  const BatchScoreOptions batch = BatchOptions(flags);
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
int Tune(const Flags& flags) {
  if (int rc = Require(flags, {"target"})) return rc;
  const bool synth = flags.Has("synth");
  if (synth && flags.Text("synth") != "kdd") {
    return UsageError(flags, "unknown --synth generator '" +
                                 flags.Text("synth") + "' (valid: kdd)");
  }
  if (!synth) {
    if (int rc = Require(flags, {"data"})) return rc;
  }
  RacerOptions options;
  flags.Read("folds", &options.num_folds);
  flags.Read("seed", &options.seed);
  flags.Read("budget", &options.max_evals);
  flags.Read("z", &options.confidence_z);
  flags.Read("keep", &options.keep_fraction);
  flags.Read("threads", &options.num_threads);
  if (flags.Has("metric") &&
      !ParseTuneMetric(flags.Text("metric"), &options.metric)) {
    return UsageError(flags, "unknown --metric '" + flags.Text("metric") +
                                 "' (valid: recall precision f)");
  }

  // Data: a CSV file or the kdd_sim generator.
  Dataset train(Schema{});
  Dataset test(Schema{});
  std::string dataset_desc;
  if (synth) {
    KddSimParams params;
    // A quick race, not the generator's paper-scale default split.
    params.train_records = 20000;
    params.test_records = 12000;
    flags.Read("synth-train", &params.train_records);
    flags.Read("synth-test", &params.test_records);
    flags.Read("seed", &params.seed);
    auto data = GenerateKddSim(params);
    if (!data.ok()) return Fail(data.status(), "kdd_sim: ");
    KddSimData sim = std::move(data).value();
    train = std::move(sim.train);
    test = std::move(sim.test);
    dataset_desc = "kdd_sim train=" + std::to_string(params.train_records) +
                   " test=" + std::to_string(params.test_records);
  } else {
    auto data = LoadData(flags);
    if (!data.ok()) return Fail(data.status());
    train = std::move(data).value();
    dataset_desc = flags.Text("data") + " rows=" +
                   std::to_string(train.num_rows());
  }
  const std::string& target_name = flags.Text("target");
  auto target = ResolveTarget(flags, train);
  if (!target.ok()) return Fail(target.status());

  // Grid: --config file or the built-in default space.
  ConfigSpace space = ConfigSpace::Default();
  if (flags.Has("config")) {
    auto text = ReadFileToString(flags.Text("config"));
    if (!text.ok()) return Fail(text.status());
    auto parsed = ConfigSpace::Parse(*text);
    if (!parsed.ok()) return Fail(parsed.status());
    space = std::move(parsed).value();
  }
  const std::vector<TrialConfig> configs = space.Enumerate(PnruleConfig{});

  std::printf("racing %zu configurations over %zu folds on %s "
              "(objective %s)...\n",
              configs.size(), options.num_folds, dataset_desc.c_str(),
              TuneMetricName(options.metric));
  std::fflush(stdout);
  Racer racer(options);
  auto result = racer.Race(train, *target, configs);
  if (!result.ok()) return Fail(result.status());

  TuneReport report;
  report.dataset = dataset_desc;
  report.target = target_name;
  report.options = options;
  report.configs = configs;
  report.result = std::move(result).value();
  std::printf("%s", RenderTuneMarkdown(report).c_str());

  // Held-out comparison (synth mode): winner vs default config, trained on
  // the full training split, evaluated on the shifted test split.
  if (synth) {
    const CategoryId test_target =
        test.schema().class_attr().FindCategory(target_name);
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
                                             *target, options.num_threads);
      if (!classifier.ok()) {
        return Fail(classifier.status(), "training failed: ");
      }
      BatchScoreOptions batch;
      batch.num_threads = options.num_threads;
      const Confusion c =
          EvaluateClassifier(**classifier, test, test_target, batch);
      std::printf("  %-8s %s\n", contender.name, c.ToString().c_str());
    }
  }

  if (flags.Has("out")) {
    const std::string& out = flags.Text("out");
    const Status written = WriteTuneArtifacts(report, out);
    if (!written.ok()) return Fail(written);
    std::printf("\nartifacts written to %s/EXPERIMENTS.md and "
                "%s/BENCH_tune.json\n",
                out.c_str(), out.c_str());
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
int Mine(const Flags& flags) {
  if (int rc = Require(flags, {"data", "target"})) return rc;
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto target = ResolveTarget(flags, *data);
  if (!target.ok()) return Fail(target.status());

  AssocMineOptions options;
  flags.Read("min-support", &options.min_support);
  flags.Read("per-class-support", &options.per_class_min_support);
  flags.Read("min-conf", &options.min_confidence);
  flags.Read("min-lift", &options.min_lift);
  flags.Read("max-len", &options.max_len);
  flags.Read("bins", &options.discretize.max_bins);
  flags.Read("threads", &options.num_threads);

  std::vector<RowId> rows(data->num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  auto mined = MineCba(*data, rows, *target, options);
  if (!mined.ok()) return Fail(mined.status(), "mining failed: ");
  AssocClassifier model = std::move(mined->model);
  double threshold = model.threshold();
  flags.Read("threshold", &threshold);
  model.set_threshold(threshold);
  const MineStats& stats = mined->stats;
  std::printf("mined %zu items (%zu numeric attrs discretized), "
              "%zu frequent itemsets (%zu rescued by per-class support),\n"
              "      %zu candidate rules -> %zu selected\n",
              stats.num_items, stats.discretized_attrs,
              stats.frequent_itemsets, stats.itemsets_rescued,
              stats.rules_generated, stats.rules_selected);
  std::printf("%s", model.Describe(data->schema()).c_str());
  const Confusion train_eval =
      EvaluateClassifier(model, *data, *target, BatchOptions(flags));
  std::printf("training-set fit: %s\n", train_eval.ToString().c_str());
  return SaveModel(flags, model, data->schema(), SerializeAssocModel);
}

// SIGTERM/SIGINT handling: the handler may only touch async-signal-safe
// state, so it writes one byte to a pipe; the main thread polls the read
// end and runs the (mutex-taking) graceful shutdown itself.
WakePipe g_stop_pipe;

void HandleStopSignal(int) { g_stop_pipe.Wake(); }

// Routes SIGTERM/SIGINT to g_stop_pipe and returns its read end.
StatusOr<int> CatchStopSignals() {
  auto pipe = MakeWakePipe();
  if (!pipe.ok()) return pipe.status();
  g_stop_pipe = std::move(pipe).value();
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  return g_stop_pipe.read_end.get();
}

int Serve(const Flags& flags) {
  if (int rc = Require(flags, {"models"})) return rc;
  ModelRegistry registry;
  for (const std::string& spec : SplitString(flags.Text("models"), ',')) {
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
  flags.Read("port", &config.port);
  // The CLI serves on every core unless told otherwise; library callers
  // get one shard.
  config.num_shards = 0;
  flags.Read("shards", &config.num_shards);
  config.batcher.enabled = !flags.Has("no-batching");
  flags.Read("max-batch", &config.batcher.max_batch_rows);

  PredictionServer server(config, &registry);
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("serving %zu model(s) on 127.0.0.1:%u (%zu shards, "
              "batching %s)\n",
              registry.size(), server.port(), server.num_shards(),
              config.batcher.enabled ? "on" : "off");
  std::fflush(stdout);

  auto stop_fd = CatchStopSignals();
  if (!stop_fd.ok()) return Fail(stop_fd.status());
  (void)WaitReadable(*stop_fd, -1);
  std::printf("shutdown signal received, draining...\n");
  std::fflush(stdout);
  server.Shutdown();
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
int StreamGenerate(const Flags& flags) {
  if (int rc = Require(flags, {"out-dir"})) return rc;
  const std::string& out_dir = flags.Text("out-dir");
  ::mkdir(out_dir.c_str(), 0755);  // EEXIST is fine
  size_t train_rows = 20000;
  size_t pre_rows = 12000;
  size_t post_rows = 8000;
  flags.Read("train", &train_rows);
  flags.Read("pre", &pre_rows);
  flags.Read("post", &post_rows);

  KddSimParams params;
  params.train_records = train_rows + pre_rows;
  params.test_records = post_rows;
  flags.Read("seed", &params.seed);
  auto sim = GenerateKddSim(params);
  if (!sim.ok()) return Fail(sim.status());

  Dataset train(sim->train.schema());
  CopyRowRange(sim->train, 0, train_rows, &train);
  Dataset feed(sim->train.schema());
  CopyRowRange(sim->train, train_rows, train_rows + pre_rows, &feed);
  CopyRowRange(sim->test, 0, post_rows, &feed);

  const std::string train_path = out_dir + "/train.csv";
  const std::string feed_path = out_dir + "/feed.csv";
  Status written = WriteCsv(train, train_path, ',');
  if (written.ok()) written = WriteCsv(feed, feed_path, ',');
  if (!written.ok()) return Fail(written);
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
int Stream(const Flags& flags) {
  if (flags.Has("generate")) return StreamGenerate(flags);
  if (int rc = Require(flags, {"data", "model", "target"})) return rc;
  const std::string checkpoint_path = flags.Text("checkpoint");
  const bool resume = flags.Has("resume");
  if (resume && checkpoint_path.empty()) {
    return UsageError(flags, "--resume needs --checkpoint <file>");
  }
  std::string out_dir = "stream_out";
  flags.Read("out-dir", &out_dir);
  ::mkdir(out_dir.c_str(), 0755);

  const std::string& model_path = flags.Text("model");
  auto schema = LoadSchema(model_path + ".schema");
  if (!schema.ok()) return Fail(schema.status());
  const std::string& target_name = flags.Text("target");
  const CategoryId target = schema->class_attr().FindCategory(target_name);
  if (target == kInvalidCategory) {
    std::fprintf(stderr, "class '%s' is not in the model schema\n",
                 target_name.c_str());
    return 1;
  }
  std::string model_name = "stream";
  flags.Read("model-name", &model_name);

  // Resume: the checkpoint names the model to reinstall and positions the
  // stream; otherwise the run starts from --model at window 0.
  StreamCheckpoint checkpoint;
  if (resume) {
    auto text = ReadFileToString(checkpoint_path);
    if (!text.ok()) return Fail(text.status());
    auto parsed = ParseStreamCheckpoint(*text);
    if (!parsed.ok()) return Fail(parsed.status());
    checkpoint = std::move(parsed).value();
  }

  ModelRegistry registry;
  const std::string initial_model =
      resume ? checkpoint.model_path : model_path;
  Status loaded = registry.Load(model_name, initial_model,
                                initial_model + ".schema");
  if (!loaded.ok()) return Fail(loaded);

  StreamEngineOptions options;
  flags.Read("window", &options.window_rows);
  flags.Read("sliding", &options.sliding_windows);
  flags.Read("threshold", &options.threshold);
  flags.Read("threads", &options.score_threads);
  flags.Read("train-threads", &options.retrain.want_threads);
  // Budget: --threads workers are reserved for scoring; retraining leases
  // up to --train-threads more, so training can never starve the scorer.
  options.score_threads = std::max<size_t>(1, options.score_threads);
  options.retrain.want_threads =
      std::max<size_t>(1, options.retrain.want_threads);
  ThreadBudget budget(options.score_threads + options.retrain.want_threads);
  budget.Reserve(options.score_threads);

  options.target = target;
  options.retrain_enabled = !flags.Has("no-retrain");
  flags.Read("retrain-rows", &options.retrain_rows);
  flags.Read("max-swaps", &options.max_swaps);
  options.model_path = initial_model;
  options.checkpoint_path = checkpoint_path;
  flags.Read("reference-windows", &options.drift.reference_windows);
  flags.Read("psi-threshold", &options.drift.psi_threshold);
  flags.Read("score-psi-threshold", &options.drift.score_psi_threshold);
  flags.Read("label-psi-threshold", &options.drift.label_psi_threshold);
  flags.Read("confirm-windows", &options.drift.confirm_windows);
  options.retrain.out_dir = out_dir;
  options.retrain.model_name = model_name;
  flags.Read("max-resident-mb", &options.retrain.max_resident_mb);
  flags.Read("min-support", &options.retrain.learner.min_support_fraction);

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> journal(nullptr,
                                                          &std::fclose);
  if (flags.Has("journal")) {
    journal.reset(std::fopen(flags.Text("journal").c_str(),
                             resume ? "a" : "w"));
    if (journal == nullptr) {
      std::fprintf(stderr, "cannot open journal %s\n",
                   flags.Text("journal").c_str());
      return 1;
    }
  }
  options.line_fn = [file = journal.get()](const std::string& line) {
    std::printf("%s\n", line.c_str());
    if (file != nullptr) {
      std::fprintf(file, "%s\n", line.c_str());
      std::fflush(file);
    }
  };

  StreamEngine engine(&*schema, &registry, &budget, options);
  if (resume) {
    Status restored = engine.RestoreCheckpoint(checkpoint);
    if (!restored.ok()) return Fail(restored);
    std::printf("resumed at window %llu (%llu swaps so far)\n",
                static_cast<unsigned long long>(checkpoint.windows),
                static_cast<unsigned long long>(checkpoint.swaps));
  }
  Status started = engine.Start();
  if (!started.ok()) return Fail(started);

  // Optional co-hosted serving fleet on the same registry: a hot-swap from
  // the retrain orchestrator is visible to HTTP clients (and in /metrics
  // as pnr_serve_model_version / pnr_serve_model_swaps_total).
  std::unique_ptr<PredictionServer> server;
  ServerConfig serve_config;
  if (flags.Read("serve-port", &serve_config.port)) {
    flags.Read("serve-shards", &serve_config.num_shards);
    server = std::make_unique<PredictionServer>(serve_config, &registry);
    Status serve_started = server->Start();
    if (!serve_started.ok()) return Fail(serve_started);
    std::printf("serving on 127.0.0.1:%u while streaming\n", server->port());
  }

  auto opened = FeedTailer::Open(
      flags.Text("data"), &*schema,
      [&engine](const ParsedRow& row) { engine.Ingest(row); });
  if (!opened.ok()) return Fail(opened.status());
  FeedTailer tailer = std::move(opened).value();

  int exit_code = 0;
  Status pumped = engine.Pump();
  if (pumped.ok() && flags.Has("follow")) {
    // Tail mode: poll for appended bytes until a stop signal or the idle
    // limit. Determinism still holds — the journal depends only on the
    // bytes, not on how polling sliced them.
    auto stop_fd = CatchStopSignals();
    if (!stop_fd.ok()) return Fail(stop_fd.status());
    uint64_t poll_ms = 200;
    uint64_t idle_limit = 0;  // 0 = never exit on idleness
    flags.Read("poll-ms", &poll_ms);
    flags.Read("idle-exit-polls", &idle_limit);
    const int poll_timeout =
        static_cast<int>(std::clamp<uint64_t>(poll_ms, 1, 1 << 30));
    uint64_t idle_polls = 0;
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
      auto woke = WaitReadable(*stop_fd, poll_timeout);
      if (woke.ok() && *woke) break;  // SIGTERM/SIGINT
    }
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
  if (!pumped.ok()) exit_code = Fail(pumped);

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
  return exit_code;
}

// One predict request against a running server: JSON by default, the
// compact binary frame with --binary (which needs the schema sidecar to
// lay out columns). The smoke tests drive both protocols through this.
int Probe(const Flags& flags) {
  if (int rc = Require(flags, {"row"})) return rc;
  uint16_t port = ServerConfig{}.port;
  flags.Read("port", &port);
  std::vector<std::pair<std::string, std::string>> cells;
  for (const std::string& part : SplitString(flags.Text("row"), ',')) {
    if (part.empty()) continue;
    const size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return UsageError(flags, "--row entry '" + part + "' is not attr=value");
    }
    cells.emplace_back(part.substr(0, eq), part.substr(eq + 1));
  }
  const std::string& model = flags.Text("model");

  if (flags.Has("binary")) {
    if (int rc = Require(flags, {"schema"})) return rc;
    auto schema = LoadSchema(flags.Text("schema"));
    if (!schema.ok()) return Fail(schema.status());
    std::string payload;
    const Status encoded = EncodeBinaryRowFromText(*schema, cells, &payload);
    if (!encoded.ok()) return Fail(encoded);
    auto conn = ConnectLoopback(port);
    if (!conn.ok()) return Fail(conn.status());
    const Status sent =
        SendAll(conn->get(), EncodeBinaryRequest(model, payload));
    if (!sent.ok()) return Fail(sent);
    std::string data;
    char buf[4096];
    BinaryResponse response;
    size_t consumed = 0;
    while (consumed == 0) {
      auto n = RecvSome(conn->get(), buf, sizeof(buf), 30000);
      if (!n.ok()) return Fail(n.status());
      if (*n == 0) {
        std::fprintf(stderr, "connection closed mid-response\n");
        return 1;
      }
      data.append(buf, *n);
      const Status parsed = ParseBinaryResponse(data, &response, &consumed);
      if (!parsed.ok()) return Fail(parsed);
    }
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
  if (!connect.ok()) return Fail(connect.status());
  HttpClient client = std::move(connect).value();
  auto response = client.Roundtrip("POST", "/v1/predict", body);
  if (!response.ok()) return Fail(response.status());
  std::printf("HTTP %d %s\n", response->status, response->body.c_str());
  return response->status == 200 ? 0 : 1;
}

struct Handler {
  const char* command;
  int (*run)(const Flags&);
};

constexpr Handler kHandlers[] = {
    {"train", Train}, {"eval", Eval},   {"predict", Predict},
    {"shard", Shard}, {"mine", Mine},   {"serve", Serve},
    {"probe", Probe}, {"tune", Tune},   {"stream", Stream},
};

}  // namespace

int main(int argc, char** argv) {
  const cli::Command* command =
      argc >= 2 ? cli::FindCommand(argv[1]) : nullptr;
  if (command == nullptr) {
    std::fprintf(stderr, "%s", cli::UsageText().c_str());
    return 2;
  }
  auto flags = cli::ParseFlags(*command,
                               std::vector<std::string>(argv + 2, argv + argc));
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n%s", flags.status().message().c_str(),
                 cli::UsageText(*command).c_str());
    return 2;
  }
  for (const Handler& handler : kHandlers) {
    if (std::string_view(handler.command) == command->name) {
      return handler.run(*flags);
    }
  }
  std::fprintf(stderr, "pnr %s: declared in src/cli/flags.cc but has no "
               "handler\n", command->name);
  return 2;
}
