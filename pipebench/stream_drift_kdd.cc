// stream_drift_kdd: the drift loop. The kdd_sim drift scenario (stationary
// traffic, then the shifted test distribution with its r2l surge) is
// rendered as feed CSV; each pass replays it through FeedParser::Append in
// fixed-size fragments, StreamEngine::Ingest and Pump with retraining on,
// until the one drift-triggered swap, then FinishStream. The retrain is a
// small in-RAM PNrule run on a background thread, concurrent with
// ingestion, and scoring runs at the window size.

#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "eval/confusion.h"
#include "pnrule/model_io.h"
#include "serve/registry.h"
#include "stream/engine.h"
#include "synth/kdd_sim.h"

namespace pipebench {
namespace {

using namespace pnr;

constexpr size_t kScoreThreads = 1;
constexpr size_t kRetrainThreads = 1;

struct Sizes {
  size_t fragment_bytes;  ///< fixed for a run, drawn from its seed
  size_t base_rows;  ///< stationary rows the initial model is trained on
  size_t pre_rows;   ///< stationary feed rows
  size_t post_rows;  ///< shifted feed rows
  uint64_t window_rows;
  uint64_t retrain_rows;
};

Sizes SizesFor(const Options& options) {
  const size_t fragment_bytes = 64 * 1024 + (options.seed % 16) * 256;
  if (options.quick) return {fragment_bytes, 4000, 8000, 8000, 500, 3000};
  return {fragment_bytes, 30000, 120000, 240000, 2000, 12000};
}

struct StreamSetup {
  Schema schema;
  CategoryId target = kInvalidCategory;
  std::string base_model;  ///< serialized initial PNrule model
  std::string feed;        ///< header, stationary rows, shifted rows
  std::optional<Dataset> probe;  ///< the shifted rows, for the scoring probe
};

std::unique_ptr<StreamSetup> MakeSetup(const Options& options,
                                       const Sizes& sizes) {
  KddSimParams params;
  params.train_records = sizes.base_rows + sizes.pre_rows;
  params.test_records = sizes.post_rows;
  params.seed = DeriveSeed(DataSeed(options), 3);
  StatusOr<KddSimData> generated = GenerateKddSim(params);
  if (!generated.ok()) {
    throw std::runtime_error("kdd_sim: " + generated.status().ToString());
  }
  auto setup = std::make_unique<StreamSetup>();
  setup->schema = generated->train.schema();
  setup->target = setup->schema.class_attr().FindCategory("r2l");
  if (setup->target == kInvalidCategory) {
    throw std::runtime_error("kdd_sim has no r2l class");
  }
  const Dataset base = CopyRows(generated->train, 0, sizes.base_rows);
  const StatusOr<PnruleClassifier> model =
      PnruleLearner().Train(base, setup->target);
  if (!model.ok()) {
    throw std::runtime_error("base model: " + model.status().ToString());
  }
  setup->base_model = SerializePnruleModel(*model, setup->schema);
  setup->feed = RenderCsv(generated->train, sizes.base_rows,
                          generated->train.num_rows(), true) +
                RenderCsv(generated->test, 0, generated->test.num_rows(),
                          false);
  setup->probe.emplace(std::move(generated).value().test);
  return setup;
}

struct ReplayOutput {
  double seconds = 0.0;  ///< first fragment to FinishStream returning
  double swap_lag_s = 0.0;
  uint64_t events = 0;
  std::string journal;
  std::string model;  ///< the retrained model file
  uint64_t swaps = 0;
  uint64_t windows = 0;
  uint64_t retrain_rows = 0;
  Confusion post_swap;
};

ReplayOutput Replay(const StreamSetup& setup, const Sizes& sizes,
                    const std::string& dir, Tracer* tracer, Result* result) {
  ModelRegistry registry;
  StatusOr<PnruleClassifier> base =
      ParsePnruleModel(setup.base_model, setup.schema);
  if (!base.ok()) {
    throw std::runtime_error("base model parse: " + base.status().ToString());
  }
  registry.Install("stream", setup.schema, std::move(base).value());
  ThreadBudget budget(kScoreThreads + kRetrainThreads);
  budget.Reserve(kScoreThreads);

  StreamEngineOptions options;
  options.window_rows = sizes.window_rows;
  options.score_threads = kScoreThreads;
  options.target = setup.target;
  options.retrain_enabled = true;
  options.retrain_rows = sizes.retrain_rows;
  options.max_swaps = 1;
  options.model_path = dir + "/base_model.txt";
  options.retrain.out_dir = dir;
  options.retrain.want_threads = kRetrainThreads;
  StreamEngine engine(&setup.schema, &registry, &budget, options);
  const Status started = engine.Start();
  if (!started.ok()) {
    throw std::runtime_error("stream start: " + started.ToString());
  }

  // Parsed rows are staged in reused slots, so parsing and the engine's
  // ingest get separate spans without a per-row allocation.
  FeedParser parser(&setup.schema, "feed");
  std::vector<ParsedRow> staged;
  size_t staged_count = 0;
  parser.set_row_fn([&](const ParsedRow& row) {
    if (staged_count == staged.size()) {
      staged.push_back(row);
    } else {
      staged[staged_count] = row;
    }
    ++staged_count;
  });
  const auto ingest_staged = [&] {
    tracer->Run("stream.ingest", [&] {
      for (size_t i = 0; i < staged_count; ++i) engine.Ingest(staged[i]);
    });
    staged_count = 0;
  };

  std::optional<Clock::time_point> confirmed;
  std::optional<Clock::time_point> swapped;
  // Runs one Pump (or the final FinishStream) and notes when the drift was
  // confirmed and when the swap landed.
  const auto step = [&](const char* span, auto&& call) {
    const size_t lines = engine.journal().size();
    const Clock::time_point step_start = Clock::now();
    const Status stepped = tracer->Run(span, call);
    if (!stepped.ok()) {
      throw std::runtime_error(std::string(span) + ": " + stepped.ToString());
    }
    const std::vector<std::string>& journal = engine.journal();
    for (size_t i = lines; i < journal.size() && !confirmed; ++i) {
      if (journal[i].rfind("drift ", 0) == 0 &&
          journal[i].size() >= 10 &&
          journal[i].compare(journal[i].size() - 10, 10, " confirmed") == 0) {
        confirmed = step_start;
      }
    }
    if (!swapped && engine.swaps_done() > 0) swapped = Clock::now();
  };

  const Clock::time_point start = Clock::now();
  const std::string_view feed = setup.feed;
  for (size_t offset = 0; offset < feed.size(); offset += sizes.fragment_bytes) {
    tracer->Run("stream.feed",
                [&] { parser.Append(feed.substr(offset, sizes.fragment_bytes)); });
    ingest_staged();
    step("stream.pump", [&] { return engine.Pump(); });
  }
  tracer->Run("stream.feed", [&] { parser.Finish(); });
  ingest_staged();
  step("stream.finish", [&] { return engine.FinishStream(); });

  ReplayOutput out;
  out.seconds = Seconds(start, Clock::now());
  out.events = parser.rows_emitted();
  out.swaps = engine.swaps_done();
  out.windows = engine.window_history().size();
  result->attempted += parser.rows_emitted() + parser.error_count();
  result->failed += parser.error_count();
  for (const std::string& line : engine.journal()) {
    out.journal += line;
    out.journal += '\n';
    // One operation per retrain, counted when it resolves.
    if (line.rfind("retrain failed ", 0) == 0 ||
        line.rfind("retrain skipped ", 0) == 0) {
      result->Count(false);
    } else if (line.rfind("retrain done ", 0) == 0) {
      result->Count(true);
      const size_t at = line.find(" rows=");
      if (at != std::string::npos) {
        out.retrain_rows = std::stoull(line.substr(at + 6));
      }
    }
  }
  for (const WindowStats& window : engine.window_history()) {
    if (window.model_version > 1) out.post_swap.Merge(window.confusion);
  }
  if (out.swaps > 0) out.model = ReadFileBytes(engine.model_path());
  result->Gate(out.swaps == 1, "the stream run did not swap exactly once");
  result->Gate(confirmed && swapped, "no drift confirmation or swap was seen");
  if (confirmed && swapped) out.swap_lag_s = Seconds(*confirmed, *swapped);
  return out;
}

// Window-size scoring cost: the base model over the shifted rows in
// window-sized ScoreBatch calls.
double ScoreNsPerRow(const StreamSetup& setup, const Sizes& sizes) {
  const StatusOr<PnruleClassifier> model =
      ParsePnruleModel(setup.base_model, setup.schema);
  if (!model.ok()) return 0.0;
  const Dataset& probe = *setup.probe;
  std::vector<RowId> rows(probe.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<double> scores(rows.size());
  BatchScoreOptions score_options;
  score_options.num_threads = kScoreThreads;
  const size_t window = static_cast<size_t>(sizes.window_rows);
  const Clock::time_point start = Clock::now();
  for (size_t begin = 0; begin < rows.size(); begin += window) {
    const size_t count = std::min(window, rows.size() - begin);
    model->ScoreBatch(probe, rows.data() + begin, count, scores.data() + begin,
                      score_options);
  }
  return Seconds(start, Clock::now()) * 1e9 / static_cast<double>(rows.size());
}

}  // namespace

void RunStreamDriftKdd(const Options& options, Result* result) {
  const Sizes sizes = SizesFor(options);
  const auto setup =
      RepeatSetup([&] { return MakeSetup(options, sizes); }, result);
  ScratchDir dir("stream_drift_kdd");
  Tracer tracer;
  std::vector<ReplayOutput> untraced;
  std::vector<ReplayOutput> traced;
  const PassTimes times = RunPasses(options, 3, &tracer, [&](bool is_traced) {
    // Each replay writes its retrain files to a directory of its own: on
    // ext4, overwriting the previous replay's files (which the file system
    // flushes) doubled the replay time and made it swing between runs.
    const std::string replay_dir =
        dir.path() + "/replay" +
        std::to_string(untraced.size() + traced.size());
    std::filesystem::create_directories(replay_dir);
    ReplayOutput out = Replay(*setup, sizes, replay_dir, &tracer, result);
    std::filesystem::remove_all(replay_dir);
    const ReplayOutput& first = untraced.empty() ? out : untraced.front();
    result->Gate(out.journal == first.journal && out.model == first.model,
                 std::string(is_traced ? "a traced" : "an untraced") +
                     " replay's journal or retrained model differs from the "
                     "first replay's");
    (is_traced ? traced : untraced).push_back(std::move(out));
  });

  std::vector<double> lag, events_per_s;
  for (const ReplayOutput& out : untraced) {
    lag.push_back(out.swap_lag_s);
    events_per_s.push_back(static_cast<double>(out.events) / out.seconds);
  }
  const ReplayOutput& first = untraced.front();
  const std::string wall = "wall, median of untraced replays";
  result->end_to_end["result_s"] = {
      Median(lag), "s",
      wall + ": Pump that confirms the drift -> Pump after which the swap "
             "landed"};
  result->end_to_end["rows_per_s"] = {
      Median(events_per_s), "1/s",
      wall + ": feed events / (first Append -> FinishStream returned)"};
  result->end_to_end["rare_f1"] = {
      first.post_swap.f_measure(), "ratio",
      "r2l F-measure over the labeled rows of post-swap windows"};
  result->named["stream_events_per_s"] = result->end_to_end["rows_per_s"];
  result->named["swap_lag_s"] = result->end_to_end["result_s"];
  result->named["post_swap_recall"] = {
      first.post_swap.recall(), "ratio",
      "r2l recall over the labeled rows of post-swap windows"};
  result->named["post_swap_f1"] = result->end_to_end["rare_f1"];
  result->config["feed_events"] = std::to_string(first.events);
  result->config["feed_bytes"] = std::to_string(setup->feed.size());
  result->config["fragment_bytes"] = std::to_string(sizes.fragment_bytes);
  result->config["window_rows"] = std::to_string(sizes.window_rows);
  result->config["retrain_rows"] = std::to_string(sizes.retrain_rows);
  result->config["score_threads"] = std::to_string(kScoreThreads);
  result->config["retrain_threads"] = std::to_string(kRetrainThreads);
  result->config["passes"] = std::to_string(untraced.size() + traced.size());

  if (!options.trace) return;
  AddLedger(tracer, times, result);
  auto& layers = result->layers;
  const double feed_s = layers["stream.feed.busy_s"].value;
  layers["stream.feed.mb_per_s"] = {
      feed_s > 0 ? static_cast<double>(setup->feed.size()) / 1e6 / feed_s
                 : 0.0,
      "MB/s", "feed bytes / stream.feed.busy_s"};
  layers["stream.windows"] = {static_cast<double>(first.windows), "count",
                              "count, windows journaled per replay"};
  layers["stream.retrain.rows"] = {static_cast<double>(first.retrain_rows),
                                   "count", "count, rows the retrain used"};
  layers["stream.swaps"] = {static_cast<double>(first.swaps), "count",
                            "count, swaps per replay"};
  layers["rules.score.ns_per_row"] = {
      ScoreNsPerRow(*setup, sizes), "ns",
      "wall, base model ScoreBatch at the window size over the shifted rows"};
}

}  // namespace pipebench
