// train_kdd: the batch research path, from CSV bytes to trained, paged and
// scored one-vs-rest PNrule committees on kdd_sim.
//
// Each pass ingests the CSV (IngestEngine::ParseCsv), trains the committee
// in RAM, writes the training rows to a .pns shard store, trains again on a
// demand-paged view whose resident budget is an eighth of the column bytes
// (so it must evict), and classifies the held-out split with ClassifyBatch.
// Traced passes rebuild every class's model one public call at a time
// (ConditionSearchEngine, RunPPhase, RunNPhase, ScoreMatrix::Build, the
// PnruleClassifier constructor) so each step gets its own span; the gates
// require all of these committees to serialize byte-identically.

#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "data/ingest.h"
#include "data/shard_store.h"
#include "eval/confusion.h"
#include "pnrule/model_io.h"
#include "pnrule/multiclass.h"
#include "pnrule/n_phase.h"
#include "pnrule/p_phase.h"

namespace pipebench {
namespace {

using namespace pnr;

// Held-out ClassifyBatch calls per pass; fixed so traced and untraced
// passes do the same work.
constexpr size_t kScoreRepeats = 200;
constexpr uint32_t kStoreShards = 4;

struct Sizes {
  size_t train_rows;
  size_t test_rows;
};

Sizes SizesFor(const Options& options) {
  return options.quick ? Sizes{6000, 2000} : Sizes{40000, 20000};
}

// MultiClassPnruleLearner::Train's serial class loop, one public call at a
// time, so each step of each class's model gets its own span.
StatusOr<MultiClassPnruleClassifier> TrainStepwise(const Dataset& data,
                                                   bool paged,
                                                   Tracer* tracer) {
  const PnruleConfig config;
  const size_t num_classes = data.schema().num_classes();
  const RowSubset rows = data.AllRows();
  std::vector<std::optional<PnruleClassifier>> models(num_classes);
  CategoryId majority = 0;
  size_t majority_count = 0;
  bool trained = false;
  for (size_t cls = 0; cls < num_classes; ++cls) {
    const auto target = static_cast<CategoryId>(cls);
    const size_t count = data.CountClass(target);
    if (count > majority_count) {
      majority_count = count;
      majority = target;
    }
    if (count == 0 || count == data.num_rows()) continue;
    Tracer::Scope build(tracer, "induction.engine_build");
    ConditionSearchEngine engine(data, config.num_threads,
                                 config.search_cache_budget_bytes);
    build.End();
    PPhaseResult p_phase =
        tracer->Run(paged ? "pnrule.p_phase.paged" : "pnrule.p_phase",
                    [&] { return RunPPhase(engine, rows, target, config); });
    NPhaseResult n_phase =
        tracer->Run(paged ? "pnrule.n_phase.paged" : "pnrule.n_phase", [&] {
          return RunNPhase(engine, p_phase.covered_rows, target,
                           p_phase.total_positive_weight,
                           p_phase.covered_positive_weight, config);
        });
    ScoreMatrix scores = tracer->Run(
        paged ? "pnrule.score_matrix.paged" : "pnrule.score_matrix", [&] {
          return ScoreMatrix::Build(data, rows, target, p_phase.rules,
                                    n_phase.rules, config);
        });
    tracer->Run("rules.compile", [&] {
      models[cls].emplace(std::move(p_phase.rules), std::move(n_phase.rules),
                          std::move(scores), config.use_score_matrix);
    });
    trained = true;
  }
  if (!trained) {
    return Status::FailedPrecondition("no class produced a trainable model");
  }
  return MultiClassPnruleClassifier(std::move(models), {}, majority);
}

StatusOr<MultiClassPnruleClassifier> TrainCommittee(const Dataset& data,
                                                    bool traced, bool paged,
                                                    Tracer* tracer) {
  if (traced) return TrainStepwise(data, paged, tracer);
  return MultiClassPnruleLearner().Train(data);
}

struct PassOutput {
  double train_s = 0.0;
  double write_s = 0.0;
  double paged_s = 0.0;
  double predict_rows_per_s = 0.0;
  double rare_f1 = 0.0;
  std::string model;  ///< the in-RAM committee, serialized
  uint64_t faults = 0;
  uint64_t evictions = 0;
  size_t peak_resident_bytes = 0;
  size_t store_bytes = 0;
  size_t p_rules = 0;
  size_t n_rules = 0;
  size_t scored_rows = 0;
};

// `store` is a path the pass's shard store is written to; it must not exist.
PassOutput RunPass(const KddCsv& csv, bool traced, Tracer* tracer,
                   const std::string& store, uint64_t seed, Result* result) {
  PassOutput out;
  const Clock::time_point start = Clock::now();
  IngestOptions ingest;
  ingest.num_threads = HardwareThreads();
  const StatusOr<Dataset> parsed = tracer->Run(
      "data.ingest", [&] { return IngestEngine(ingest).ParseCsv(csv.text); });
  const Dataset& all = Require(parsed, "ingest", result);
  const Dataset train = CopyRows(all, 0, csv.train_rows);
  const Dataset test = CopyRows(all, csv.train_rows, all.num_rows());
  const StatusOr<MultiClassPnruleClassifier> trained =
      TrainCommittee(train, traced, false, tracer);
  const MultiClassPnruleClassifier& committee =
      Require(trained, "in-RAM training", result);
  out.train_s = Seconds(start, Clock::now());
  out.model = SerializeMultiClassModel(committee, train.schema());
  for (size_t cls = 0; cls < committee.num_classes(); ++cls) {
    const PnruleClassifier* model =
        committee.model_for(static_cast<CategoryId>(cls));
    if (model == nullptr) continue;
    out.p_rules += model->p_rules().size();
    out.n_rules += model->n_rules().size();
  }

  ShardStoreWriteOptions write_options;
  write_options.num_shards = kStoreShards;
  const Clock::time_point write_start = Clock::now();
  const Status written = tracer->Run("data.shard_store.write", [&] {
    return WriteShardStore(train, store, write_options);
  });
  out.write_s = Seconds(write_start, Clock::now());
  result->Count(written.ok());
  if (!written.ok()) {
    throw std::runtime_error("shard store write: " + written.ToString());
  }

  const Clock::time_point paged_start = Clock::now();
  const StatusOr<std::shared_ptr<const ShardStoreReader>> opened = tracer->Run(
      "data.shard_store.open", [&] { return ShardStoreReader::Open(store); });
  const std::shared_ptr<const ShardStoreReader>& reader =
      Require(opened, "shard store open", result);
  out.store_bytes = reader->file_bytes();
  const StatusOr<Dataset> paged_view =
      tracer->Run("data.shard_store.open", [&] {
        return MakePagedDataset(reader, reader->column_bytes() / 8);
      });
  const Dataset& paged = Require(paged_view, "paged view", result);
  const StatusOr<MultiClassPnruleClassifier> paged_trained =
      TrainCommittee(paged, traced, true, tracer);
  const MultiClassPnruleClassifier& paged_committee =
      Require(paged_trained, "paged training", result);
  out.paged_s = Seconds(paged_start, Clock::now());
  out.faults = paged.column_fault_count();
  out.evictions = paged.column_evict_count();
  out.peak_resident_bytes = paged.peak_resident_column_bytes();
  result->Gate(
      SerializeMultiClassModel(paged_committee, paged.schema()) == out.model,
      "the paged committee differs from the in-RAM committee");
  result->Gate(out.evictions > 0, "the paged run never evicted a column");

  const std::vector<RowId> rows = ShuffledRows(test.num_rows(), seed);
  std::vector<CategoryId> predicted(rows.size());
  const Clock::time_point score_start = Clock::now();
  for (size_t i = 0; i < kScoreRepeats; ++i) {
    tracer->Run("rules.score", [&] {
      committee.ClassifyBatch(test, rows.data(), rows.size(),
                              predicted.data());
    });
    result->Count(true);
  }
  out.scored_rows = kScoreRepeats * rows.size();
  out.predict_rows_per_s = static_cast<double>(out.scored_rows) /
                           Seconds(score_start, Clock::now());
  const CategoryId r2l = test.schema().class_attr().FindCategory("r2l");
  Confusion confusion;
  for (size_t i = 0; i < rows.size(); ++i) {
    confusion.Add(test.label(rows[i]) == r2l, predicted[i] == r2l);
  }
  out.rare_f1 = confusion.f_measure();
  return out;
}

}  // namespace

void RunTrainKdd(const Options& options, Result* result) {
  const Sizes sizes = SizesFor(options);
  const auto csv = RepeatSetup(
      [&] {
        return std::make_unique<KddCsv>(MakeKddCsv(
            DeriveSeed(DataSeed(options), 1), sizes.train_rows, sizes.test_rows));
      },
      result);
  ScratchDir dir("train_kdd");
  Tracer tracer;
  std::vector<PassOutput> untraced;
  std::vector<PassOutput> traced;
  std::string reference;
  const PassTimes times =
      RunPasses(options, 3, &tracer, [&](bool is_traced) {
        // A new file every pass: on ext4, overwriting the previous pass's
        // store took 20 times as long as writing a new one, because the
        // file system flushes a file replaced in place.
        const std::string store =
            dir.path() + "/pass" +
            std::to_string(untraced.size() + traced.size()) + ".pns";
        PassOutput out =
            RunPass(*csv, is_traced, &tracer, store, options.seed, result);
        std::filesystem::remove(store);
        if (reference.empty()) reference = out.model;
        result->Gate(out.model == reference,
                     std::string(is_traced ? "a traced (step-by-step)"
                                           : "an untraced") +
                         " committee differs from the first pass's");
        (is_traced ? traced : untraced).push_back(std::move(out));
      });

  std::vector<double> train_s, paged_s, write_s, result_s, predict;
  for (const PassOutput& out : untraced) {
    train_s.push_back(out.train_s);
    paged_s.push_back(out.paged_s);
    write_s.push_back(out.write_s);
    result_s.push_back(out.train_s + out.write_s + out.paged_s);
    predict.push_back(out.predict_rows_per_s);
  }
  const std::string wall = "wall, median of untraced passes";
  result->end_to_end["result_s"] = {
      Median(result_s), "s",
      wall + ": CSV bytes -> in-RAM committee, .pns written, paged committee"};
  result->end_to_end["rows_per_s"] = {
      Median(predict), "1/s", wall + ": held-out ClassifyBatch rows/s"};
  result->end_to_end["rare_f1"] = {untraced.front().rare_f1, "ratio",
                                   "r2l F-measure on the held-out split"};
  result->named["train_s"] = {Median(train_s), "s",
                              wall + ": CSV bytes -> in-RAM committee"};
  result->named["shard_write_s"] = {Median(write_s), "s", wall};
  result->named["train_paged_s"] = {Median(paged_s), "s",
                                    wall + ": .pns -> paged committee"};
  result->named["predict_rows_per_s"] = {Median(predict), "1/s", wall};
  result->named["rare_f1"] = result->end_to_end["rare_f1"];
  result->config["train_rows"] = std::to_string(sizes.train_rows);
  result->config["test_rows"] = std::to_string(sizes.test_rows);
  result->config["ingest_threads"] = std::to_string(HardwareThreads());
  result->config["class_threads"] = "1";
  result->config["search_threads"] = "1";
  result->config["store_shards"] = std::to_string(kStoreShards);
  result->config["paging_budget"] = "\"column_bytes / 8\"";
  result->config["passes"] = std::to_string(untraced.size() + traced.size());

  if (!options.trace) return;
  AddLedger(tracer, times, result);
  const PassOutput& last = traced.back();
  auto& layers = result->layers;
  const double ingest_s = layers["data.ingest.busy_s"].value;
  layers["data.ingest.mb_per_s"] = {
      ingest_s > 0 ? static_cast<double>(csv->text.size()) / 1e6 / ingest_s
                   : 0.0,
      "MB/s", "CSV bytes / data.ingest.busy_s"};
  layers["data.shard_store.bytes"] = {static_cast<double>(last.store_bytes),
                                      "bytes", "count"};
  layers["data.paging.faults"] = {static_cast<double>(last.faults), "count",
                                  "count, one paged training"};
  layers["data.paging.evictions"] = {static_cast<double>(last.evictions),
                                     "count", "count, one paged training"};
  layers["data.paging.peak_resident_bytes"] = {
      static_cast<double>(last.peak_resident_bytes), "bytes",
      "count, one paged training"};
  layers["pnrule.p_rules"] = {static_cast<double>(last.p_rules), "count",
                              "count, all classes of the committee"};
  layers["pnrule.n_rules"] = {static_cast<double>(last.n_rules), "count",
                              "count, all classes of the committee"};
  layers["rules.score.ns_per_row"] = {
      layers["rules.score.busy_s"].value * 1e9 /
          static_cast<double>(last.scored_rows),
      "ns", "wall, ClassifyBatch over the whole held-out split per call"};
}

}  // namespace pipebench
