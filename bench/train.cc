// Out-of-core / parallel one-vs-rest training benchmark.
//
// Measures multiclass PNrule training wall-clock on a kdd_sim split at
// class-thread counts {1, 2, 4, 8}, for three data paths:
//
//   * in-RAM:       the generated Dataset as-is;
//   * sharded:      the same rows round-tripped through a 4-shard
//                   columnar store (data/shard_store.h) and fully decoded;
//   * out-of-core:  a demand-paged view of that store with the resident
//                   feature-column budget capped at 1/8 of the decoded
//                   column bytes, so training provably spills and refaults.
//
// The determinism contract is enforced, not assumed: the binary refuses to
// write BENCH_train.json (and exits nonzero) unless every configuration's
// serialized committee is byte-identical to the serial in-RAM reference.
// The JSON also records the machine's core count — wall-clock speedup from
// class-parallel training is only observable with cores > 1, and honest
// single-core numbers are still valid evidence for the identity claims and
// the paging behaviour (peak residency, evictions). A class-thread count
// above the cores is still trained and checked for identity, but its timing
// is reported as "not measured": more threads than cores only time-slice.
//
// Knobs:
//   PNR_BENCH_ROWS           training rows to generate (default 60000)
//   PNR_BENCH_COMPARE_ITERS  timed runs per configuration, best-of
//                            (default 1; training is expensive)
//   PNR_BENCH_JSON           write the machine-readable report here
//   --quick                  6000 rows, 1 iteration (the ctest smoke)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/shard_store.h"
#include "pnrule/model_io.h"
#include "pnrule/multiclass.h"
#include "pnrule/pnrule.h"
#include "synth/kdd_sim.h"

namespace {

using namespace pnr;

size_t BenchRows(bool quick) {
  const char* s = std::getenv("PNR_BENCH_ROWS");
  const long n = s != nullptr ? std::atol(s) : 0;
  if (n > 0) return static_cast<size_t>(n);
  return quick ? 6000 : 60000;
}

int CompareIters() {
  const char* s = std::getenv("PNR_BENCH_COMPARE_ITERS");
  const int n = s != nullptr ? std::atoi(s) : 0;
  return n > 0 ? n : 1;
}

std::string Fmt(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

// Best-of-N wall-clock seconds for one training run whose serialized model
// is returned through `out` (from the last run; all runs are identical by
// the determinism contract this binary verifies).
double SecondsPerRun(const std::function<std::string()>& run, int iterations,
                     std::string* out) {
  double best = 0.0;
  for (int i = 0; i < iterations; ++i) {
    Timer timer;
    *out = run();
    const double s = timer.ElapsedSeconds();
    if (i == 0 || s < best) best = s;
  }
  return best;
}

std::string TrainCommittee(const Dataset& data, size_t class_threads) {
  PnruleConfig config;
  MultiClassPnruleLearner learner(config);
  learner.set_train_threads(class_threads);
  auto committee = learner.Train(data);
  if (!committee.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 committee.status().ToString().c_str());
    std::exit(1);
  }
  return SerializeMultiClassModel(*committee, data.schema());
}

struct PathReport {
  std::string json;
  bool all_identical = true;
};

// Times {1,2,4,8} class-threads on `data`, comparing every serialization
// against `reference`. `extra` appends path-specific fields (residency
// counters for the paged run) after the timing array.
PathReport TimePath(const std::string& name, const Dataset& data,
                    const std::string& reference, int iterations,
                    size_t cores, const std::function<std::string()>& extra) {
  PathReport report;
  report.json = "    {\"path\": \"" + name + "\",\n";
  report.json += "     \"runs\": [\n";
  const size_t thread_counts[] = {1, 2, 4, 8};
  double serial_seconds = 0.0;
  for (size_t t = 0; t < 4; ++t) {
    const size_t threads = thread_counts[t];
    const auto train = [&] { return TrainCommittee(data, threads); };
    std::string model;
    report.json +=
        "      {\"class_threads\": " + std::to_string(threads) + ", ";
    if (threads > cores) {
      model = train();
      report.json += "\"wall_seconds\": \"not measured\"";
    } else {
      const double seconds = SecondsPerRun(train, iterations, &model);
      if (t == 0) serial_seconds = seconds;
      const double speedup = seconds > 0.0 ? serial_seconds / seconds : 0.0;
      report.json += "\"wall_seconds\": " + Fmt("%.3f", seconds) +
                     ", \"speedup_vs_serial\": " + Fmt("%.2f", speedup);
    }
    const bool identical = model == reference;
    report.all_identical = report.all_identical && identical;
    report.json += std::string(", \"bytes_identical_to_reference\": ") +
                   (identical ? "true" : "false") + "}";
    report.json += t + 1 < 4 ? ",\n" : "\n";
  }
  report.json += "     ]";
  const std::string extra_fields = extra();
  if (!extra_fields.empty()) report.json += ",\n" + extra_fields;
  report.json += "}";
  return report;
}

int Run(bool quick) {
  KddSimParams params;
  params.train_records = BenchRows(quick);
  params.test_records = 1000;  // generator minimum; only train is used
  auto generated = GenerateKddSim(params);
  if (!generated.ok()) {
    std::fprintf(stderr, "kdd_sim generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const Dataset& train = generated->train;
  const int iterations = CompareIters();

  // Serial in-RAM training is the reference every other configuration must
  // reproduce byte-for-byte.
  const std::string reference = TrainCommittee(train, 1);

  ShardStoreWriteOptions options;
  options.num_shards = 4;
  auto bytes = SerializeShardStore(train, options);
  if (!bytes.ok()) {
    std::fprintf(stderr, "shard serialization failed: %s\n",
                 bytes.status().ToString().c_str());
    return 1;
  }
  const size_t store_bytes = bytes->size();
  auto reader = ShardStoreReader::OpenBuffer(std::move(bytes).value(),
                                             "bench-train.pns");
  if (!reader.ok()) {
    std::fprintf(stderr, "shard open failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  auto sharded = (*reader)->LoadDataset();
  if (!sharded.ok()) {
    std::fprintf(stderr, "shard load failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  const size_t column_bytes = (*reader)->column_bytes();
  const size_t budget = column_bytes / 8;
  auto paged = MakePagedDataset(*reader, budget);
  if (!paged.ok()) {
    std::fprintf(stderr, "paged dataset failed: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }

  const size_t cores = ThreadPool::ResolveThreadCount(0);
  const PathReport in_ram = TimePath("in_ram", train, reference, iterations,
                                     cores, [] { return std::string(); });
  const PathReport shard_ram =
      TimePath("sharded_in_ram", *sharded, reference, iterations, cores,
               [] { return std::string(); });
  const PathReport out_of_core = TimePath(
      "out_of_core", *paged, reference, iterations, cores, [&] {
        std::string extra;
        extra += "     \"resident_budget_bytes\": " + std::to_string(budget) +
                 ",\n";
        extra += "     \"column_bytes\": " + std::to_string(column_bytes) +
                 ",\n";
        extra += "     \"peak_resident_column_bytes\": " +
                 std::to_string(paged->peak_resident_column_bytes()) + ",\n";
        extra += "     \"column_faults\": " +
                 std::to_string(paged->column_fault_count()) + ",\n";
        extra += "     \"column_evictions\": " +
                 std::to_string(paged->column_evict_count());
        return extra;
      });

  const bool all_identical = in_ram.all_identical &&
                             shard_ram.all_identical &&
                             out_of_core.all_identical;
  const bool spilled = paged->column_evict_count() > 0;

  std::string json = "{\n";
  json += "  \"benchmark\": \"train\",\n";
  json += "  \"dataset\": {\"generator\": \"kdd_sim\", \"rows\": " +
          std::to_string(train.num_rows()) + ", \"attributes\": " +
          std::to_string(train.schema().num_attributes()) +
          ", \"classes\": " + std::to_string(train.schema().num_classes()) +
          "},\n";
  json += "  \"shard_store\": {\"shards\": 4, \"file_bytes\": " +
          std::to_string(store_bytes) + "},\n";
  json += "  \"iterations\": " + std::to_string(iterations) + ",\n";
  json += "  \"timing\": \"best-of-iterations wall seconds per full "
          "one-vs-rest train\",\n";
  json += "  \"time_basis\": \"wall\",\n";
  json += "  \"cores\": " + std::to_string(cores) + ",\n";
  json += "  \"paths\": [\n";
  json += in_ram.json + ",\n";
  json += shard_ram.json + ",\n";
  json += out_of_core.json + "\n";
  json += "  ],\n";
  json += std::string("  \"out_of_core_spilled\": ") +
          (spilled ? "true" : "false") + ",\n";
  json += std::string("  \"all_bytes_identical\": ") +
          (all_identical ? "true" : "false") + "\n";
  json += "}\n";

  std::printf("%s", json.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: some configuration's model bytes differ from the "
                 "serial in-RAM reference\n");
    return 1;
  }
  if (!spilled) {
    std::fprintf(stderr,
                 "FAIL: the out-of-core budget never forced an eviction — "
                 "the paged path was not actually out of core\n");
    return 1;
  }

  const char* json_path = std::getenv("PNR_BENCH_JSON");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  return Run(quick);
}
