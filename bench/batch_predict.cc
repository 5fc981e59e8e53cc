// Batch-prediction benchmark: the interpreted per-row Score loop against
// the compiled ScoreBatch engine (rules/compiled_rule_set.h + eval/batch.h)
// on a kdd_sim training set, for PNrule, RIPPER, and the C4.5 tree.
//
// Besides the google-benchmark output, the binary writes a machine-readable
// interpreted-vs-compiled comparison to the path in the PNR_BENCH_JSON
// environment variable when it is set (see BENCH_batch_predict.json at the
// repo root). Knobs:
//   PNR_BENCH_ROWS           rows to generate/score (default 100000)
//   PNR_BENCH_COMPARE_ITERS  timed calls per configuration (default 5)
//
// The JSON also records two correctness bits per model: whether the
// compiled scores are bitwise identical to the interpreted ones, and
// whether they are bitwise identical across thread counts 1/2/8. It
// records the core count and the time basis too; a thread count above the
// core count is still checked for identity, but its time is reported as
// "not measured".

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "c45/tree_classifier.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/classifier.h"
#include "pnrule/multiclass.h"
#include "pnrule/pnrule.h"
#include "ripper/ripper.h"
#include "synth/kdd_sim.h"

namespace {

using namespace pnr;

size_t BenchRows() {
  const char* s = std::getenv("PNR_BENCH_ROWS");
  const long n = s != nullptr ? std::atol(s) : 0;
  return n > 0 ? static_cast<size_t>(n) : 100000;
}

const Dataset& SharedKdd() {
  static const Dataset data = [] {
    KddSimParams params;
    params.train_records = BenchRows();
    params.test_records = 1000;  // generator minimum; only train is scored
    auto generated = GenerateKddSim(params);
    if (!generated.ok()) {
      std::fprintf(stderr, "kdd_sim generation failed: %s\n",
                   generated.status().ToString().c_str());
      std::abort();
    }
    return std::move(generated).value().train;
  }();
  return data;
}

CategoryId Target() {
  return SharedKdd().schema().class_attr().FindCategory("probe");
}

// One trained model per family, shared by all benchmarks.
template <typename Learner>
const BinaryClassifier& SharedModel() {
  static const auto model = [] {
    auto trained = Learner().Train(SharedKdd(), Target());
    if (!trained.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   trained.status().ToString().c_str());
      std::abort();
    }
    return std::move(trained).value();
  }();
  return model;
}

void InterpretedBody(benchmark::State& state, const BinaryClassifier& model) {
  const Dataset& data = SharedKdd();
  for (auto _ : state) {
    double total = 0.0;
    for (RowId row = 0; row < data.num_rows(); ++row) {
      total += model.Score(data, row);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.num_rows()));
}

void CompiledBody(benchmark::State& state, const BinaryClassifier& model) {
  const Dataset& data = SharedKdd();
  std::vector<RowId> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<double> scores(rows.size());
  BatchScoreOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    model.ScoreBatch(data, rows.data(), rows.size(), scores.data(), options);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.num_rows()));
}

void BM_PnruleInterpreted(benchmark::State& state) {
  InterpretedBody(state, SharedModel<PnruleLearner>());
}
BENCHMARK(BM_PnruleInterpreted)->Unit(benchmark::kMillisecond);

void BM_PnruleCompiled(benchmark::State& state) {
  CompiledBody(state, SharedModel<PnruleLearner>());
}
BENCHMARK(BM_PnruleCompiled)->Arg(1)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_RipperInterpreted(benchmark::State& state) {
  InterpretedBody(state, SharedModel<RipperLearner>());
}
BENCHMARK(BM_RipperInterpreted)->Unit(benchmark::kMillisecond);

void BM_RipperCompiled(benchmark::State& state) {
  CompiledBody(state, SharedModel<RipperLearner>());
}
BENCHMARK(BM_RipperCompiled)->Arg(1)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_C45TreeInterpreted(benchmark::State& state) {
  InterpretedBody(state, SharedModel<C45TreeLearner>());
}
BENCHMARK(BM_C45TreeInterpreted)->Unit(benchmark::kMillisecond);

void BM_C45TreeCompiled(benchmark::State& state) {
  CompiledBody(state, SharedModel<C45TreeLearner>());
}
BENCHMARK(BM_C45TreeCompiled)->Arg(1)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond);

// One-vs-rest committee shared by the multiclass benchmarks. `zero_weight`
// gives the majority class weight 0, which ClassifyBatch answers by
// skipping that class's lists on every block.
const MultiClassPnruleClassifier& SharedMultiClass(bool zero_weight) {
  auto train = [](bool zeroed) {
    MultiClassPnruleLearner learner;
    if (zeroed) {
      const Schema& schema = SharedKdd().schema();
      std::vector<double> weights(schema.num_classes(), 1.0);
      const CategoryId normal = schema.class_attr().FindCategory("normal");
      weights[static_cast<size_t>(normal)] = 0.0;
      learner.set_class_weights(std::move(weights));
    }
    auto trained = learner.Train(SharedKdd());
    if (!trained.ok()) {
      std::fprintf(stderr, "multiclass training failed: %s\n",
                   trained.status().ToString().c_str());
      std::abort();
    }
    return std::move(trained).value();
  };
  static const auto all = train(false);
  static const auto zeroed = train(true);
  return zero_weight ? zeroed : all;
}

void BM_MultiClassPerRow(benchmark::State& state) {
  const Dataset& data = SharedKdd();
  const MultiClassPnruleClassifier& model = SharedMultiClass(false);
  for (auto _ : state) {
    size_t agree = 0;
    for (RowId row = 0; row < data.num_rows(); ++row) {
      if (model.Classify(data, row) == data.label(row)) ++agree;
    }
    benchmark::DoNotOptimize(agree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_MultiClassPerRow)->Unit(benchmark::kMillisecond);

// Every row id once: in order, or shuffled (a held-out split's scattered
// ids, which ClassifyBatch gathers once per block and attribute).
std::vector<RowId> RowOrder(size_t count, bool shuffled) {
  std::vector<RowId> rows(count);
  std::iota(rows.begin(), rows.end(), RowId{0});
  if (shuffled) {
    Rng rng(20011);
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.NextBelow(i)]);
    }
  }
  return rows;
}

void MultiClassBatchBody(benchmark::State& state, bool zero_weight,
                         bool shuffled = false) {
  const Dataset& data = SharedKdd();
  const MultiClassPnruleClassifier& model = SharedMultiClass(zero_weight);
  const std::vector<RowId> rows = RowOrder(data.num_rows(), shuffled);
  std::vector<CategoryId> predicted(rows.size());
  BatchScoreOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    model.ClassifyBatch(data, rows.data(), rows.size(), predicted.data(),
                        options);
    benchmark::DoNotOptimize(predicted.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.num_rows()));
}

void BM_MultiClassCompiledBatch(benchmark::State& state) {
  MultiClassBatchBody(state, /*zero_weight=*/false);
}
BENCHMARK(BM_MultiClassCompiledBatch)->Arg(1)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_MultiClassCompiledBatchShuffled(benchmark::State& state) {
  MultiClassBatchBody(state, /*zero_weight=*/false, /*shuffled=*/true);
}
BENCHMARK(BM_MultiClassCompiledBatchShuffled)->Arg(1)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_MultiClassCompiledBatchZeroWeight(benchmark::State& state) {
  MultiClassBatchBody(state, /*zero_weight=*/true);
}
BENCHMARK(BM_MultiClassCompiledBatchZeroWeight)
    ->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Interpreted-vs-compiled comparison written as JSON (acceptance evidence).

// Best-of-N process-CPU milliseconds for one call. CPU time (all threads)
// instead of wall clock and min instead of mean keep the comparison stable
// on shared machines: co-tenant load inflates wall time arbitrarily but
// never the cycles this process itself spends.
double MillisPerCall(const std::function<void()>& call, int iterations) {
  call();  // warm-up
  double best = 0.0;
  for (int i = 0; i < iterations; ++i) {
    const std::clock_t start = std::clock();
    call();
    const std::clock_t stop = std::clock();
    const double ms = 1000.0 * static_cast<double>(stop - start) /
                      static_cast<double>(CLOCKS_PER_SEC);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string Fmt(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

size_t Cores() { return ThreadPool::ResolveThreadCount(0); }

// A timing at `threads` workers, or "not measured" when the box has fewer
// cores than that: more threads than cores only time-slice.
std::string Timed(const char* fmt, double value, size_t threads) {
  return threads > Cores() ? "\"not measured\"" : Fmt(fmt, value);
}

struct ModelReport {
  std::string json;
  double single_thread_speedup = 0.0;
  bool matches_interpreted = false;
  bool identical_across_threads = false;
};

ModelReport CompareModel(const std::string& name,
                         const BinaryClassifier& model, int iterations) {
  const Dataset& data = SharedKdd();
  std::vector<RowId> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});

  std::vector<double> interpreted_scores(rows.size());
  const double interpreted_ms = MillisPerCall(
      [&] {
        for (size_t i = 0; i < rows.size(); ++i) {
          interpreted_scores[i] = model.Score(data, rows[i]);
        }
      },
      iterations);

  ModelReport report;
  report.json = "    {\"model\": \"" + name + "\",\n";
  report.json += "     \"interpreted_ms_per_pass\": " +
                 Fmt("%.4f", interpreted_ms) + ",\n";
  report.json += "     \"compiled\": [\n";

  report.matches_interpreted = true;
  report.identical_across_threads = true;
  std::vector<double> reference;  // single-thread compiled scores
  const size_t thread_counts[] = {1, 2, 8};
  for (size_t t = 0; t < 3; ++t) {
    BatchScoreOptions options;
    options.num_threads = thread_counts[t];
    std::vector<double> scores(rows.size());
    const double ms = MillisPerCall(
        [&] {
          model.ScoreBatch(data, rows.data(), rows.size(), scores.data(),
                           options);
        },
        iterations);
    const bool vs_interpreted = BitIdentical(scores, interpreted_scores);
    report.matches_interpreted =
        report.matches_interpreted && vs_interpreted;
    if (t == 0) {
      reference = scores;
      report.single_thread_speedup = ms > 0.0 ? interpreted_ms / ms : 0.0;
    } else {
      report.identical_across_threads =
          report.identical_across_threads && BitIdentical(scores, reference);
    }
    const double speedup = ms > 0.0 ? interpreted_ms / ms : 0.0;
    report.json += "      {\"threads\": " + std::to_string(thread_counts[t]) +
                   ", \"threads_effective\": " +
                   std::to_string(ThreadPool::ClampThreadsForRows(
                       thread_counts[t], rows.size())) +
                   ", \"ms_per_pass\": " +
                   Timed("%.4f", ms, thread_counts[t]) +
                   ", \"speedup_vs_interpreted\": " +
                   Timed("%.2f", speedup, thread_counts[t]) +
                   ", \"bitwise_equal_to_interpreted\": " +
                   (vs_interpreted ? "true" : "false") + "}";
    report.json += t + 1 < 3 ? ",\n" : "\n";
  }
  report.json += "     ],\n";
  report.json += "     \"single_thread_speedup\": " +
                 Fmt("%.2f", report.single_thread_speedup) + ",\n";
  report.json += std::string("     \"bitwise_identical_across_threads\": ") +
                 (report.identical_across_threads ? "true" : "false") + "}";
  return report;
}

struct MultiClassReport {
  std::string json;
  bool matches_per_row = false;
  bool identical_across_threads = false;
};

// Per-row Classify against the batched ClassifyBatch path (one program
// for every class's lists, each block bound once), over the rows in order
// and shuffled. Also times the committee with the majority class
// zero-weighted: ClassifyBatch skips that class's lists on every block.
MultiClassReport CompareMultiClass(int iterations) {
  const Dataset& data = SharedKdd();
  const MultiClassPnruleClassifier& model = SharedMultiClass(false);
  const MultiClassPnruleClassifier& zeroed = SharedMultiClass(true);
  const std::vector<RowId> rows = RowOrder(data.num_rows(), false);

  std::vector<CategoryId> per_row(rows.size());
  const double per_row_ms = MillisPerCall(
      [&] {
        for (size_t i = 0; i < rows.size(); ++i) {
          per_row[i] = model.Classify(data, rows[i]);
        }
      },
      iterations);

  MultiClassReport report;
  report.matches_per_row = true;
  report.identical_across_threads = true;
  report.json = "  \"multiclass\": {\n";
  report.json += "    \"classes\": " +
                 std::to_string(model.num_classes()) + ",\n";
  report.json += "    \"per_row_ms_per_pass\": " + Fmt("%.4f", per_row_ms) +
                 ",\n";
  for (const bool shuffled : {false, true}) {
    const std::vector<RowId> order = RowOrder(data.num_rows(), shuffled);
    std::vector<CategoryId> expected(order.size());
    for (size_t i = 0; i < order.size(); ++i) expected[i] = per_row[order[i]];
    report.json += shuffled ? "    \"batched_shuffled\": [\n"
                            : "    \"batched\": [\n";
    std::vector<CategoryId> reference;
    const size_t thread_counts[] = {1, 2, 8};
    for (size_t t = 0; t < 3; ++t) {
      BatchScoreOptions options;
      options.num_threads = thread_counts[t];
      std::vector<CategoryId> predicted(order.size());
      const double ms = MillisPerCall(
          [&] {
            model.ClassifyBatch(data, order.data(), order.size(),
                                predicted.data(), options);
          },
          iterations);
      const bool vs_per_row = predicted == expected;
      report.matches_per_row = report.matches_per_row && vs_per_row;
      if (t == 0) {
        reference = predicted;
      } else {
        report.identical_across_threads =
            report.identical_across_threads && predicted == reference;
      }
      report.json +=
          "      {\"threads\": " + std::to_string(thread_counts[t]) +
          ", \"ms_per_pass\": " + Timed("%.4f", ms, thread_counts[t]) +
          ", \"speedup_vs_per_row\": " +
          Timed("%.2f", ms > 0.0 ? per_row_ms / ms : 0.0, thread_counts[t]) +
          ", \"identical_to_per_row\": " + (vs_per_row ? "true" : "false") +
          "}";
      report.json += t + 1 < 3 ? ",\n" : "\n";
    }
    report.json += "    ],\n";
  }

  // The zero-weight committee is a different model (its own predictions),
  // so it is gated on batched-equals-per-row for itself, not on `model`.
  std::vector<CategoryId> zero_per_row(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    zero_per_row[i] = zeroed.Classify(data, rows[i]);
  }
  std::vector<CategoryId> zero_batched(rows.size());
  const double zero_ms = MillisPerCall(
      [&] {
        zeroed.ClassifyBatch(data, rows.data(), rows.size(),
                             zero_batched.data(), BatchScoreOptions{});
      },
      iterations);
  report.matches_per_row =
      report.matches_per_row && zero_batched == zero_per_row;
  report.json += "    \"majority_zero_weight_ms_per_pass\": " +
                 Fmt("%.4f", zero_ms) + ",\n";
  report.json +=
      std::string("    \"identical_to_per_row\": ") +
      (report.matches_per_row ? "true" : "false") + ",\n";
  report.json +=
      std::string("    \"identical_across_threads\": ") +
      (report.identical_across_threads ? "true" : "false") + "\n";
  report.json += "  },\n";
  return report;
}

int WriteBatchPredictComparison(const char* path) {
  const int iterations = [] {
    const char* s = std::getenv("PNR_BENCH_COMPARE_ITERS");
    const int n = s != nullptr ? std::atoi(s) : 0;
    return n > 0 ? n : 5;
  }();

  const Dataset& data = SharedKdd();
  std::string json = "{\n";
  json += "  \"benchmark\": \"batch_predict\",\n";
  json += "  \"dataset\": {\"generator\": \"kdd_sim\", \"rows\": " +
          std::to_string(data.num_rows()) + ", \"attributes\": " +
          std::to_string(data.schema().num_attributes()) +
          ", \"target\": \"probe\"},\n";
  json += "  \"iterations\": " + std::to_string(iterations) + ",\n";
  json += "  \"timing\": \"best-of-iterations process-CPU ms per pass\",\n";
  json += "  \"time_basis\": \"process CPU time, all threads\",\n";
  json += "  \"cores\": " + std::to_string(Cores()) + ",\n";
  json += "  \"min_rows_per_thread\": " +
          std::to_string(ThreadPool::kMinRowsPerThread) + ",\n";
  json += "  \"models\": [\n";

  const ModelReport reports[] = {
      CompareModel("pnrule", SharedModel<PnruleLearner>(), iterations),
      CompareModel("ripper", SharedModel<RipperLearner>(), iterations),
      CompareModel("c45_tree", SharedModel<C45TreeLearner>(), iterations),
  };
  double min_speedup = 0.0;
  bool all_exact = true;
  bool all_deterministic = true;
  for (size_t i = 0; i < 3; ++i) {
    json += reports[i].json;
    json += i + 1 < 3 ? ",\n" : "\n";
    if (i == 0 || reports[i].single_thread_speedup < min_speedup) {
      min_speedup = reports[i].single_thread_speedup;
    }
    all_exact = all_exact && reports[i].matches_interpreted;
    all_deterministic =
        all_deterministic && reports[i].identical_across_threads;
  }
  json += "  ],\n";
  const MultiClassReport multiclass = CompareMultiClass(iterations);
  json += multiclass.json;
  all_exact = all_exact && multiclass.matches_per_row;
  all_deterministic = all_deterministic && multiclass.identical_across_threads;
  json += "  \"min_single_thread_speedup\": " + Fmt("%.2f", min_speedup) +
          ",\n";
  json += std::string("  \"bitwise_equal_to_interpreted\": ") +
          (all_exact ? "true" : "false") + ",\n";
  json += std::string("  \"bitwise_identical_across_threads\": ") +
          (all_deterministic ? "true" : "false") + "\n";
  json += "}\n";

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf(
      "wrote %s (min single-thread speedup %.2fx, exact=%s, "
      "deterministic=%s)\n",
      path, min_speedup, all_exact ? "true" : "false",
      all_deterministic ? "true" : "false");
  return all_exact && all_deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Opt-in JSON comparison: set PNR_BENCH_JSON=<path> (kept out of the
  // default run so the ctest smoke registration stays fast).
  const char* json_path = std::getenv("PNR_BENCH_JSON");
  if (json_path != nullptr) return WriteBatchPredictComparison(json_path);
  return 0;
}
