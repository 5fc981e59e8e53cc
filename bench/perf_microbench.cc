// google-benchmark microbenchmarks: training and classification throughput
// of the three learners, plus the cost of the condition search with and
// without the paper's range-condition extra scan, and the persistent
// ConditionSearchEngine (sorted-column cache + thread pool) against the
// transient per-call search.
//
// Besides the regular google-benchmark output, the binary writes a
// machine-readable serial-vs-engine comparison to the path in the
// PNR_BENCH_JSON environment variable when it is set (see
// BENCH_condition_search.json at the repo root). PNR_BENCH_COMPARE_ITERS
// overrides the number of timed calls per configuration (default 20).
// The comparison searches every row and two strict subsets, one on each
// side of the engine's rank-sort / group-filter crossover for subset
// columns. A thread count above the machine's hardware threads is
// reported as "not measured": it can only time-slice.
//
// The bench uses only the engine's public API, so it also builds against
// an earlier library; BENCH_condition_search.json nests such a run of this
// same source, on the same machine, under "parent".

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "c45/rules.h"
#include "c45/tree_classifier.h"
#include "common/thread_pool.h"
#include "induction/condition_search.h"
#include "induction/metric.h"
#include "pnrule/pnrule.h"
#include "ripper/ripper.h"
#include "synth/sweep.h"

namespace {

using namespace pnr;

const TrainTestPair& SharedData() {
  static const TrainTestPair data =
      MakeNumericPair(NsynParams(3), 20000, 10000, 99);
  return data;
}

// The JSON comparison runs on a much larger set than the microbenches:
// 200k rows clears ThreadPool::kMinRowsPerThread (16384) for 8 workers, so
// the 2- and 8-thread configurations genuinely fan out instead of being
// clamped to threads_effective = 1 (which is what the original 20k-row
// comparison recorded).
const TrainTestPair& CompareData() {
  static const TrainTestPair data =
      MakeNumericPair(NsynParams(3), 200000, 10000, 99);
  return data;
}

CategoryId Target() {
  return SharedData().train.schema().class_attr().FindCategory("C");
}

void BM_TrainPnrule(benchmark::State& state) {
  const TrainTestPair& data = SharedData();
  PnruleLearner learner;
  for (auto _ : state) {
    auto model = learner.Train(data.train, Target());
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.train.num_rows()));
}
BENCHMARK(BM_TrainPnrule)->Unit(benchmark::kMillisecond);

void BM_TrainRipper(benchmark::State& state) {
  const TrainTestPair& data = SharedData();
  RipperLearner learner;
  for (auto _ : state) {
    auto model = learner.Train(data.train, Target());
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.train.num_rows()));
}
BENCHMARK(BM_TrainRipper)->Unit(benchmark::kMillisecond);

void BM_TrainC45Rules(benchmark::State& state) {
  const TrainTestPair& data = SharedData();
  C45RulesLearner learner;
  for (auto _ : state) {
    auto model = learner.Train(data.train, Target());
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.train.num_rows()));
}
BENCHMARK(BM_TrainC45Rules)->Unit(benchmark::kMillisecond);

void BM_ClassifyPnrule(benchmark::State& state) {
  const TrainTestPair& data = SharedData();
  PnruleLearner learner;
  auto model = learner.Train(data.train, Target());
  for (auto _ : state) {
    double total = 0.0;
    for (RowId row = 0; row < data.test.num_rows(); ++row) {
      total += model->Score(data.test, row);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.test.num_rows()));
}
BENCHMARK(BM_ClassifyPnrule)->Unit(benchmark::kMillisecond);

// Scorer/options shared by every condition-search benchmark below.
struct SearchFixture {
  const TrainTestPair& data;
  RowSubset rows;
  CategoryId target;
  std::shared_ptr<RuleMetric> metric = MakeRuleMetric(RuleMetricKind::kZNumber);
  ClassDistribution dist;
  ConditionSearchOptions options;
  ConditionScorer scorer;

  explicit SearchFixture(bool enable_ranges,
                         const TrainTestPair& which = SharedData())
      : data(which),
        rows(data.train.AllRows()),
        target(data.train.schema().class_attr().FindCategory("C")) {
    dist.positives = data.train.ClassWeight(rows, target);
    dist.negatives = data.train.TotalWeight(rows) - dist.positives;
    options.enable_range_conditions = enable_ranges;
    scorer = [this](const RuleStats& stats) {
      return metric->Evaluate(stats, dist);
    };
  }
};

void ConditionSearchBody(benchmark::State& state, bool enable_ranges) {
  SearchFixture fx(enable_ranges);
  for (auto _ : state) {
    auto best =
        FindBestCondition(fx.data.train, fx.rows, fx.target, fx.scorer,
                          fx.options);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(fx.rows.size()));
}

void BM_ConditionSearchWithRanges(benchmark::State& state) {
  ConditionSearchBody(state, true);
}
BENCHMARK(BM_ConditionSearchWithRanges)->Unit(benchmark::kMillisecond);

void BM_ConditionSearchOneSided(benchmark::State& state) {
  ConditionSearchBody(state, false);
}
BENCHMARK(BM_ConditionSearchOneSided)->Unit(benchmark::kMillisecond);

// Strict row subsets of `rows`: every `period`-th row (a few percent, so the
// engine sorts the subset's ranks) or all but every `period`-th row (most
// rows, so it filters the cached order group by group).
RowSubset EveryNth(const RowSubset& rows, size_t period, bool keep_nth) {
  RowSubset out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if ((i % period == 0) == keep_nth) out.push_back(rows[i]);
  }
  return out;
}

// The subset searches of the JSON comparison and of
// BM_ConditionSearchEngineSubset.
struct SubsetConfig {
  const char* name;
  size_t period;
  bool keep_nth;
};
constexpr SubsetConfig kSubsetConfigs[] = {
    {"rank_sort_2.5pct", 40, true},
    {"group_filter_67pct", 3, false},
};

// Persistent engine: the sorted-column cache is warm after the first call,
// so steady-state cost is the prefix-sum scans only. Arg = thread count.
void BM_ConditionSearchEngine(benchmark::State& state) {
  SearchFixture fx(/*enable_ranges=*/true);
  ConditionSearchEngine engine(fx.data.train,
                               static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto best = engine.FindBest(fx.rows, fx.target, fx.scorer, fx.options);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(fx.rows.size()));
}
BENCHMARK(BM_ConditionSearchEngine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Persistent engine on a strict subset, the call pattern of a rule being
// grown: the column is rebuilt from the cache on every call. Arg = index
// into kSubsetConfigs.
void BM_ConditionSearchEngineSubset(benchmark::State& state) {
  SearchFixture fx(/*enable_ranges=*/true);
  const SubsetConfig& config = kSubsetConfigs[state.range(0)];
  const RowSubset rows = EveryNth(fx.rows, config.period, config.keep_nth);
  ConditionSearchEngine engine(fx.data.train, 1);
  for (auto _ : state) {
    auto best = engine.FindBest(rows, fx.target, fx.scorer, fx.options);
    benchmark::DoNotOptimize(best);
  }
  state.SetLabel(config.name);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_ConditionSearchEngineSubset)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Serial-vs-engine comparison written as JSON.

// Best-of-N process-CPU time per call. CPU time is far less noisy than
// wall-clock on shared builders, and the minimum over N runs is the stable
// "cost when nothing else interferes" statistic (same scheme as
// bench/batch_predict.cc and bench/ingest.cc).
double MillisPerCall(const std::function<void()>& call, int iterations) {
  call();  // warm-up (also warms the engine's sorted-column cache)
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iterations; ++i) {
    const std::clock_t start = std::clock();
    call();
    const std::clock_t stop = std::clock();
    const double ms =
        1000.0 * static_cast<double>(stop - start) / CLOCKS_PER_SEC;
    if (ms < best) best = ms;
  }
  return best;
}

bool SameResult(const std::optional<CandidateCondition>& got,
                const std::optional<CandidateCondition>& expected) {
  return got.has_value() == expected.has_value() &&
         (!got.has_value() ||
          (!CandidateBetter(*got, *expected) &&
           !CandidateBetter(*expected, *got) &&
           got->value == expected->value));
}

int WriteConditionSearchComparison(const char* path) {
  const int iterations = [] {
    const char* s = std::getenv("PNR_BENCH_COMPARE_ITERS");
    const int n = s != nullptr ? std::atoi(s) : 0;
    return n > 0 ? n : 20;
  }();

  SearchFixture fx(/*enable_ranges=*/true, CompareData());
  const CategoryId target = fx.target;

  // Baseline: the transient search, which re-sorts every numeric column on
  // every call (the pre-engine behaviour all learners had).
  const double serial_ms = MillisPerCall(
      [&] {
        auto best = FindBestCondition(fx.data.train, fx.rows, target,
                                      fx.scorer, fx.options);
        benchmark::DoNotOptimize(best);
      },
      iterations);
  const auto reference =
      FindBestCondition(fx.data.train, fx.rows, target, fx.scorer, fx.options);

  std::string json = "{\n";
  json += "  \"benchmark\": \"condition_search\",\n";
  json += "  \"dataset\": {\"rows\": " +
          std::to_string(fx.data.train.num_rows()) + ", \"attributes\": " +
          std::to_string(fx.data.train.schema().num_attributes()) + "},\n";
  json += "  \"iterations\": " + std::to_string(iterations) + ",\n";
  json += "  \"timing\": \"best_of_n_process_cpu_ms\",\n";
  const size_t hardware_threads = std::thread::hardware_concurrency();
  json += "  \"hardware_threads\": " + std::to_string(hardware_threads) +
          ",\n";
  json += "  \"min_rows_per_thread\": " +
          std::to_string(ThreadPool::kMinRowsPerThread) + ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", serial_ms);
  json += "  \"transient_search_ms_per_call\": " + std::string(buf) + ",\n";
  json += "  \"engine\": [\n";

  bool deterministic = true;
  double best_speedup = 0.0;
  const size_t thread_counts[] = {1, 2, 8};
  for (size_t t = 0; t < 3; ++t) {
    const size_t threads = thread_counts[t];
    ConditionSearchEngine engine(fx.data.train, threads);
    // Record what the configuration actually ran with: the resolved worker
    // count (0 = hardware threads) and the effective count after the
    // min-rows-per-thread clamp that gates the parallel scan.
    const size_t threads_resolved = engine.num_threads();
    const size_t threads_effective =
        ThreadPool::ClampThreadsForRows(threads, fx.rows.size());
    const auto got = engine.FindBest(fx.rows, target, fx.scorer, fx.options);
    const bool same = SameResult(got, reference);
    deterministic = deterministic && same;
    json += "    {\"threads_requested\": " + std::to_string(threads) +
            ", \"threads_resolved\": " + std::to_string(threads_resolved) +
            ", \"threads_effective\": " + std::to_string(threads_effective);
    if (threads_resolved > hardware_threads) {
      // More threads than cores only time-slice: no scaling to report.
      json += ", \"ms_per_call\": \"not measured\"";
    } else {
      const double ms = MillisPerCall(
          [&] {
            auto best =
                engine.FindBest(fx.rows, target, fx.scorer, fx.options);
            benchmark::DoNotOptimize(best);
          },
          iterations);
      const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
      if (speedup > best_speedup) best_speedup = speedup;
      std::snprintf(buf, sizeof(buf), "%.4f", ms);
      json += ", \"ms_per_call\": " + std::string(buf);
      std::snprintf(buf, sizeof(buf), "%.2f", speedup);
      json += ", \"speedup_vs_transient\": " + std::string(buf);
    }
    json += std::string(", \"matches_serial_result\": ") +
            (same ? "true" : "false") + "}";
    json += t + 1 < 3 ? ",\n" : "\n";
  }
  json += "  ],\n";

  // Strict subsets through a warm single-thread engine: each call builds
  // every numeric column from the cache, by rank sort or group filter.
  json += "  \"subsets\": [\n";
  for (size_t c = 0; c < std::size(kSubsetConfigs); ++c) {
    const SubsetConfig& config = kSubsetConfigs[c];
    const RowSubset rows = EveryNth(fx.rows, config.period, config.keep_nth);
    const auto expected = FindBestCondition(fx.data.train, rows, target,
                                            fx.scorer, fx.options);
    ConditionSearchEngine engine(fx.data.train, 1);
    const double ms = MillisPerCall(
        [&] {
          auto best = engine.FindBest(rows, target, fx.scorer, fx.options);
          benchmark::DoNotOptimize(best);
        },
        iterations);
    const bool same = SameResult(
        engine.FindBest(rows, target, fx.scorer, fx.options), expected);
    deterministic = deterministic && same;
    std::snprintf(buf, sizeof(buf), "%.4f", ms);
    json += std::string("    {\"name\": \"") + config.name +
            "\", \"rows\": " + std::to_string(rows.size()) +
            ", \"threads\": 1, \"ms_per_call\": " + buf +
            ", \"matches_transient_result\": " + (same ? "true" : "false") +
            "}";
    json += c + 1 < std::size(kSubsetConfigs) ? ",\n" : "\n";
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf), "%.2f", best_speedup);
  json += "  \"best_speedup\": " + std::string(buf) + ",\n";
  json += std::string("  \"deterministic\": ") +
          (deterministic ? "true" : "false") + "\n";
  json += "}\n";

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s (best speedup %.2fx, deterministic=%s)\n", path,
              best_speedup, deterministic ? "true" : "false");
  return deterministic ? 0 : 1;
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
  if (json_path != nullptr) return WriteConditionSearchComparison(json_path);
  return 0;
}
