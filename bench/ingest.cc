// Ingestion throughput: the serial reference CSV parser vs the
// memory-mapped chunk-parallel engine (data/ingest.h).
//
// Besides the regular google-benchmark output, the binary writes a
// machine-readable comparison to the path in the PNR_BENCH_JSON environment
// variable when set (see BENCH_ingest.json at the repo root). The synthetic
// CSV defaults to 100 MB; PNR_BENCH_MB overrides it, and
// PNR_BENCH_COMPARE_ITERS the number of timed runs per configuration
// (default 3; each row reports the best wall-clock time, which is what a
// thread count can speed up, and the best process CPU time summed over all
// threads, which shows what the parallelism costs). The writer REFUSES to emit JSON and
// exits nonzero unless every engine configuration produced a Dataset
// bitwise-identical to the serial reference — the throughput numbers are
// only meaningful for a parse that is provably the same parse. A thread
// count above the box's cores is still checked for identity, but its
// timing is reported as "not measured": more threads than cores only
// time-slice.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/ingest.h"

namespace {

using namespace pnr;

// Deterministic synthetic CSV: six numeric columns, two medium-cardinality
// categorical columns, one occasionally-quoted text column, and a rare
// binary class — the shape of the paper's intrusion/fraud workloads.
std::string MakeCsv(size_t target_bytes) {
  std::string text = "f0,f1,f2,f3,f4,f5,dev,site,note,label\n";
  text.reserve(target_bytes + 4096);
  uint64_t state = 0x9E3779B97F4A7C15ull;  // xorshift64
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  size_t row = 0;
  while (text.size() < target_bytes) {
    for (int c = 0; c < 6; ++c) {
      const uint64_t r = next();
      text += std::to_string(static_cast<long long>(r % 100000));
      text += '.';
      text += std::to_string(static_cast<long long>(r % 997));
      text += ',';
    }
    text += "dev" + std::to_string(next() % 64) + ",";
    text += "site" + std::to_string(next() % 512) + ",";
    if (row % 37 == 0) {  // exercise the quoted-field path
      text += "\"note, with \"\"id " + std::to_string(next() % 100) +
              "\"\"\",";
    } else {
      text += "note" + std::to_string(next() % 8) + ",";
    }
    text += (next() % 100 == 0) ? "rare\n" : "common\n";
    ++row;
  }
  return text;
}

// Bitwise dataset comparison: schema (names, types, dictionaries in id
// order), cell bits, labels, weights.
bool DatasetsIdentical(const Dataset& a, const Dataset& b) {
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  if (sa.num_attributes() != sb.num_attributes()) return false;
  if (sa.num_classes() != sb.num_classes()) return false;
  for (size_t c = 0; c < sa.num_classes(); ++c) {
    if (sa.class_attr().CategoryName(static_cast<CategoryId>(c)) !=
        sb.class_attr().CategoryName(static_cast<CategoryId>(c))) {
      return false;
    }
  }
  for (size_t i = 0; i < sa.num_attributes(); ++i) {
    const Attribute& attr_a = sa.attribute(static_cast<AttrIndex>(i));
    const Attribute& attr_b = sb.attribute(static_cast<AttrIndex>(i));
    if (attr_a.name() != attr_b.name() || attr_a.type() != attr_b.type() ||
        attr_a.num_categories() != attr_b.num_categories()) {
      return false;
    }
    for (size_t c = 0; c < attr_a.num_categories(); ++c) {
      if (attr_a.CategoryName(static_cast<CategoryId>(c)) !=
          attr_b.CategoryName(static_cast<CategoryId>(c))) {
        return false;
      }
    }
  }
  if (a.num_rows() != b.num_rows()) return false;
  for (RowId r = 0; r < a.num_rows(); ++r) {
    if (a.label(r) != b.label(r)) return false;
    for (size_t i = 0; i < sa.num_attributes(); ++i) {
      const AttrIndex attr = static_cast<AttrIndex>(i);
      if (sa.attribute(attr).is_numeric()) {
        const double va = a.numeric(r, attr);
        const double vb = b.numeric(r, attr);
        if (std::memcmp(&va, &vb, sizeof(double)) != 0) return false;
      } else if (a.categorical(r, attr) != b.categorical(r, attr)) {
        return false;
      }
    }
  }
  return a.weights() == b.weights();
}

const std::string& SmallCsv() {
  static const std::string text = MakeCsv(size_t{2} << 20);  // 2 MB
  return text;
}

void BM_IngestSerial(benchmark::State& state) {
  const std::string& text = SmallCsv();
  for (auto _ : state) {
    auto dataset = IngestCsvSerial(text, {});
    benchmark::DoNotOptimize(dataset);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_IngestSerial)->Unit(benchmark::kMillisecond);

// Arg = requested thread count (chunking left on automatic).
void BM_IngestEngine(benchmark::State& state) {
  const std::string& text = SmallCsv();
  IngestOptions ingest;
  ingest.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto dataset = IngestCsvParallel(text, {}, ingest);
    benchmark::DoNotOptimize(dataset);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_IngestEngine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Serial-vs-engine comparison written as JSON (perf evidence).

// Best-of-N wall-clock and process-CPU milliseconds per call, each the
// minimum over N runs.
struct CallMillis {
  double wall = std::numeric_limits<double>::infinity();
  double cpu = std::numeric_limits<double>::infinity();
};

template <typename Fn>
CallMillis MillisPerCall(const Fn& call, int iterations) {
  call();  // warm-up
  CallMillis best;
  for (int i = 0; i < iterations; ++i) {
    const auto wall_start = std::chrono::steady_clock::now();
    const std::clock_t cpu_start = std::clock();
    call();
    const std::clock_t cpu_stop = std::clock();
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - wall_start;
    const double cpu =
        1000.0 * static_cast<double>(cpu_stop - cpu_start) / CLOCKS_PER_SEC;
    best.wall = std::min(best.wall, wall.count());
    best.cpu = std::min(best.cpu, cpu);
  }
  return best;
}

std::string Rate(double ms, double amount) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f",
                ms > 0.0 ? amount / (ms / 1000.0) : 0.0);
  return buf;
}

// `"wall_ms": w, "cpu_ms": c, "mb_per_s": ..., "rows_per_s": ...`, the
// rates by wall clock.
std::string TimingFields(const CallMillis& ms, double mb, double rows) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"wall_ms\": %.2f, \"cpu_ms\": %.2f",
                ms.wall, ms.cpu);
  return std::string(buf) + ", \"mb_per_s\": " + Rate(ms.wall, mb) +
         ", \"rows_per_s\": " + Rate(ms.wall, rows);
}

int WriteIngestComparison(const char* path) {
  const int iterations = [] {
    const char* s = std::getenv("PNR_BENCH_COMPARE_ITERS");
    const int n = s != nullptr ? std::atoi(s) : 0;
    return n > 0 ? n : 3;
  }();
  const size_t megabytes = [] {
    const char* s = std::getenv("PNR_BENCH_MB");
    const long n = s != nullptr ? std::atol(s) : 0;
    return n > 0 ? static_cast<size_t>(n) : size_t{100};
  }();

  std::printf("generating %zu MB synthetic CSV...\n", megabytes);
  const std::string text = MakeCsv(megabytes << 20);
  const double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);

  const CallMillis serial_ms =
      MillisPerCall([&] { (void)IngestCsvSerial(text, {}); }, iterations);
  auto reference = IngestCsvSerial(text, {});
  if (!reference.ok()) {
    std::fprintf(stderr, "serial parse failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  const double rows = static_cast<double>(reference.value().num_rows());

  char buf[64];
  std::string json = "{\n";
  json += "  \"benchmark\": \"ingest\",\n";
  json += "  \"input\": {\"bytes\": " + std::to_string(text.size()) +
          ", \"rows\": " + std::to_string(reference.value().num_rows()) +
          ", \"columns\": 10},\n";
  json += "  \"iterations\": " + std::to_string(iterations) + ",\n";
  json += "  \"timing\": \"best_of_n_ms\",\n";
  json += "  \"time_basis\": {\"wall_ms\": \"wall clock\", \"cpu_ms\": "
          "\"process CPU time summed over all threads\", \"rates\": "
          "\"wall clock\", \"speedup_vs_serial\": \"wall clock\"},\n";
  const size_t cores = ThreadPool::ResolveThreadCount(0);
  json += "  \"cores\": " + std::to_string(cores) + ",\n";
  json += "  \"min_bytes_per_thread\": " +
          std::to_string(ThreadPool::kMinBytesPerThread) + ",\n";
  json += "  \"serial_reference\": {" + TimingFields(serial_ms, mb, rows) +
          "},\n";
  json += "  \"engine\": [\n";

  bool deterministic = true;
  double best_speedup = 0.0;
  const size_t thread_counts[] = {1, 2, 8};
  for (size_t t = 0; t < 3; ++t) {
    const size_t threads = thread_counts[t];
    IngestOptions ingest;
    ingest.num_threads = threads;
    const size_t effective =
        ThreadPool::ClampThreadsForBytes(threads, text.size());
    auto got = IngestCsvParallel(text, {}, ingest);
    const bool same =
        got.ok() && DatasetsIdentical(reference.value(), got.value());
    deterministic = deterministic && same;
    json += "    {\"threads_requested\": " + std::to_string(threads) +
            ", \"threads_effective\": " + std::to_string(effective);
    if (threads > cores) {
      json += ", \"wall_ms\": \"not measured\"";
    } else {
      const CallMillis ms = MillisPerCall(
          [&] { (void)IngestCsvParallel(text, {}, ingest); }, iterations);
      const double speedup = ms.wall > 0.0 ? serial_ms.wall / ms.wall : 0.0;
      if (speedup > best_speedup) best_speedup = speedup;
      json += ", " + TimingFields(ms, mb, rows);
      std::snprintf(buf, sizeof(buf), "%.2f", speedup);
      json += ", \"speedup_vs_serial\": " + std::string(buf);
    }
    json += std::string(", \"bitwise_identical\": ") +
            (same ? "true" : "false") + "}";
    json += t + 1 < 3 ? ",\n" : "\n";
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf), "%.2f", best_speedup);
  json += "  \"best_speedup\": " + std::string(buf) + ",\n";
  json += std::string("  \"deterministic\": ") +
          (deterministic ? "true" : "false") + "\n";
  json += "}\n";

  if (!deterministic) {
    std::fprintf(stderr,
                 "REFUSING to write %s: an engine configuration was not "
                 "bitwise-identical to the serial reference\n",
                 path);
    return 1;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s (best speedup %.2fx, deterministic=true)\n", path,
              best_speedup);
  return 0;
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
  if (json_path != nullptr) return WriteIngestComparison(json_path);
  return 0;
}
