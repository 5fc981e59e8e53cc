// pipebench: the repository's end-to-end benchmark.
//
//   pipebench --workload <train_kdd|serve_syngen|stream_drift_kdd|baselines_kdd>
//             --seed <n> --seconds <s> --trace <0|1> [--quick]
//             [--revision <rev>]
//
// Prints a report line (settings, machine, revision, the workload's named
// metrics and failed gates) and, last, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end metrics with --trace 0 and the
// per-layer ledger with --trace 1. Exits 1 when a correctness gate failed
// and 2 on bad arguments (without printing a result).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace pipebench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json; `run.py --quick` checks they agree.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"result_s", "s"},
    {"rows_per_s", "1/s"},   {"rare_f1", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kLayers[] = {
    {"data.ingest.busy_s", "s"},
    {"data.ingest.mb_per_s", "MB/s"},
    {"data.shard_store.write_s", "s"},
    {"data.shard_store.open_s", "s"},
    {"data.shard_store.bytes", "bytes"},
    {"data.paging.faults", "count"},
    {"data.paging.evictions", "count"},
    {"data.paging.peak_resident_bytes", "bytes"},
    {"induction.engine_build_s", "s"},
    {"pnrule.p_phase.busy_s", "s"},
    {"pnrule.n_phase.busy_s", "s"},
    {"pnrule.score_matrix.busy_s", "s"},
    {"pnrule.p_phase.paged.busy_s", "s"},
    {"pnrule.n_phase.paged.busy_s", "s"},
    {"pnrule.score_matrix.paged.busy_s", "s"},
    {"pnrule.p_rules", "count"},
    {"pnrule.n_rules", "count"},
    {"rules.compile.busy_s", "s"},
    {"rules.score.busy_s", "s"},
    {"rules.score.ns_per_row", "ns"},
    {"serve.load.busy_s", "s"},
    {"serve.install.busy_s", "s"},
    {"serve.server_p50_us", "us"},
    {"serve.server_p99_us", "us"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.batches", "count"},
    {"serve.rejected", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.model_swaps", "count"},
    {"serve.gen_late_p99_us", "us"},
    {"stream.feed.busy_s", "s"},
    {"stream.feed.mb_per_s", "MB/s"},
    {"stream.ingest.busy_s", "s"},
    {"stream.pump.busy_s", "s"},
    {"stream.windows", "count"},
    {"stream.retrain.rows", "count"},
    {"stream.finish.wait_s", "s"},
    {"stream.swaps", "count"},
    {"ripper.busy_s", "s"},
    {"c45.tree.busy_s", "s"},
    {"c45.rules.busy_s", "s"},
    {"assoc.cba.busy_s", "s"},
    {"assoc.itemsets", "count"},
    {"residual_s", "s"},
    {"trace.total_s", "s"},
    {"trace.overhead_s", "s"},
};

struct WorkloadSpec {
  const char* name;
  void (*run)(const Options&, Result*);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"train_kdd", RunTrainKdd},
    {"serve_syngen", RunServeSyngen},
    {"stream_drift_kdd", RunStreamDriftKdd},
    {"baselines_kdd", RunBaselinesKdd},
};

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

// `specs` filled from `measured`: metrics this workload does not have are 0
// (per-layer only), non-finite values fail the run.
template <size_t N>
std::string MetricsJson(const MetricSpec (&specs)[N],
                        const std::map<std::string, Metric>& measured,
                        bool missing_is_zero, Result* result) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    const auto it = measured.find(specs[i].name);
    double value = 0.0;
    if (it != measured.end()) {
      value = it->second.value;
      result->Gate(it->second.unit == specs[i].unit,
                   std::string("metric ") + specs[i].name + " has unit " +
                       it->second.unit);
    } else {
      result->Gate(missing_is_zero,
                   std::string("metric ") + specs[i].name + " was not measured");
    }
    if (!std::isfinite(value)) {
      result->Gate(false, std::string("metric ") + specs[i].name +
                              " is not finite");
      value = 0.0;
    }
    if (i > 0) out += ", ";
    out += Quote(specs[i].name) + ": {\"value\": " + Number(value) +
           ", \"unit\": " + Quote(specs[i].unit) + "}";
  }
  for (const auto& [name, metric] : measured) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || name == spec.name;
    result->Gate(known, "metric " + name + " is not in BENCHMARK.json");
  }
  return out + "}";
}

std::string NamedJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + Quote(metric.unit) +
           ", \"basis\": " + Quote(metric.basis) + "}";
  }
  return out + "}";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--quick] [--revision <rev>]\n"
               "workloads: train_kdd serve_syngen stream_drift_kdd "
               "baselines_kdd\n",
               message);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      options.quick = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &number) &&
               number >= 1 && number <= 120) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else if (flag == "--revision") {
      options.revision = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const WorkloadSpec* workload = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (options.workload == spec.name) workload = &spec;
  }
  if (workload == nullptr) return Usage("unknown --workload");

  Result result;
  if (options.quick) SelfTestLedgerGate(&result);
  try {
    workload->run(options, &result);
  } catch (const std::exception& error) {
    result.Gate(false, std::string("run aborted: ") + error.what());
  }
  result.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB",
                                      "max resident set of the run's process"};

  const std::string metrics =
      options.trace ? MetricsJson(kLayers, result.layers, true, &result)
                    : MetricsJson(kEndToEnd, result.end_to_end,
                                  !result.gate_failures.empty(), &result);
  std::string report = "{\"report\": {\"workload\": " + Quote(options.workload);
  report += ", \"seed\": " + std::to_string(options.seed);
  report += ", \"seconds\": " + Number(options.seconds);
  report += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  report += std::string(", \"quick\": ") + (options.quick ? "true" : "false");
  report += ", \"nproc\": " + std::to_string(HardwareThreads());
  report += ", \"revision\": " + Quote(options.revision);
  report += ", \"config\": {";
  bool first = true;
  for (const auto& [name, value] : result.config) {
    report += (first ? "" : ", ") + Quote(name) + ": " + value;
    first = false;
  }
  report += "}, \"named\": " + NamedJson(result.named);
  report += ", \"end_to_end\": " + NamedJson(result.end_to_end);
  if (options.trace) report += ", \"layers\": " + NamedJson(result.layers);
  report += ", \"gates_failed\": [";
  for (size_t i = 0; i < result.gate_failures.size(); ++i) {
    report += (i > 0 ? ", " : "") + Quote(result.gate_failures[i]);
  }
  report += "]}}";
  std::printf("%s\n", report.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.gate_failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, result.attempted)),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.gate_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
