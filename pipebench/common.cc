#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "synth/kdd_sim.h"

namespace pipebench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailQuantile(size_t count) {
  double best = 0.5;
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    if ((1.0 - q) * static_cast<double>(count) >= 10.0 - 1e-6) best = q;
  }
  return best;
}

std::string FormatQuantile(double q) {
  char label[32];
  std::snprintf(label, sizeof(label), "%g", q * 100.0);
  return label;
}

namespace {

// Every span a traced pass records, and the ledger metric its self time
// goes to. A span missing here fails the run, so the ledger stays complete.
constexpr std::pair<const char*, const char*> kLedgerLayers[] = {
    {"data.ingest", "data.ingest.busy_s"},
    {"data.shard_store.write", "data.shard_store.write_s"},
    {"data.shard_store.open", "data.shard_store.open_s"},
    {"induction.engine_build", "induction.engine_build_s"},
    {"pnrule.p_phase", "pnrule.p_phase.busy_s"},
    {"pnrule.n_phase", "pnrule.n_phase.busy_s"},
    {"pnrule.score_matrix", "pnrule.score_matrix.busy_s"},
    {"pnrule.p_phase.paged", "pnrule.p_phase.paged.busy_s"},
    {"pnrule.n_phase.paged", "pnrule.n_phase.paged.busy_s"},
    {"pnrule.score_matrix.paged", "pnrule.score_matrix.paged.busy_s"},
    {"rules.compile", "rules.compile.busy_s"},
    {"rules.score", "rules.score.busy_s"},
    {"serve.load", "serve.load.busy_s"},
    {"serve.install", "serve.install.busy_s"},
    {"stream.feed", "stream.feed.busy_s"},
    {"stream.ingest", "stream.ingest.busy_s"},
    {"stream.pump", "stream.pump.busy_s"},
    {"stream.finish", "stream.finish.wait_s"},
    {"ripper", "ripper.busy_s"},
    {"c45.tree", "c45.tree.busy_s"},
    {"c45.rules", "c45.rules.busy_s"},
    {"assoc.cba", "assoc.cba.busy_s"},
};

// Self times are durations minus child durations, so they add up to the
// pass time by construction; what can go wrong is a span that overlaps a
// sibling or outlives its parent, which also drives a self time below 0.
void GateLedger(const Ledger& ledger, Result* result) {
  result->Gate(ledger.passes > 0, "no traced pass ran");
  result->Gate(ledger.well_nested, "trace spans are not strictly nested");
  constexpr double kSlack = -1e-9;  // rounding of nanosecond differences
  result->Gate(ledger.residual_s >= kSlack, "residual_s is negative");
  for (const auto& [span, seconds] : ledger.self_s) {
    result->Gate(seconds >= kSlack, "span " + span + " has a negative self time");
  }
}

}  // namespace

void SelfTestLedgerGate(Result* result) {
  // One pass [0, 10] ms whose two children overlap: [1, 8] and [2, 9].
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::vector<Span> spans = {
      {"pass", -1, at(0), at(10)},
      {"rules.score", 0, at(1), at(8)},
      {"rules.compile", 0, at(2), at(9)},
  };
  Result probe;
  GateLedger(BuildLedger(spans, "pass"), &probe);
  result->Gate(probe.gate_failures.size() == 2,
               "the ledger gate let overlapping spans through");
}

void AddLedger(const Tracer& tracer, const PassTimes& times, Result* result) {
  const Ledger ledger = BuildLedger(tracer.spans(), "pass");
  GateLedger(ledger, result);
  const std::string basis = "wall self time, mean per traced pass";
  for (const auto& [span, seconds] : ledger.self_s) {
    const auto* entry =
        std::find_if(std::begin(kLedgerLayers), std::end(kLedgerLayers),
                     [&](const auto& e) { return span == e.first; });
    if (entry == std::end(kLedgerLayers)) {
      result->Gate(false, "span " + span + " has no ledger metric");
      continue;
    }
    result->layers[entry->second] = {seconds, "s", basis};
  }
  result->layers["residual_s"] = {ledger.residual_s, "s", basis};
  result->layers["trace.total_s"] = {
      ledger.total_s, "s", "wall, mean traced pass (root span duration)"};
  result->layers["trace.overhead_s"] = {
      Median(times.traced) - Median(times.untraced), "s",
      "wall, median traced pass minus median untraced pass"};
}

uint64_t DataSeed(const Options& options) {
  return options.quick ? options.seed : 20010521;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of the seed offset by the stream.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<pnr::RowId> ShuffledRows(size_t count, uint64_t seed) {
  std::vector<pnr::RowId> rows(count);
  for (size_t i = 0; i < count; ++i) rows[i] = static_cast<pnr::RowId>(i);
  uint64_t state = seed;
  for (size_t i = count; i > 1; --i) {
    state = DeriveSeed(state, i);
    std::swap(rows[i - 1], rows[state % i]);
  }
  return rows;
}

size_t HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string RenderCsv(const pnr::Dataset& data, size_t begin, size_t end,
                      bool header) {
  const pnr::Schema& schema = data.schema();
  const size_t num_attrs = schema.num_attributes();
  std::string out;
  if (header) {
    for (size_t a = 0; a < num_attrs; ++a) {
      out += schema.attribute(static_cast<pnr::AttrIndex>(a)).name();
      out += ',';
    }
    out += schema.class_attr().name();
    out += '\n';
  }
  char number[32];
  for (size_t r = begin; r < end; ++r) {
    const auto row = static_cast<pnr::RowId>(r);
    for (size_t a = 0; a < num_attrs; ++a) {
      const auto attr = static_cast<pnr::AttrIndex>(a);
      const pnr::Attribute& attribute = schema.attribute(attr);
      if (attribute.is_numeric()) {
        std::snprintf(number, sizeof(number), "%.17g", data.numeric(row, attr));
        out += number;
      } else {
        const pnr::CategoryId id = data.categorical(row, attr);
        out += id == pnr::kInvalidCategory ? std::string("?")
                                           : attribute.CategoryName(id);
      }
      out += ',';
    }
    out += schema.class_attr().CategoryName(data.label(row));
    out += '\n';
  }
  return out;
}

pnr::Dataset CopyRows(const pnr::Dataset& data, size_t begin, size_t end) {
  const pnr::Schema& schema = data.schema();
  pnr::Dataset out(schema);
  out.AppendRows(end - begin);
  const auto first = static_cast<std::ptrdiff_t>(begin);
  const auto last = static_cast<std::ptrdiff_t>(end);
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const auto attr = static_cast<pnr::AttrIndex>(a);
    if (schema.attribute(attr).is_numeric()) {
      const std::vector<double>& column = data.numeric_column(attr);
      std::copy(column.begin() + first, column.begin() + last,
                out.mutable_numeric_data(attr));
    } else {
      const std::vector<pnr::CategoryId>& column =
          data.categorical_column(attr);
      std::copy(column.begin() + first, column.begin() + last,
                out.mutable_categorical_data(attr));
    }
  }
  std::copy(data.labels().begin() + first, data.labels().begin() + last,
            out.mutable_label_data());
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

KddCsv MakeKddCsv(uint64_t seed, size_t train_rows, size_t test_rows) {
  pnr::KddSimParams params;
  params.train_records = train_rows;
  params.test_records = test_rows;
  params.seed = seed;
  pnr::StatusOr<pnr::KddSimData> generated = pnr::GenerateKddSim(params);
  if (!generated.ok()) {
    throw std::runtime_error("kdd_sim: " + generated.status().ToString());
  }
  KddCsv csv;
  csv.text = RenderCsv(generated->train, 0, train_rows, true) +
             RenderCsv(generated->test, 0, test_rows, false);
  csv.train_rows = train_rows;
  return csv;
}

ScratchDir::ScratchDir(const std::string& name)
    : path_(".bench_run/" + name + "-" + std::to_string(::getpid())) {
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
  std::filesystem::remove(".bench_run", ignored);  // only when empty
}

}  // namespace pipebench
