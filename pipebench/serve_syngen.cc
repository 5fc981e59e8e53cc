// serve_syngen: online scoring of one-row requests against a syngen model
// (500-value categorical vocabulary, 5% target) on an in-process
// PredictionServer over loopback. Half the connections speak JSON over
// HTTP/1.1 and half the binary protocol, all pipelined keep-alive. Each pass
// runs a closed loop at saturation, then an open loop at kOpenRate
// requests/s on a fixed schedule that does not slow when the server does;
// open-loop latency is timed from each request's scheduled send time.
// Throughout, the main thread re-installs the same model through
// ModelRegistry::Install every kInstallPeriod, so registry writes run beside
// the shards' reads. Every served score must be bit-identical to offline
// ScoreBatch.

#include <poll.h>
#include <sys/socket.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "common/net.h"
#include "eval/confusion.h"
#include "serve/binary.h"
#include "serve/json.h"
#include "serve/server.h"
#include "synth/sweep.h"

namespace pipebench {
namespace {

using namespace pnr;

// The closed loop below (1 shard, 2 client threads, 4 connections at depth
// 16, half JSON and half binary) saturates at a median of 256k-302k rows/s
// in each of five sets of ten seeds on a shared 4-core AMD EPYC machine,
// with the library as this benchmark was added. 40000 req/s is about 16% of
// the lowest figure, so the open loop measures latency without a growing
// backlog. Recorded in BENCHMARK.json.
constexpr double kOpenRate = 40000.0;
constexpr size_t kPipelineDepth = 16;  // closed loop, per connection
constexpr auto kInstallPeriod = std::chrono::milliseconds(100);
constexpr double kDrainSeconds = 5.0;
constexpr size_t kTrainRows = 8000;
constexpr size_t kTestRows = 2000;

// Client threads plus server shards stay within the cores, and so do the
// connections; every client thread drives one JSON and one binary
// connection. One shard: with several, SO_REUSEPORT hashes the few
// connections onto shards unevenly and differently on every connect, which
// swung closed-loop throughput by a third between runs.
struct Topology {
  size_t shards;
  size_t client_threads;
  size_t connections;
};

Topology TopologyFor(size_t cores) {
  const size_t clients = std::clamp<size_t>(cores - 1, 1, 2);
  return {1, clients, 2 * clients};
}

double PhaseSeconds(const Options& options) {
  return options.quick ? 0.3 : 1.5;
}

struct ServeSetup {
  std::optional<TrainTestPair> data;
  std::optional<PnruleClassifier> model;
  std::vector<double> expected;  ///< offline ScoreBatch of every test row
  std::vector<std::string> json_frames;
  std::vector<std::string> binary_frames;
  std::vector<RowId> order;  ///< request order over the test rows, from the seed
  ModelRegistry registry;
  std::unique_ptr<PredictionServer> server;  // last: stops before the rest
};

std::string JsonFrame(const Dataset& data, RowId row) {
  const Schema& schema = data.schema();
  std::string body = "{\"model\":\"m\",\"rows\":[{";
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const auto attr = static_cast<AttrIndex>(a);
    if (a > 0) body += ',';
    AppendJsonString(&body, schema.attribute(attr).name());
    body += ':';
    if (schema.attribute(attr).is_numeric()) {
      AppendJsonNumber(&body, data.numeric(row, attr));
    } else {
      AppendJsonString(&body, schema.attribute(attr).CategoryName(
                                  data.categorical(row, attr)));
    }
  }
  body += "}]}";
  return "POST /v1/predict HTTP/1.1\r\nHost: pipebench\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::unique_ptr<ServeSetup> MakeSetup(const Options& options,
                                      const Topology& topology) {
  auto setup = std::make_unique<ServeSetup>();
  GeneralModelParams params;
  params.target_fraction = 0.05;
  params.vocab = 500;
  setup->data.emplace(MakeGeneralPair(params, kTrainRows, kTestRows,
                                      DeriveSeed(DataSeed(options), 2)));
  const Dataset& train = setup->data->train;
  const Dataset& test = setup->data->test;
  const CategoryId target = train.schema().class_attr().FindCategory("C");
  StatusOr<PnruleClassifier> model = PnruleLearner().Train(train, target);
  if (!model.ok()) {
    throw std::runtime_error("syngen model: " + model.status().ToString());
  }
  setup->model.emplace(std::move(model).value());
  std::vector<RowId> rows(test.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  setup->expected.resize(rows.size());
  setup->model->ScoreBatch(test, rows.data(), rows.size(),
                           setup->expected.data());
  setup->registry.Install("m", train.schema(), *setup->model);
  setup->order = ShuffledRows(rows.size(), options.seed);
  for (const RowId row : rows) {
    setup->json_frames.push_back(JsonFrame(test, row));
    std::string payload;
    EncodeBinaryRows(test, row, row + 1, &payload);
    setup->binary_frames.push_back(EncodeBinaryRequest("m", payload));
  }
  ServerConfig config;
  config.port = 0;
  config.num_shards = topology.shards;
  config.max_pipeline_depth = std::max<size_t>(64, 2 * kPipelineDepth);
  setup->server = std::make_unique<PredictionServer>(config, &setup->registry);
  const Status started = setup->server->Start();
  if (!started.ok()) {
    throw std::runtime_error("server start: " + started.ToString());
  }
  return setup;
}

struct Pending {
  uint32_t row = 0;
  Clock::time_point due;  ///< scheduled send time (closed loop: send time)
};

struct Conn {
  UniqueFd fd;
  bool binary = false;
  bool broken = false;
  std::string in;
  std::string out;
  std::deque<Pending> inflight;
  size_t next_row = 0;
  Clock::time_point next_due;
};

// One client thread's tallies; merged after the phase.
struct LoadStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;      ///< non-200 other than 503/504, or unanswered
  uint64_t mismatched = 0;  ///< 200 with a score that is not bit-identical
  uint64_t rejected = 0;    ///< 503
  uint64_t timed_out = 0;   ///< 504
  std::vector<double> latency_us;
  std::vector<double> late_us;  ///< how late the open-loop generator sent

  void Merge(const LoadStats& other) {
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
    mismatched += other.mismatched;
    rejected += other.rejected;
    timed_out += other.timed_out;
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
  }
};

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct Reply {
  int status = 0;
  bool has_score = false;
  double score = 0.0;
};

// Takes one complete response off the front of conn->in: 1 when one was
// taken, 0 when more bytes are needed, -1 on a malformed frame.
int TakeReply(Conn* conn, Reply* reply) {
  *reply = Reply();
  if (conn->binary) {
    BinaryResponse response;
    size_t consumed = 0;
    if (!ParseBinaryResponse(conn->in, &response, &consumed).ok()) return -1;
    if (consumed == 0) return 0;
    conn->in.erase(0, consumed);
    reply->status = HttpStatusOf(response.status);
    reply->has_score = response.scores.size() == 1;
    if (reply->has_score) reply->score = response.scores[0];
    return 1;
  }
  const size_t head_end = conn->in.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  const std::string_view head(conn->in.data(), head_end);
  if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") return -1;
  reply->status = std::atoi(std::string(head.substr(9, 3)).c_str());
  size_t length = 0;
  bool has_length = false;
  for (size_t at = head.find("\r\n"); at != std::string_view::npos;
       at = head.find("\r\n", at + 2)) {
    const std::string_view line = head.substr(at + 2, head.find("\r\n", at + 2) - (at + 2));
    constexpr std::string_view kName = "content-length:";
    if (line.size() <= kName.size()) continue;
    bool match = true;
    for (size_t i = 0; i < kName.size() && match; ++i) {
      match = std::tolower(static_cast<unsigned char>(line[i])) == kName[i];
    }
    if (!match) continue;
    length = std::strtoull(std::string(line.substr(kName.size())).c_str(),
                           nullptr, 10);
    has_length = true;
  }
  if (!has_length) return -1;
  const size_t total = head_end + 4 + length;
  if (conn->in.size() < total) return 0;
  if (reply->status == 200) {
    const StatusOr<JsonValue> doc =
        ParseJson(std::string_view(conn->in).substr(head_end + 4, length));
    const JsonValue* scores = doc.ok() ? doc->Find("scores") : nullptr;
    reply->has_score = scores != nullptr && scores->array.size() == 1;
    if (reply->has_score) reply->score = scores->array[0].number_value;
  }
  conn->in.erase(0, total);
  return 1;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Drives `conns` from one client thread until `end`, then drains. Closed
// loop: each connection keeps kPipelineDepth requests in flight and sends
// the next as soon as one is answered. Open loop: each connection sends on
// its own fixed schedule whether or not answers have come back.
void ClientLoop(const ServeSetup& setup, std::vector<Conn>* conns,
                bool open_loop, size_t total_conns, Clock::time_point end,
                LoadStats* stats) {
  const size_t num_rows = setup.expected.size();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(total_conns) /
                                    kOpenRate));
  const auto queue = [&](Conn& conn, Clock::time_point due) {
    const size_t row = setup.order[conn.next_row];
    conn.next_row = (conn.next_row + total_conns) % num_rows;
    conn.out += conn.binary ? setup.binary_frames[row] : setup.json_frames[row];
    conn.inflight.push_back({static_cast<uint32_t>(row), due});
    ++stats->sent;
  };
  const auto fail_conn = [&](Conn& conn) {
    conn.broken = true;
    stats->failed += conn.inflight.size();
    conn.inflight.clear();
    conn.out.clear();
  };
  if (open_loop) {
    const auto expected = static_cast<size_t>(
        kOpenRate * Seconds(Clock::now(), end) * static_cast<double>(conns->size()) /
        static_cast<double>(total_conns) * 1.1);
    stats->latency_us.reserve(expected);
    stats->late_us.reserve(expected);
  } else {
    const Clock::time_point now = Clock::now();
    for (Conn& conn : *conns) {
      for (size_t i = 0; i < kPipelineDepth; ++i) queue(conn, now);
    }
  }
  const Clock::time_point drain_deadline =
      end + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kDrainSeconds));
  std::vector<pollfd> fds(conns->size());
  char buf[65536];
  while (true) {
    Clock::time_point now = Clock::now();
    const bool sending = now < end;
    if (open_loop && sending) {
      for (Conn& conn : *conns) {
        while (!conn.broken && conn.next_due <= now && conn.next_due < end) {
          stats->late_us.push_back(Us(now - conn.next_due));
          queue(conn, conn.next_due);
          conn.next_due += interval;
        }
      }
    }
    bool waiting = false;
    for (Conn& conn : *conns) {
      if (conn.broken) continue;
      if (!conn.out.empty()) {
        if (!SendAll(conn.fd.get(), conn.out).ok()) {
          fail_conn(conn);
          continue;
        }
        conn.out.clear();
      }
      waiting = waiting || !conn.inflight.empty();
    }
    if (!sending && (!waiting || now >= drain_deadline)) break;

    // Sleep until a response arrives or the next request falls due.
    Clock::time_point wake = sending ? end : drain_deadline;
    if (open_loop && sending) {
      for (const Conn& conn : *conns) {
        if (!conn.broken) wake = std::min(wake, conn.next_due);
      }
    }
    const auto wait = std::max(Clock::duration::zero(), wake - now);
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
    timeout.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    for (size_t i = 0; i < conns->size(); ++i) {
      const Conn& conn = (*conns)[i];
      fds[i] = {conn.broken ? -1 : conn.fd.get(), POLLIN, 0};
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      for (Conn& conn : *conns) fail_conn(conn);
      break;
    }
    now = Clock::now();
    for (size_t i = 0; i < conns->size(); ++i) {
      Conn& conn = (*conns)[i];
      if (conn.broken || fds[i].revents == 0) continue;
      while (true) {
        const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          conn.in.append(buf, static_cast<size_t>(n));
          if (static_cast<size_t>(n) < sizeof(buf)) break;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail_conn(conn);  // EOF or a socket error
        break;
      }
      if (conn.broken) continue;
      Reply reply;
      int taken = 0;
      while (!conn.inflight.empty() && (taken = TakeReply(&conn, &reply)) == 1) {
        const Pending pending = conn.inflight.front();
        conn.inflight.pop_front();
        if (reply.status == 200 && reply.has_score &&
            SameBits(reply.score, setup.expected[pending.row])) {
          ++stats->ok;
          if (open_loop) stats->latency_us.push_back(Us(now - pending.due));
        } else if (reply.status == 200) {
          ++stats->mismatched;
        } else if (reply.status == 503) {
          ++stats->rejected;
        } else if (reply.status == 504) {
          ++stats->timed_out;
        } else {
          ++stats->failed;
        }
        if (!open_loop && sending) queue(conn, now);
      }
      if (taken < 0) fail_conn(conn);
    }
  }
  for (Conn& conn : *conns) {
    stats->failed += conn.inflight.size();
    conn.inflight.clear();
  }
}

struct PhaseOutput {
  LoadStats stats;
  double seconds = 0.0;
  MetricsSnapshot before;
  MetricsSnapshot after;
};

PhaseOutput RunPhase(ServeSetup& setup, const Topology& topology,
                     bool open_loop, double seconds, Tracer* tracer) {
  std::vector<std::vector<Conn>> per_thread(topology.client_threads);
  for (size_t c = 0; c < topology.connections; ++c) {
    StatusOr<UniqueFd> fd = ConnectLoopback(setup.server->port());
    if (!fd.ok()) throw std::runtime_error("connect: " + fd.status().ToString());
    Conn conn;
    conn.fd = std::move(fd).value();
    conn.binary = (c / topology.client_threads) % 2 == 1;
    conn.next_row = c;
    per_thread[c % topology.client_threads].push_back(std::move(conn));
  }
  PhaseOutput out;
  out.before = setup.server->Totals();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto stagger = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenRate));
  for (size_t c = 0; c < topology.connections; ++c) {
    per_thread[c % topology.client_threads][c / topology.client_threads]
        .next_due = start + static_cast<int64_t>(c) * stagger;
  }
  std::vector<LoadStats> stats(topology.client_threads);
  {
    Tracer::Scope load(tracer, "serve.load");
    std::vector<std::thread> clients;
    for (size_t t = 0; t < topology.client_threads; ++t) {
      clients.emplace_back([&, t] {
        ClientLoop(setup, &per_thread[t], open_loop, topology.connections,
                   end, &stats[t]);
      });
    }
    // Registry writes beside the shards' reads: the same model again, on a
    // fixed cadence.
    for (Clock::time_point next = start + kInstallPeriod; next < end;
         next += kInstallPeriod) {
      std::this_thread::sleep_until(next);
      tracer->Run("serve.install", [&] {
        setup.registry.Install("m", setup.data->train.schema(), *setup.model);
      });
    }
    for (std::thread& client : clients) client.join();
  }
  out.seconds = seconds;
  out.after = setup.server->Totals();
  for (const LoadStats& s : stats) out.stats.Merge(s);
  return out;
}

BucketHistogram::Snapshot LatencyDelta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  BucketHistogram::Snapshot delta;
  const BucketHistogram::Snapshot& a = after.predict.latency_us;
  const BucketHistogram::Snapshot& b = before.predict.latency_us;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] = a.buckets[i] - b.buckets[i];
  }
  delta.count = a.count - b.count;
  delta.sum = a.sum - b.sum;
  return delta;
}

struct PassOutput {
  double closed_rows_per_s = 0.0;
  std::vector<double> open_latency_us;
  std::vector<double> late_us;
  BucketHistogram::Snapshot server_latency;  ///< open-loop phase
  uint64_t batches = 0;
  uint64_t batch_rows = 0;
  uint64_t rejected = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t model_swaps = 0;
};

void Account(const PhaseOutput& phase, PassOutput* pass, Result* result) {
  const LoadStats& s = phase.stats;
  result->attempted += s.sent;
  result->failed += s.failed + s.mismatched + s.rejected + s.timed_out;
  result->Gate(s.mismatched == 0,
               "a served score differs from offline ScoreBatch");
  pass->batches += phase.after.batches_flushed - phase.before.batches_flushed;
  pass->batch_rows += phase.after.batch_rows.sum - phase.before.batch_rows.sum;
  pass->rejected += phase.after.rejected_total - phase.before.rejected_total;
  pass->deadline_exceeded +=
      phase.after.deadline_exceeded - phase.before.deadline_exceeded;
  pass->model_swaps +=
      phase.after.model_swaps_total - phase.before.model_swaps_total;
}

PassOutput RunPass(ServeSetup& setup, const Topology& topology,
                   const Options& options, Tracer* tracer, Result* result) {
  PassOutput pass;
  const double seconds = PhaseSeconds(options);
  const PhaseOutput closed = RunPhase(setup, topology, false, seconds, tracer);
  Account(closed, &pass, result);
  pass.closed_rows_per_s = static_cast<double>(closed.stats.ok) / seconds;
  const PhaseOutput open = RunPhase(setup, topology, true, seconds, tracer);
  Account(open, &pass, result);
  pass.open_latency_us = open.stats.latency_us;
  pass.late_us = open.stats.late_us;
  pass.server_latency = LatencyDelta(open.before, open.after);
  return pass;
}

// Offline ScoreBatch cost at the server's mean batch size.
double ScoreNsPerRow(const ServeSetup& setup, size_t batch) {
  const Dataset& test = setup.data->test;
  std::vector<RowId> rows(test.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<double> scores(rows.size());
  constexpr size_t kRepeats = 50;
  const Clock::time_point start = Clock::now();
  for (size_t r = 0; r < kRepeats; ++r) {
    for (size_t begin = 0; begin < rows.size(); begin += batch) {
      const size_t count = std::min(batch, rows.size() - begin);
      setup.model->ScoreBatch(test, rows.data() + begin, count,
                              scores.data() + begin);
    }
  }
  return Seconds(start, Clock::now()) * 1e9 /
         static_cast<double>(kRepeats * rows.size());
}

}  // namespace

void RunServeSyngen(const Options& options, Result* result) {
  const Topology topology = TopologyFor(HardwareThreads());
  const auto setup =
      RepeatSetup([&] { return MakeSetup(options, topology); }, result);
  Tracer tracer;
  std::vector<PassOutput> untraced;
  std::vector<PassOutput> traced;
  const PassTimes times = RunPasses(options, 3, &tracer, [&](bool is_traced) {
    PassOutput pass = RunPass(*setup, topology, options, &tracer, result);
    (is_traced ? traced : untraced).push_back(std::move(pass));
  });

  std::vector<double> rows_per_s, latency_us, late_us;
  for (const PassOutput& pass : untraced) {
    rows_per_s.push_back(pass.closed_rows_per_s);
    latency_us.insert(latency_us.end(), pass.open_latency_us.begin(),
                      pass.open_latency_us.end());
    late_us.insert(late_us.end(), pass.late_us.begin(), pass.late_us.end());
  }
  const size_t n = latency_us.size();
  const double tail_q = TailQuantile(n);
  const std::string samples = ", n=" + std::to_string(n);
  const std::string open =
      "wall, open loop at " + std::to_string(static_cast<int>(kOpenRate)) +
      " req/s, from scheduled send to response, untraced passes";
  result->end_to_end["result_s"] = {Quantile(latency_us, 0.5) / 1e6, "s",
                                    open + ", p50" + samples};
  result->end_to_end["rows_per_s"] = {
      Median(rows_per_s), "1/s",
      "wall, median of untraced passes: closed-loop responses/s"};
  Confusion confusion;
  const Dataset& test = setup->data->test;
  const CategoryId target = test.schema().class_attr().FindCategory("C");
  for (size_t row = 0; row < setup->expected.size(); ++row) {
    confusion.Add(test.label(static_cast<RowId>(row)) == target,
                  setup->expected[row] > setup->model->threshold());
  }
  result->end_to_end["rare_f1"] = {
      confusion.f_measure(), "ratio",
      "C F-measure of the served predictions on the test split (served "
      "scores are gated bit-identical to offline)"};
  result->named["serve_rows_per_s"] = result->end_to_end["rows_per_s"];
  result->named["serve_p50_us"] = {Quantile(latency_us, 0.5), "us",
                                   open + ", p50" + samples};
  result->named["serve_p99_us"] = {Quantile(latency_us, 0.99), "us",
                                   open + ", p99" + samples};
  result->named["serve_tail_us"] = {Quantile(latency_us, tail_q), "us",
                                    open + ", p" + FormatQuantile(tail_q) +
                                        " (highest with >= 10 samples "
                                        "beyond it)" + samples};
  result->named["serve_gen_late_p99_us"] = {
      Quantile(late_us, 0.99), "us",
      "wall, open-loop send time minus scheduled time, p99, n=" +
          std::to_string(late_us.size())};
  result->config["shards"] = std::to_string(topology.shards);
  result->config["client_threads"] = std::to_string(topology.client_threads);
  result->config["connections"] = std::to_string(topology.connections);
  result->config["json_connections"] = std::to_string(topology.connections / 2);
  result->config["binary_connections"] =
      std::to_string(topology.connections / 2);
  result->config["pipeline_depth"] = std::to_string(kPipelineDepth);
  result->config["open_rate_per_s"] = std::to_string(kOpenRate);
  result->config["phase_seconds"] = std::to_string(PhaseSeconds(options));
  result->config["install_period_ms"] =
      std::to_string(kInstallPeriod.count());
  result->config["passes"] = std::to_string(untraced.size() + traced.size());

  if (!options.trace) return;
  AddLedger(tracer, times, result);
  BucketHistogram::Snapshot server;
  uint64_t batches = 0, batch_rows = 0, rejected = 0, deadline = 0, swaps = 0;
  std::vector<double> all_late;
  for (const auto* group : {&untraced, &traced}) {
    for (const PassOutput& pass : *group) {
      server.Merge(pass.server_latency);
      batches += pass.batches;
      batch_rows += pass.batch_rows;
      rejected += pass.rejected;
      deadline += pass.deadline_exceeded;
      swaps += pass.model_swaps;
      all_late.insert(all_late.end(), pass.late_us.begin(), pass.late_us.end());
    }
  }
  auto& layers = result->layers;
  const std::string server_basis =
      "server-side predict latency histogram, open-loop phases, n=" +
      std::to_string(server.count);
  layers["serve.server_p50_us"] = {server.Quantile(0.5), "us",
                                   server_basis + ", p50"};
  layers["serve.server_p99_us"] = {server.Quantile(0.99), "us",
                                   server_basis + ", p99"};
  const double mean_batch =
      batches > 0 ? static_cast<double>(batch_rows) / static_cast<double>(batches)
                  : 0.0;
  layers["serve.batch_rows_mean"] = {mean_batch, "rows",
                                     "count, rows per flushed batch"};
  layers["serve.batches"] = {static_cast<double>(batches), "count",
                             "count, all passes"};
  layers["serve.rejected"] = {static_cast<double>(rejected), "count",
                              "count, 503s, all passes"};
  layers["serve.deadline_exceeded"] = {static_cast<double>(deadline), "count",
                                       "count, 504s, all passes"};
  layers["serve.model_swaps"] = {static_cast<double>(swaps), "count",
                                 "count, hot-swaps the shards observed"};
  layers["serve.gen_late_p99_us"] = {
      Quantile(all_late, 0.99), "us",
      "wall, open-loop send minus scheduled time, p99, n=" +
          std::to_string(all_late.size())};
  layers["rules.score.ns_per_row"] = {
      ScoreNsPerRow(*setup, std::max<size_t>(
                                1, static_cast<size_t>(std::llround(mean_batch)))),
      "ns", "wall, offline ScoreBatch at the mean served batch size"};
}

}  // namespace pipebench
