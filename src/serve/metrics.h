// Lock-free serving metrics with a Prometheus-style text exposition.
//
// Counters are plain relaxed atomics — the hot path (one Record per
// request) must not contend. Latency quantiles come from fixed
// power-of-two bucket histograms: exact enough for p50/p99/p999
// dashboards, constant memory, and mergeable without locks.
//
// The sharded fleet gives each shard its own ServerMetrics instance, so
// recording never crosses a core. /metrics is assembled on demand:
// every shard is snapshotted (consistent-enough relaxed reads), snapshots
// merge into fleet aggregates rendered under the PR 4 metric names, and
// the same snapshots render per-shard `pnr_serve_shard_*` series so a
// dashboard can see kernel-level SO_REUSEPORT imbalance.

#ifndef PNR_SERVE_METRICS_H_
#define PNR_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pnr {

/// Histogram over microsecond latencies (or any uint64 magnitude): bucket i
/// holds samples in [2^i, 2^(i+1)), bucket 0 additionally holds 0.
class BucketHistogram {
 public:
  static constexpr size_t kNumBuckets = 32;

  /// A plain-value copy of the histogram: mergeable across shards and
  /// quantile-queryable without touching the live atomics again.
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;

    void Merge(const Snapshot& other);
    /// Approximate quantile (q in [0,1]): linear interpolation inside the
    /// bucket holding the q-th sample. 0 when empty.
    double Quantile(double q) const;
  };

  void Record(uint64_t value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double Quantile(double q) const { return Snap().Quantile(q); }
  Snapshot Snap() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Per-endpoint request counters.
struct EndpointMetrics {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> errors_4xx{0};
  std::atomic<uint64_t> errors_5xx{0};
  BucketHistogram latency_us;

  void Record(int http_status, uint64_t latency_us_value);
};

struct EndpointSnapshot {
  uint64_t requests = 0;
  uint64_t errors_4xx = 0;
  uint64_t errors_5xx = 0;
  BucketHistogram::Snapshot latency_us;

  void Merge(const EndpointSnapshot& other);
};

/// Value snapshot of one shard's ServerMetrics. Doubles as the fleet
/// aggregate: merging every shard's snapshot yields the totals tests and
/// the bench assert on.
struct MetricsSnapshot {
  EndpointSnapshot predict;
  EndpointSnapshot models;
  EndpointSnapshot healthz;
  EndpointSnapshot metrics;
  EndpointSnapshot other;

  uint64_t rows_scored = 0;
  uint64_t batches_flushed = 0;
  BucketHistogram::Snapshot batch_rows;
  int64_t queue_rows = 0;
  uint64_t rejected_total = 0;
  uint64_t deadline_exceeded = 0;
  int64_t connections_active = 0;
  uint64_t connections_total = 0;
  uint64_t model_version = 0;      ///< gauge; fleet aggregate is the max
  uint64_t model_swaps_total = 0;  ///< counter; fleet aggregate is the sum

  void Merge(const MetricsSnapshot& other);
};

/// All counters one shard records. The fleet owns one per shard.
class ServerMetrics {
 public:
  EndpointMetrics& endpoint_predict() { return predict_; }
  EndpointMetrics& endpoint_models() { return models_; }
  EndpointMetrics& endpoint_healthz() { return healthz_; }
  EndpointMetrics& endpoint_metrics() { return metrics_; }
  EndpointMetrics& endpoint_other() { return other_; }

  // Batcher counters.
  std::atomic<uint64_t> rows_scored{0};
  std::atomic<uint64_t> batches_flushed{0};
  BucketHistogram batch_rows;          ///< rows per flushed batch
  std::atomic<int64_t> queue_rows{0};  ///< gauge: rows pending in batches

  // Backpressure / lifecycle counters.
  std::atomic<uint64_t> rejected_total{0};      ///< 503s (queue saturation)
  std::atomic<uint64_t> deadline_exceeded{0};   ///< 504s
  std::atomic<int64_t> connections_active{0};   ///< gauge
  std::atomic<uint64_t> connections_total{0};

  // Hot-swap observability (fed by the shard's snapshot-cache refresh; the
  // stream retrain orchestrator's registry installs surface here).
  std::atomic<uint64_t> model_version{0};     ///< gauge: max cached version
  std::atomic<uint64_t> model_swaps_total{0};  ///< observed swaps

  MetricsSnapshot Snap() const;

 private:
  EndpointMetrics predict_;
  EndpointMetrics models_;
  EndpointMetrics healthz_;
  EndpointMetrics metrics_;
  EndpointMetrics other_;
};

/// Renders the whole fleet: merged aggregates under the established
/// pnr_* names, then one `pnr_serve_shard_*` series group per shard
/// (labels shard="0"..).
std::string RenderFleetMetrics(const std::vector<const ServerMetrics*>& shards);

}  // namespace pnr

#endif  // PNR_SERVE_METRICS_H_
