#include "serve/metrics.h"

#include <cstdio>

namespace pnr {
namespace {

// Index of the highest set bit (0 for value 0 or 1).
size_t BucketIndex(uint64_t value) {
  size_t index = 0;
  while (value > 1 && index + 1 < BucketHistogram::kNumBuckets) {
    value >>= 1;
    ++index;
  }
  return index;
}

void AppendCounter(std::string* out, const char* name, const char* labels,
                   uint64_t value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s%s %llu\n", name, labels,
                static_cast<unsigned long long>(value));
  *out += buf;
}

void AppendGauge(std::string* out, const char* name, const char* labels,
                 int64_t value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s%s %lld\n", name, labels,
                static_cast<long long>(value));
  *out += buf;
}

constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};

// `labels` is the inner label list without braces ("endpoint=\"predict\"");
// the quantile label is appended to it.
void AppendQuantiles(std::string* out, const char* name, const char* labels,
                     const BucketHistogram::Snapshot& histogram) {
  char buf[240];
  for (const double q : kQuantiles) {
    std::snprintf(buf, sizeof(buf), "%s{%s,quantile=\"%g\"} %.1f\n", name,
                  labels, q, histogram.Quantile(q));
    *out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%s_count{%s} %llu\n", name, labels,
                static_cast<unsigned long long>(histogram.count));
  *out += buf;
  std::snprintf(buf, sizeof(buf), "%s_sum{%s} %llu\n", name, labels,
                static_cast<unsigned long long>(histogram.sum));
  *out += buf;
}

void AppendEndpoint(std::string* out, const char* endpoint,
                    const EndpointSnapshot& snap) {
  char labels[64];
  std::snprintf(labels, sizeof(labels), "{endpoint=\"%s\"}", endpoint);
  AppendCounter(out, "pnr_requests_total", labels, snap.requests);
  AppendCounter(out, "pnr_errors_4xx_total", labels, snap.errors_4xx);
  AppendCounter(out, "pnr_errors_5xx_total", labels, snap.errors_5xx);
  char inner[64];
  std::snprintf(inner, sizeof(inner), "endpoint=\"%s\"", endpoint);
  AppendQuantiles(out, "pnr_request_latency_us", inner, snap.latency_us);
}

EndpointSnapshot SnapEndpoint(const EndpointMetrics& metrics) {
  EndpointSnapshot snap;
  snap.requests = metrics.requests.load(std::memory_order_relaxed);
  snap.errors_4xx = metrics.errors_4xx.load(std::memory_order_relaxed);
  snap.errors_5xx = metrics.errors_5xx.load(std::memory_order_relaxed);
  snap.latency_us = metrics.latency_us.Snap();
  return snap;
}

void RenderAggregate(std::string* out, const MetricsSnapshot& snap) {
  *out += "# TYPE pnr_requests_total counter\n";
  *out += "# TYPE pnr_request_latency_us summary\n";
  AppendEndpoint(out, "predict", snap.predict);
  AppendEndpoint(out, "models", snap.models);
  AppendEndpoint(out, "healthz", snap.healthz);
  AppendEndpoint(out, "metrics", snap.metrics);
  AppendEndpoint(out, "other", snap.other);

  AppendCounter(out, "pnr_rows_scored_total", "", snap.rows_scored);
  AppendCounter(out, "pnr_batches_flushed_total", "", snap.batches_flushed);
  AppendQuantiles(out, "pnr_batch_rows", "endpoint=\"predict\"",
                  snap.batch_rows);
  AppendGauge(out, "pnr_queue_rows", "", snap.queue_rows);
  AppendCounter(out, "pnr_rejected_total", "", snap.rejected_total);
  AppendCounter(out, "pnr_deadline_exceeded_total", "",
                snap.deadline_exceeded);
  AppendGauge(out, "pnr_connections_active", "", snap.connections_active);
  AppendCounter(out, "pnr_connections_total", "", snap.connections_total);
  AppendGauge(out, "pnr_serve_model_version", "",
              static_cast<int64_t>(snap.model_version));
  AppendCounter(out, "pnr_serve_model_swaps_total", "",
                snap.model_swaps_total);
}

}  // namespace

void BucketHistogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

BucketHistogram::Snapshot BucketHistogram::Snap() const {
  Snapshot snap;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void BucketHistogram::Snapshot::Merge(const Snapshot& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

double BucketHistogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  double seen = 0.0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= rank) {
      const double lo = (i == 0) ? 0.0 : static_cast<double>(uint64_t{1} << i);
      const double hi = static_cast<double>(uint64_t{1} << (i + 1));
      const double within = (rank - seen) / in_bucket;
      return lo + within * (hi - lo);
    }
    seen += in_bucket;
  }
  return static_cast<double>(sum) / static_cast<double>(count);
}

void EndpointMetrics::Record(int http_status, uint64_t latency_us_value) {
  requests.fetch_add(1, std::memory_order_relaxed);
  if (http_status >= 400 && http_status < 500) {
    errors_4xx.fetch_add(1, std::memory_order_relaxed);
  } else if (http_status >= 500) {
    errors_5xx.fetch_add(1, std::memory_order_relaxed);
  }
  latency_us.Record(latency_us_value);
}

void EndpointSnapshot::Merge(const EndpointSnapshot& other) {
  requests += other.requests;
  errors_4xx += other.errors_4xx;
  errors_5xx += other.errors_5xx;
  latency_us.Merge(other.latency_us);
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  predict.Merge(other.predict);
  models.Merge(other.models);
  healthz.Merge(other.healthz);
  metrics.Merge(other.metrics);
  this->other.Merge(other.other);
  rows_scored += other.rows_scored;
  batches_flushed += other.batches_flushed;
  batch_rows.Merge(other.batch_rows);
  queue_rows += other.queue_rows;
  rejected_total += other.rejected_total;
  deadline_exceeded += other.deadline_exceeded;
  connections_active += other.connections_active;
  connections_total += other.connections_total;
  // The fleet serves whatever the newest shard snapshot serves; swaps are
  // per-shard observations and sum.
  if (other.model_version > model_version) model_version = other.model_version;
  model_swaps_total += other.model_swaps_total;
}

MetricsSnapshot ServerMetrics::Snap() const {
  MetricsSnapshot snap;
  snap.predict = SnapEndpoint(predict_);
  snap.models = SnapEndpoint(models_);
  snap.healthz = SnapEndpoint(healthz_);
  snap.metrics = SnapEndpoint(metrics_);
  snap.other = SnapEndpoint(other_);
  snap.rows_scored = rows_scored.load(std::memory_order_relaxed);
  snap.batches_flushed = batches_flushed.load(std::memory_order_relaxed);
  snap.batch_rows = batch_rows.Snap();
  snap.queue_rows = queue_rows.load(std::memory_order_relaxed);
  snap.rejected_total = rejected_total.load(std::memory_order_relaxed);
  snap.deadline_exceeded = deadline_exceeded.load(std::memory_order_relaxed);
  snap.connections_active =
      connections_active.load(std::memory_order_relaxed);
  snap.connections_total = connections_total.load(std::memory_order_relaxed);
  snap.model_version = model_version.load(std::memory_order_relaxed);
  snap.model_swaps_total = model_swaps_total.load(std::memory_order_relaxed);
  return snap;
}

std::string RenderFleetMetrics(
    const std::vector<const ServerMetrics*>& shards) {
  std::vector<MetricsSnapshot> snaps;
  snaps.reserve(shards.size());
  for (const ServerMetrics* shard : shards) snaps.push_back(shard->Snap());

  MetricsSnapshot total;
  for (const MetricsSnapshot& snap : snaps) total.Merge(snap);

  std::string out;
  out.reserve(4096 + 1024 * snaps.size());
  RenderAggregate(&out, total);

  out += "# TYPE pnr_serve_shard_requests_total counter\n";
  out += "# TYPE pnr_serve_shard_latency_us summary\n";
  char labels[64];
  for (size_t i = 0; i < snaps.size(); ++i) {
    const MetricsSnapshot& snap = snaps[i];
    std::snprintf(labels, sizeof(labels), "{shard=\"%zu\"}", i);
    // One request total per shard across all endpoints; predict dominates
    // and per-endpoint splits already exist at the fleet level.
    const uint64_t requests = snap.predict.requests + snap.models.requests +
                              snap.healthz.requests + snap.metrics.requests +
                              snap.other.requests;
    AppendCounter(&out, "pnr_serve_shard_requests_total", labels, requests);
    AppendCounter(&out, "pnr_serve_shard_rows_scored_total", labels,
                  snap.rows_scored);
    AppendCounter(&out, "pnr_serve_shard_batches_flushed_total", labels,
                  snap.batches_flushed);
    AppendCounter(&out, "pnr_serve_shard_rejected_total", labels,
                  snap.rejected_total);
    AppendCounter(&out, "pnr_serve_shard_deadline_exceeded_total", labels,
                  snap.deadline_exceeded);
    AppendGauge(&out, "pnr_serve_shard_connections_active", labels,
                snap.connections_active);
    AppendCounter(&out, "pnr_serve_shard_connections_total", labels,
                  snap.connections_total);
    AppendGauge(&out, "pnr_serve_shard_model_version", labels,
                static_cast<int64_t>(snap.model_version));
    AppendCounter(&out, "pnr_serve_shard_model_swaps_total", labels,
                  snap.model_swaps_total);
    char inner[64];
    std::snprintf(inner, sizeof(inner), "shard=\"%zu\"", i);
    AppendQuantiles(&out, "pnr_serve_shard_latency_us", inner,
                    snap.predict.latency_us);
  }
  return out;
}

}  // namespace pnr
