#include "serve/serving_metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace emx {
namespace serve {

namespace {

void AppendField(std::string* out, const char* name, double value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  obs::AppendJsonString(out, name);
  *out += ": ";
  // AppendJsonDouble substitutes 0 for nan/inf — "%.3f" would emit the
  // bare tokens and break every strict consumer of the snapshot.
  obs::AppendJsonDouble(out, value, 3);
}

void AppendField(std::string* out, const char* name, int64_t value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  obs::AppendJsonString(out, name);
  *out += ": " + std::to_string(value);
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "submitted", submitted, &first);
  AppendField(&out, "completed", completed, &first);
  AppendField(&out, "timed_out", timed_out, &first);
  AppendField(&out, "rejected", rejected, &first);
  AppendField(&out, "cache_hits", cache_hits, &first);
  AppendField(&out, "cache_misses", cache_misses, &first);
  AppendField(&out, "cache_hit_rate", cache_hit_rate, &first);
  AppendField(&out, "token_cache_bytes", token_cache_bytes, &first);
  AppendField(&out, "token_cache_evictions", token_cache_evictions, &first);
  AppendField(&out, "prefix_hits", prefix_hits, &first);
  AppendField(&out, "prefix_misses", prefix_misses, &first);
  AppendField(&out, "prefix_hit_rate", prefix_hit_rate, &first);
  AppendField(&out, "prefix_evictions", prefix_evictions, &first);
  AppendField(&out, "prefix_bytes", prefix_bytes, &first);
  AppendField(&out, "batches", batches, &first);
  AppendField(&out, "mean_batch_size", mean_batch_size, &first);
  AppendField(&out, "batch_overflow", batch_overflow, &first);
  AppendField(&out, "queue_depth", queue_depth, &first);
  AppendField(&out, "max_queue_depth", max_queue_depth, &first);
  AppendField(&out, "model_swaps", model_swaps, &first);
  AppendField(&out, "model_version", model_version, &first);
  AppendField(&out, "uptime_seconds", uptime_seconds, &first);
  AppendField(&out, "throughput_pairs_per_sec", throughput_pairs_per_sec,
              &first);
  AppendField(&out, "p50_latency_us", p50_latency_us, &first);
  AppendField(&out, "p95_latency_us", p95_latency_us, &first);
  AppendField(&out, "p99_latency_us", p99_latency_us, &first);
  AppendField(&out, "max_latency_us", max_latency_us, &first);
  out += ", \"batch_size_histogram\": [";
  for (size_t s = 0; s < batch_size_histogram.size(); ++s) {
    if (s > 0) out += ", ";
    out += std::to_string(batch_size_histogram[s]);
  }
  out += "]}";
  return out;
}

ServingMetrics::ServingMetrics(int64_t max_batch_size) {
  submitted_ = registry_.GetCounter("serve.submitted");
  completed_ = registry_.GetCounter("serve.completed");
  timed_out_ = registry_.GetCounter("serve.timed_out");
  rejected_ = registry_.GetCounter("serve.rejected");
  cache_hits_ = registry_.GetCounter("serve.cache_hits");
  cache_misses_ = registry_.GetCounter("serve.cache_misses");
  prefix_hits_ = registry_.GetCounter("serve.prefix_cache.hits");
  prefix_misses_ = registry_.GetCounter("serve.prefix_cache.misses");
  max_queue_depth_ = registry_.GetGauge("serve.max_queue_depth");
  model_swaps_ = registry_.GetCounter("serve.model_swaps");
  model_version_ = registry_.GetGauge("serve.model_version");
  model_version_->Set(1);
  // Bounds {0, 1, ..., max_batch_size}: integer batch sizes land exactly on
  // a bound, so bucket s counts batches of exactly s requests; anything
  // larger is overflow, not clamped into the top slot.
  batch_hist_ = registry_.GetHistogram(
      "serve.batch_size",
      obs::LinearBuckets(0, 1, static_cast<int>(max_batch_size) + 1));
}

void ServingMetrics::RecordSubmitted(int64_t queue_depth_after) {
  submitted_->Add(1);
  max_queue_depth_->Max(static_cast<double>(queue_depth_after));
}

void ServingMetrics::RecordRejected() { rejected_->Add(1); }

void ServingMetrics::RecordTimeout() { timed_out_->Add(1); }

void ServingMetrics::RecordBatch(int64_t batch_size) {
  batch_hist_->Record(static_cast<double>(std::max<int64_t>(0, batch_size)));
}

void ServingMetrics::RecordCompletion(double total_us) {
  completed_->Add(1);
  latencies_.Record(total_us);
}

void ServingMetrics::RecordCacheLookup(bool hit) {
  (hit ? cache_hits_ : cache_misses_)->Add(1);
}

void ServingMetrics::RecordPrefixLookup(bool hit) {
  (hit ? prefix_hits_ : prefix_misses_)->Add(1);
}

void ServingMetrics::RecordModelSwap(int64_t new_version) {
  model_swaps_->Add(1);
  model_version_->Set(static_cast<double>(new_version));
}

MetricsSnapshot ServingMetrics::Snapshot(int64_t queue_depth) const {
  MetricsSnapshot s;
  s.submitted = submitted_->Value();
  s.completed = completed_->Value();
  s.timed_out = timed_out_->Value();
  s.rejected = rejected_->Value();
  s.cache_hits = cache_hits_->Value();
  s.cache_misses = cache_misses_->Value();
  const int64_t lookups = s.cache_hits + s.cache_misses;
  s.cache_hit_rate =
      lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0;
  s.prefix_hits = prefix_hits_->Value();
  s.prefix_misses = prefix_misses_->Value();
  const int64_t prefix_lookups = s.prefix_hits + s.prefix_misses;
  s.prefix_hit_rate =
      prefix_lookups > 0 ? static_cast<double>(s.prefix_hits) / prefix_lookups
                         : 0;
  // prefix_bytes / prefix_evictions / token_cache_* are cache-resident
  // state, filled in by MatcherEngine::Metrics() from the cache objects.
  s.batches = batch_hist_->count();
  s.mean_batch_size = batch_hist_->mean();
  s.batch_size_histogram.resize(batch_hist_->bounds().size());
  for (size_t i = 0; i < s.batch_size_histogram.size(); ++i) {
    s.batch_size_histogram[i] = batch_hist_->bucket_count(i);
  }
  s.batch_overflow = batch_hist_->overflow();
  s.queue_depth = queue_depth;
  s.max_queue_depth = static_cast<int64_t>(max_queue_depth_->Value());
  s.model_swaps = model_swaps_->Value();
  s.model_version = static_cast<int64_t>(model_version_->Value());
  s.uptime_seconds = uptime_.ElapsedSeconds();
  s.throughput_pairs_per_sec =
      s.uptime_seconds > 0 ? s.completed / s.uptime_seconds : 0;
  const std::vector<double> window = latencies_.Sorted();
  s.p50_latency_us = obs::Percentile(window, 0.50);
  s.p95_latency_us = obs::Percentile(window, 0.95);
  s.p99_latency_us = obs::Percentile(window, 0.99);
  s.max_latency_us = window.empty() ? 0 : window.back();
  return s;
}

}  // namespace serve
}  // namespace emx
