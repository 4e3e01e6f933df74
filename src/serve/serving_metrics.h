#ifndef EMX_SERVE_SERVING_METRICS_H_
#define EMX_SERVE_SERVING_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/timer.h"

namespace emx {
namespace serve {

/// Point-in-time view of the serving counters. All totals are cumulative
/// since engine construction; latencies are computed over a bounded window
/// of the most recent completions (see ServingMetrics).
struct MetricsSnapshot {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t timed_out = 0;
  int64_t rejected = 0;

  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// hits / (hits + misses); 0 when no lookups happened.
  double cache_hit_rate = 0;
  /// Entity tokenization cache residency, for sizing cache_capacity from a
  /// live snapshot.
  int64_t token_cache_bytes = 0;
  int64_t token_cache_evictions = 0;

  /// Split-encoder prefix (activation) cache. Lookups are per entity
  /// segment — two per request on the split path; zero when
  /// EngineOptions::split_layer is disabled.
  int64_t prefix_hits = 0;
  int64_t prefix_misses = 0;
  /// hits / (hits + misses); 0 when no lookups happened.
  double prefix_hit_rate = 0;
  int64_t prefix_evictions = 0;
  /// Resident bytes of cached activations, for sizing
  /// EngineOptions::activation_cache_bytes.
  int64_t prefix_bytes = 0;

  int64_t batches = 0;
  double mean_batch_size = 0;
  /// histogram[s] = number of micro-batches served with exactly s requests,
  /// for s in [0, max_batch_size]. Slot 0 is real (an empty wakeup) and is
  /// emitted like every other slot.
  std::vector<int64_t> batch_size_histogram;
  /// Batches larger than max_batch_size — should be 0; nonzero means the
  /// batcher violated its own limit and must be visible, not clamped away.
  int64_t batch_overflow = 0;

  int64_t queue_depth = 0;
  int64_t max_queue_depth = 0;

  /// Hot-swap state: how many times SwapModel has published a new model,
  /// and the version currently serving (1 = the construction-time model).
  int64_t model_swaps = 0;
  int64_t model_version = 1;

  double uptime_seconds = 0;
  /// completed / uptime.
  double throughput_pairs_per_sec = 0;

  /// Submit-to-completion latency percentiles over the recent window, µs.
  double p50_latency_us = 0;
  double p95_latency_us = 0;
  double p99_latency_us = 0;
  double max_latency_us = 0;

  /// Serializes every field as a flat JSON object. All doubles are routed
  /// through obs::AppendJsonDouble, so the output strict-parses even if a
  /// field holds nan/inf.
  std::string ToJson() const;
};

/// Thread-safe counters for the matcher engine, built on the emx::obs
/// metrics primitives: each ServingMetrics owns a private
/// obs::MetricsRegistry (engines must not share counters), and latencies go
/// to a lock-free obs::LatencyWindow of the most recent `kLatencyWindow`
/// completions, so a long-running server never grows and the completion
/// hot path never takes a mutex.
class ServingMetrics {
 public:
  explicit ServingMetrics(int64_t max_batch_size);

  void RecordSubmitted(int64_t queue_depth_after);
  void RecordRejected();
  void RecordTimeout();
  /// One micro-batch of `batch_size` requests was served.
  void RecordBatch(int64_t batch_size);
  /// One request finished OK, `total_us` after submission.
  void RecordCompletion(double total_us);
  void RecordCacheLookup(bool hit);
  /// One activation-cache (prefix) lookup on the split path.
  void RecordPrefixLookup(bool hit);
  /// One SwapModel publish; `new_version` becomes the serving version.
  void RecordModelSwap(int64_t new_version);

  /// `queue_depth` is the current depth sampled by the caller.
  MetricsSnapshot Snapshot(int64_t queue_depth) const;

  /// The backing registry — the shared obs export path
  /// (registry()->ToJson() carries the same counters as Snapshot()).
  obs::MetricsRegistry* registry() { return &registry_; }

 private:
  static constexpr size_t kLatencyWindow = 8192;

  obs::MetricsRegistry registry_;
  obs::Counter* submitted_;
  obs::Counter* completed_;
  obs::Counter* timed_out_;
  obs::Counter* rejected_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* prefix_hits_;
  obs::Counter* prefix_misses_;
  obs::Gauge* max_queue_depth_;
  obs::Counter* model_swaps_;
  obs::Gauge* model_version_;
  obs::Histogram* batch_hist_;  // exact integer buckets [0, max_batch_size]
  obs::LatencyWindow latencies_{kLatencyWindow};
  Timer uptime_;
};

}  // namespace serve
}  // namespace emx

#endif  // EMX_SERVE_SERVING_METRICS_H_
