#ifndef EMX_OBS_METRICS_H_
#define EMX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace emx {
namespace obs {

// Process-wide metrics primitives: counters, gauges and fixed-bucket
// histograms, collected in named registries and snapshot-able as JSON at
// any time. Writers are lock-free (relaxed atomics); snapshots taken while
// writers run see a consistent-enough point-in-time view (each individual
// cell is atomic). One Global() registry serves the thread pool, kernels
// and the training loop; subsystems that need isolated numbers (e.g. one
// ServingMetrics per engine) own private registry instances and share the
// same primitives and JSON export path.

/// Monotonic event count.
class Counter {
 public:
  void Add(int64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-written (or running-max) scalar.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (lock-free CAS).
  void Max(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i] (first
/// matching bucket wins); samples beyond the last bound land in an explicit
/// overflow cell — never silently clamped into the top bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  int64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  int64_t overflow() const { return overflow_.load(std::memory_order_relaxed); }
  /// Total samples including overflow.
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> overflow_{0};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// bounds {start, start+width, ..., start+(count-1)*width}. With start 0,
/// width 1 the histogram counts small integers exactly.
std::vector<double> LinearBuckets(double start, double width, int count);
/// bounds {start, start*factor, start*factor^2, ...} — latency-style decades.
std::vector<double> ExponentialBuckets(double start, double factor, int count);

/// Linearly interpolated percentile over an ascending-sorted sample
/// (q in [0, 1], clamped). Empty input returns 0.
double Percentile(const std::vector<double>& sorted, double q);

/// The most recent `capacity` samples of a latency stream, for percentiles
/// (which need raw samples, not fixed buckets). Lock-free: Record claims a
/// slot with one relaxed fetch_add and stores with one relaxed atomic
/// store, so a writer is never blocked by a reader copying the window. A
/// reader racing a writer sees the old or the new sample for that slot;
/// both are recent samples, which is all a sliding window promises.
class LatencyWindow {
 public:
  explicit LatencyWindow(size_t capacity);

  void Record(double sample);
  /// The current window (min(recorded, capacity) samples), ascending.
  std::vector<double> Sorted() const;

 private:
  const size_t capacity_;
  /// The k-th sample lands in slot k % capacity_.
  std::unique_ptr<std::atomic<double>[]> slots_;
  std::atomic<uint64_t> recorded_{0};
};

/// A named collection of metrics. Lookups register on first use and return
/// stable pointers that remain valid for the registry's lifetime, so hot
/// paths resolve a metric once and then touch only its atomics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry* Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` are used only on first registration; later calls with the
  /// same name return the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  /// Point-in-time JSON snapshot:
  ///   {"counters": {..}, "gauges": {..},
  ///    "histograms": {name: {"bounds": [..], "counts": [..],
  ///                          "overflow": n, "count": n, "sum": x,
  ///                          "mean": x}}}
  /// Every double goes through AppendJsonDouble, so the output always
  /// strict-parses regardless of what writers stored.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the metric cells
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace emx

#endif  // EMX_OBS_METRICS_H_
