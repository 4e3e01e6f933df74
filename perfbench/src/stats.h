#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics, seeded sampling and open-loop pacing for the
// benchmark. Everything here is deterministic and free of the emx
// libraries, so the self-test can pin it exactly.

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own input-generation stream. A seed fully
/// determines every draw, independent of the library's Rng.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble();
  /// Uniform in [0, n); n > 0.
  uint64_t NextBelow(uint64_t n);

 private:
  uint64_t state_;
};

/// Linearly interpolated percentile (q in [0, 1]) of an unsorted sample.
/// Empty input returns 0.
double Percentile(std::vector<double> samples, double q);

/// True when a sample of `n` values has at least ten values above its
/// q-quantile, i.e. n * (1 - q) >= 10 — the smallest sample for which the
/// percentile is set by more than a handful of outliers.
bool HasTenBeyond(int64_t n, double q);

/// The highest percentile of {0.99, 0.95, 0.90} with ten samples beyond
/// it for a sample of `n`; the median (0.5) when none qualifies, so a
/// sample too small to show a tail reports its median.
double TailQuantile(int64_t n);

/// The quantile at which the serving workloads read their median latency
/// (QuietChunkMedian): the 10th percentile of the medians of ~0.1-0.2 s
/// chunks. At a fixed paced rate on one pinned vCPU, a run's median latency
/// flips between two levels (~3 and ~5 ms on pair_stream) as neighbours
/// slow the host for seconds at a time; the quiet tenth of a run's chunks
/// stays on the lower level in nearly every run. A change that slows every
/// request moves the figure in full; the report keeps the plain median and
/// the tail percentile for the rest.
inline constexpr double kQuietQuantile = 0.1;

/// Median latency at the quiet quantile: `latency` (in issue order) is cut
/// into `chunks` runs of consecutive values, and the kQuietQuantile
/// percentile of the runs' medians is returned. 0 when there are fewer
/// values than chunks.
double QuietChunkMedian(const std::vector<double>& latency, int64_t chunks);

/// Rank-frequency Zipf sampler over ranks [0, n): rank r is drawn with
/// probability proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);
  int64_t Sample(SplitMix64* rng) const;
  int64_t size() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

/// Open-loop arrival schedule at a fixed rate. Request i is due at
/// start + i / rate; a request is timed from its due time, not from when
/// the generator got round to sending it, so a stall that delays later
/// sends is charged to their latency (no coordinated omission).
class PacedSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  PacedSchedule(Clock::time_point start, double rate_per_s);
  Clock::time_point Due(int64_t i) const;
  /// Latency of request i completed at `done`, from its due time (ms).
  double LatencyMs(int64_t i, Clock::time_point done) const;
  /// How late the generator sent request i (ms; 0 when on time or early).
  double LatenessMs(int64_t i, Clock::time_point sent) const;

 private:
  Clock::time_point start_;
  double period_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
