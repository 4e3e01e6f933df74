#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::NextBelow(uint64_t n) { return Next() % n; }

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool HasTenBeyond(int64_t n, double q) {
  // Rounded so that, e.g., 1000 samples at q = 0.99 count as exactly ten.
  return std::llround(static_cast<double>(n) * (1.0 - q) * 1e6) >= 10000000;
}

double TailQuantile(int64_t n) {
  for (double q : {0.99, 0.95, 0.90}) {
    if (HasTenBeyond(n, q)) return q;
  }
  return 0.5;
}

double QuietChunkMedian(const std::vector<double>& latency, int64_t chunks) {
  const int64_t n = static_cast<int64_t>(latency.size());
  if (chunks < 1 || n < chunks) return 0;
  std::vector<double> medians;
  for (int64_t c = 0; c < chunks; ++c) {
    medians.push_back(Percentile(
        std::vector<double>(latency.begin() + c * n / chunks,
                            latency.begin() + (c + 1) * n / chunks),
        0.5));
  }
  return Percentile(std::move(medians), kQuietQuantile);
}

ZipfSampler::ZipfSampler(int64_t n, double s) {
  cdf_.reserve(static_cast<size_t>(std::max<int64_t>(n, 0)));
  double total = 0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int64_t ZipfSampler::Sample(SplitMix64* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(it - cdf_.begin(), size() - 1);
}

PacedSchedule::PacedSchedule(Clock::time_point start, double rate_per_s)
    : start_(start), period_ns_(1e9 / rate_per_s) {}

PacedSchedule::Clock::time_point PacedSchedule::Due(int64_t i) const {
  return start_ + std::chrono::nanoseconds(static_cast<int64_t>(
                      std::llround(period_ns_ * static_cast<double>(i))));
}

double PacedSchedule::LatencyMs(int64_t i, Clock::time_point done) const {
  return std::chrono::duration<double, std::milli>(done - Due(i)).count();
}

double PacedSchedule::LatenessMs(int64_t i, Clock::time_point sent) const {
  return std::max(
      0.0, std::chrono::duration<double, std::milli>(sent - Due(i)).count());
}

}  // namespace perfbench
