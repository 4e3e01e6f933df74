#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace emx {
namespace obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_.push_back(0);
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size());
  for (size_t i = 0; i < bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v, std::memory_order_relaxed)) {
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  if (it == bounds_.end()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buckets_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
}

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0;
}

std::vector<double> LinearBuckets(double start, double width, int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(count, 1)));
  for (int i = 0; i < std::max(count, 1); ++i) bounds.push_back(start + width * i);
  return bounds;
}

std::vector<double> ExponentialBuckets(double start, double factor, int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(count, 1)));
  double b = start;
  for (int i = 0; i < std::max(count, 1); ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    out += ": " + std::to_string(c->Value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    out += ": ";
    AppendJsonDouble(&out, g->Value(), 6);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    out += ": {\"bounds\": [";
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonDouble(&out, h->bounds()[i], 6);
    }
    out += "], \"counts\": [";
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h->bucket_count(i));
    }
    out += "], \"overflow\": " + std::to_string(h->overflow());
    out += ", \"count\": " + std::to_string(h->count());
    out += ", \"sum\": ";
    AppendJsonDouble(&out, h->sum(), 6);
    out += ", \"mean\": ";
    AppendJsonDouble(&out, h->mean(), 6);
    out += "}";
  }
  out += "}}";
  return out;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted[0];
  q = std::min(std::max(q, 0.0), 1.0);
  // Linear interpolation between the two closest ranks. The previous
  // nearest-rank + 0.5 rounding jumped straight to the upper sample — for
  // a 2-element buffer, p50 returned the max.
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

LatencyWindow::LatencyWindow(size_t capacity)
    : capacity_(capacity),
      slots_(std::make_unique<std::atomic<double>[]>(capacity)) {
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

void LatencyWindow::Record(double sample) {
  const uint64_t k = recorded_.fetch_add(1, std::memory_order_relaxed);
  slots_[k % capacity_].store(sample, std::memory_order_relaxed);
}

std::vector<double> LatencyWindow::Sorted() const {
  const size_t n = static_cast<size_t>(std::min<uint64_t>(
      recorded_.load(std::memory_order_relaxed), capacity_));
  std::vector<double> window(n);
  for (size_t i = 0; i < n; ++i) {
    window[i] = slots_[i].load(std::memory_order_relaxed);
  }
  std::sort(window.begin(), window.end());
  return window;
}

}  // namespace obs
}  // namespace emx
