#ifndef EMX_SERVE_LRU_CACHE_H_
#define EMX_SERVE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace emx {
namespace serve {

/// Point-in-time counters for an LruCache.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t entries = 0;
  int64_t resident_bytes = 0;
};

/// What an LruCache's budget counts.
enum class Budget {
  /// One unit per entry (the engine's entity tokenizations).
  kEntries,
  /// The entry's resident bytes (the engine's layer-k activations, which
  /// are ~seq_len * hidden floats each, so operators size them as memory).
  kBytes,
};

/// Payload sizes for the value types the engine caches.
inline int64_t PayloadBytes(const std::vector<int64_t>& ids) {
  return static_cast<int64_t>(ids.size() * sizeof(int64_t));
}
inline int64_t PayloadBytes(const Tensor& t) {
  return t.size() * static_cast<int64_t>(sizeof(float));
}

/// Thread-safe LRU cache from string keys to immutable values.
///
/// Values are handed out as shared_ptr<const V>: eviction only drops the
/// cache's reference, so a value checked out by an in-flight request stays
/// valid. On a miss the caller computes the value *outside* the lock and
/// Put()s it; two threads missing on the same key may both compute, and
/// the first insert wins — wasted work, never inconsistency, since values
/// are pure functions of their keys.
///
/// Each entry charges 1 (Budget::kEntries) or its resident bytes
/// (Budget::kBytes) against `budget`; inserting past it evicts least
/// recently used entries until the cache fits again, so an entry larger
/// than a whole byte budget is returned to its caller but not kept. A
/// budget <= 0 disables storage: every Get misses and Put stores nothing.
template <typename V>
class LruCache {
 public:
  /// `evictions` / `resident_bytes` (optional) are obs hooks the cache
  /// updates under its own lock, so a registry tracks them live.
  LruCache(int64_t budget, Budget unit, obs::Counter* evictions = nullptr,
           obs::Gauge* resident_bytes = nullptr)
      : budget_(budget),
        unit_(unit),
        eviction_counter_(evictions),
        bytes_gauge_(resident_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value for `key` (promoting it), or null on miss.
  std::shared_ptr<const V> Get(std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return it->second->value;
  }

  /// Inserts `value` unless `key` is already resident, and returns the
  /// resident value (the first insert's, so racing callers compute on the
  /// same bits).
  std::shared_ptr<const V> Put(std::string key, V value) {
    auto shared = std::make_shared<const V>(std::move(value));
    if (budget_ <= 0) return shared;
    // Key + payload + a fixed list/map node overhead, so a budget of N
    // bytes does not admit far more than N bytes when entries are tiny.
    constexpr int64_t kNodeOverhead = 160;
    const int64_t bytes = static_cast<int64_t>(key.size()) +
                          PayloadBytes(*shared) + kNodeOverhead;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->value;
    }
    lru_.push_front(Entry{std::move(key), shared, bytes});
    index_.emplace(lru_.front().key, lru_.begin());
    bytes_ += bytes;
    int64_t evicted = 0;
    while (ChargedLocked() > budget_) {
      bytes_ -= lru_.back().bytes;
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evicted;
    }
    evictions_ += evicted;
    if (evicted > 0 && eviction_counter_ != nullptr) {
      eviction_counter_->Add(evicted);
    }
    if (bytes_gauge_ != nullptr) bytes_gauge_->Set(static_cast<double>(bytes_));
    return shared;
  }

  /// Get, computing and Put()ting `compute()` on a miss (outside the
  /// lock). `*hit` (optional) reports whether the key was resident.
  template <typename Compute>
  std::shared_ptr<const V> GetOrCompute(std::string_view key,
                                        Compute&& compute, bool* hit) {
    std::shared_ptr<const V> cached = Get(key);
    if (hit != nullptr) *hit = cached != nullptr;
    if (cached != nullptr) return cached;
    return Put(std::string(key), compute());
  }

  /// Drops every entry. Checked-out values stay valid; hit, miss and
  /// eviction counts are cumulative and unaffected.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    lru_.clear();
    bytes_ = 0;
    if (bytes_gauge_ != nullptr) bytes_gauge_->Set(0);
  }

  CacheStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return CacheStats{hits_, misses_, evictions_,
                      static_cast<int64_t>(lru_.size()), bytes_};
  }
  int64_t size() const { return Stats().entries; }
  int64_t resident_bytes() const { return Stats().resident_bytes; }
  int64_t evictions() const { return Stats().evictions; }
  int64_t budget() const { return budget_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
    int64_t bytes = 0;
  };
  using EntryList = std::list<Entry>;

  /// What the resident entries charge against the budget. Caller holds mu_.
  int64_t ChargedLocked() const {
    return unit_ == Budget::kEntries ? static_cast<int64_t>(lru_.size())
                                     : bytes_;
  }

  const int64_t budget_;
  const Budget unit_;
  obs::Counter* eviction_counter_;  // may be null
  obs::Gauge* bytes_gauge_;         // may be null

  mutable std::mutex mu_;
  EntryList lru_;  // front = most recently used
  /// Keys view the list nodes' strings, which never move.
  std::unordered_map<std::string_view, typename EntryList::iterator> index_;
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace serve
}  // namespace emx

#endif  // EMX_SERVE_LRU_CACHE_H_
