#ifndef EMX_NET_FLEET_ROUTER_H_
#define EMX_NET_FLEET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/matcher_engine.h"
#include "util/status.h"

namespace emx {
namespace net {

/// How the router picks a primary shard for a request.
enum class RoutePolicy {
  /// FNV-1a hash of the entity pair over a virtual-node ring: the same
  /// pair always lands on the same shard (cache affinity, deterministic).
  kConsistentHash,
  /// The shard with the fewest dispatched-but-unanswered requests
  /// (ties broken by lowest shard index).
  kLeastLoaded,
};

struct RouterOptions {
  RoutePolicy policy = RoutePolicy::kConsistentHash;
  /// Admission budget: logical requests in flight (hedges do not count
  /// twice). At the bound, Submit fails fast with ResourceExhausted
  /// instead of queueing — overload degrades into rejections, not into a
  /// latency collapse for the requests that are admitted.
  int64_t max_in_flight = 256;
  /// Deadline for Submit calls that don't carry one; 0 = none.
  int64_t default_timeout_us = 0;
  /// Launch a duplicate to a second shard when a request's elapsed time
  /// crosses the hedge threshold. The first response wins; the loser's
  /// response is ignored (its shard finishes the work — the wire protocol
  /// has no cancel, so the loser is dropped deterministically at the
  /// router's completion CAS).
  bool hedging = true;
  /// Hedge when elapsed > max(hedge_min_us, this percentile of the recent
  /// completion-latency window).
  double hedge_quantile = 0.95;
  int64_t hedge_min_us = 1000;
  /// Wake period of the hedge/deadline monitor thread.
  int64_t hedge_poll_us = 500;
  /// Virtual nodes per shard on the consistent-hash ring.
  int vnodes_per_shard = 64;
};

/// One dispatch target. The two production backends wrap an in-process
/// MatcherEngine and a remote MatchServer socket; tests inject synthetic
/// backends (e.g. a deterministic straggler) through AddShardForTest.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;
  /// Sends one request. `done` is invoked exactly once, from a backend
  /// thread, with the response (possibly an error response).
  virtual void Dispatch(const MatchRequest& req,
                        std::function<void(MatchResponse)> done) = 0;
  /// Requests dispatched here and not yet answered.
  virtual int64_t in_flight() const = 0;
  /// Point-in-time metrics JSON for this shard ("" when unavailable).
  virtual std::string StatsJson() = 0;
  virtual std::string name() const = 0;
};

/// Outcome of one routed request.
struct RouteResult {
  Status status;
  double probability = 0;
  bool is_match = false;
  /// Shard index that produced the winning response (-1 on reject).
  int shard = -1;
  bool hedged = false;
  /// True when the hedge (not the primary) answered first.
  bool hedge_won = false;
  /// Submit-to-completion at the router, µs.
  double total_us = 0;
  /// Winner's per-stage timings from the wire (µs).
  double queue_us = 0;
  double infer_us = 0;
  double server_us = 0;
  int64_t batch_size = 0;
};

/// Dispatcher owning N shards: routing (consistent-hash / least-loaded),
/// admission control, deadline propagation, hedged retries, and fleet-wide
/// metrics aggregation. Thread-safe; Submit never blocks on the network.
class FleetRouter {
 public:
  explicit FleetRouter(const RouterOptions& options = {});
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// In-process shard (the engine must outlive the router).
  Status AddLocalShard(serve::MatcherEngine* engine);
  /// Remote shard: connects to a MatchServer on 127.0.0.1:`port`.
  Status AddRemoteShard(uint16_t port);
  /// Synthetic shard for tests.
  Status AddShardForTest(std::unique_ptr<ShardBackend> backend);

  size_t num_shards() const { return shards_.size(); }

  /// Routes one pair. `timeout_us` < 0 uses the router default; the
  /// remaining budget is propagated to the shard on the wire.
  std::future<RouteResult> Submit(std::string text_a, std::string text_b,
                                  int64_t timeout_us = -1);
  RouteResult Match(std::string text_a, std::string text_b,
                    int64_t timeout_us = -1);

  /// One fleet document: router counters + latency percentiles, plus every
  /// shard's own metrics snapshot. Strict JSON.
  std::string FleetSnapshotJson();

  /// Fails outstanding requests with Unavailable, stops the monitor and
  /// shard backends. Idempotent; also run by the destructor.
  void Shutdown();

  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Current hedge threshold (µs) — max(hedge_min_us, pQ of the window).
  double HedgeThresholdUs() const;
  obs::MetricsRegistry* registry() { return &registry_; }
  const RouterOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Outstanding {
    uint64_t id = 0;
    std::promise<RouteResult> promise;
    /// 0 = open, 1 = completed. The winner's CAS 0->1 is the only place a
    /// result is set; the hedging loser and the deadline scan lose the CAS
    /// and drop their response.
    std::atomic<int> done{0};
    std::atomic<bool> hedged{false};
    Clock::time_point start;
    Clock::time_point deadline;  // max() when none
    int primary_shard = -1;
    int hedge_shard = -1;
    std::string text_a, text_b;
    uint64_t budget_us = 0;
  };

  int PickShard(const std::string& a, const std::string& b) const;
  int PickHedgeShard(int primary) const;
  void DispatchTo(int shard, const std::shared_ptr<Outstanding>& out,
                  bool is_hedge);
  /// Winner path: fills the promise, records latency, releases admission.
  void Complete(const std::shared_ptr<Outstanding>& out, RouteResult result);
  void MonitorLoop();
  void BuildRing();

  const RouterOptions options_;
  std::vector<std::unique_ptr<ShardBackend>> shards_;
  std::vector<std::pair<uint64_t, int>> ring_;  // (hash, shard), sorted

  obs::MetricsRegistry registry_;
  obs::Counter* submitted_;
  obs::Counter* completed_;
  obs::Counter* rejected_;
  obs::Counter* hedges_;
  obs::Counter* hedge_wins_;
  obs::Counter* hedge_wasted_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* shard_errors_;

  std::atomic<int64_t> in_flight_{0};
  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex mu_;  // outstanding_ + ring_ rebuilds
  std::unordered_map<uint64_t, std::shared_ptr<Outstanding>> outstanding_;

  /// Completion-latency window feeding the hedge threshold.
  static constexpr size_t kLatencyWindow = 2048;
  obs::LatencyWindow latencies_{kLatencyWindow};

  std::atomic<bool> shutdown_{false};
  std::thread monitor_;
};

}  // namespace net
}  // namespace emx

#endif  // EMX_NET_FLEET_ROUTER_H_
