#include "net/fleet_router.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <utility>

#include "net/socket.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace emx {
namespace net {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(std::string_view s, uint64_t h = kFnvOffset) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

MatchResponse ErrorResponse(uint64_t trace_id, const Status& status) {
  MatchResponse resp;
  resp.trace_id = trace_id;
  resp.code = status.code();
  resp.message = status.message();
  return resp;
}

/// In-process shard: wraps a MatcherEngine. A waiter thread converts the
/// engine's futures into the router's callback shape in FIFO order (the
/// engine itself resolves every accepted future, so the waiter never
/// blocks unboundedly).
class LocalShard : public ShardBackend {
 public:
  LocalShard(serve::MatcherEngine* engine, int index)
      : engine_(engine), name_("local:" + std::to_string(index)) {
    waiter_ = std::thread(&LocalShard::WaiterLoop, this);
  }

  ~LocalShard() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (waiter_.joinable()) waiter_.join();
  }

  void Dispatch(const MatchRequest& req,
                std::function<void(MatchResponse)> done) override {
    if (req.is_stats_probe()) {
      MatchResponse resp;
      resp.trace_id = req.trace_id;
      resp.stats_json = "{\"engine\": " + engine_->MetricsJson() + "}";
      done(std::move(resp));
      return;
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    Waiting w;
    w.trace_id = req.trace_id;
    w.future = engine_->Submit(req.text_a, req.text_b,
                               static_cast<int64_t>(req.deadline_us));
    w.done = std::move(done);
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(w));
    }
    cv_.notify_one();
  }

  int64_t in_flight() const override {
    return in_flight_.load(std::memory_order_relaxed);
  }

  std::string StatsJson() override {
    return "{\"engine\": " + engine_->MetricsJson() + "}";
  }

  std::string name() const override { return name_; }

 private:
  struct Waiting {
    uint64_t trace_id = 0;
    std::future<serve::MatchResult> future;
    std::function<void(MatchResponse)> done;
  };

  void WaiterLoop() {
    while (true) {
      Waiting w;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
        if (queue_.empty()) return;  // stopping and drained
        w = std::move(queue_.front());
        queue_.pop_front();
      }
      serve::MatchResult r = w.future.get();
      MatchResponse resp;
      resp.trace_id = w.trace_id;
      resp.code = r.status.code();
      resp.message = r.status.message();
      resp.probability = r.probability;
      resp.is_match = r.is_match;
      resp.queue_us = r.queue_us;
      resp.infer_us = r.total_us;
      resp.batch_size = static_cast<uint32_t>(r.batch_size);
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      w.done(std::move(resp));
    }
  }

  serve::MatcherEngine* engine_;
  const std::string name_;
  std::atomic<int64_t> in_flight_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Waiting> queue_;
  bool stopping_ = false;
  std::thread waiter_;
};

/// Remote shard: one pipelined connection to a MatchServer. Writes are
/// serialized under a mutex; a reader thread demultiplexes responses back
/// to their callbacks by trace id. A dead socket fails all pending (and
/// all future) dispatches with Unavailable — the router's hedging/routing
/// layer is responsible for living without the shard.
class RemoteShard : public ShardBackend {
 public:
  explicit RemoteShard(uint16_t port)
      : port_(port), name_("remote:" + std::to_string(port)) {}

  ~RemoteShard() override {
    stopping_.store(true, std::memory_order_release);
    // shutdown(2), not Close(): the reader thread is still polling this
    // fd, and Close() would race on the fd member (worse, the fd number
    // could be recycled under the reader). The Socket member's own
    // destructor closes after the join.
    sock_.ShutdownBoth();
    if (reader_.joinable()) reader_.join();
    FailAllPending(Status::Unavailable("shard shut down"));
  }

  Status Connect() {
    auto sock = ConnectTcp(port_);
    if (!sock.ok()) return sock.status();
    sock_ = std::move(sock).value();
    reader_ = std::thread(&RemoteShard::ReaderLoop, this);
    return Status::OK();
  }

  void Dispatch(const MatchRequest& req,
                std::function<void(MatchResponse)> done) override {
    if (dead_.load(std::memory_order_acquire)) {
      done(ErrorResponse(req.trace_id,
                         Status::Unavailable(name_ + " connection lost")));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_[req.trace_id] = std::move(done);
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    std::string frame;
    EncodeRequest(req, &frame);
    Status st;
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      st = SendAll(sock_.fd(), frame.data(), frame.size());
    }
    if (!st.ok()) {
      std::function<void(MatchResponse)> cb;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        auto it = pending_.find(req.trace_id);
        if (it != pending_.end()) {
          cb = std::move(it->second);
          pending_.erase(it);
        }
      }
      if (cb) {
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        cb(ErrorResponse(req.trace_id, st));
      }
    }
  }

  int64_t in_flight() const override {
    return in_flight_.load(std::memory_order_relaxed);
  }

  std::string StatsJson() override {
    MatchRequest probe;
    probe.trace_id = next_probe_id_.fetch_add(1, std::memory_order_relaxed);
    probe.flags = kFlagStats;
    auto p = std::make_shared<std::promise<std::string>>();
    auto fut = p->get_future();
    Dispatch(probe, [p](MatchResponse resp) {
      p->set_value(std::move(resp.stats_json));
    });
    if (fut.wait_for(std::chrono::seconds(2)) != std::future_status::ready) {
      return std::string();
    }
    return fut.get();
  }

  std::string name() const override { return name_; }

 private:
  void ReaderLoop() {
    FrameBuffer frames;
    char buf[1 << 16];
    while (!stopping_.load(std::memory_order_acquire)) {
      auto got = RecvSome(sock_.fd(), buf, sizeof(buf), 200);
      if (!got.ok()) {
        if (got.status().code() == StatusCode::kDeadlineExceeded) continue;
        break;  // socket error
      }
      if (got.value() == 0) break;  // peer closed
      frames.Append(buf, got.value());
      while (true) {
        std::string_view payload;
        bool complete = false;
        if (!frames.Next(&payload, &complete).ok()) {
          stopping_.store(true, std::memory_order_release);
          break;
        }
        if (!complete) break;
        auto resp = DecodeResponse(payload);
        if (!resp.ok()) {
          stopping_.store(true, std::memory_order_release);
          break;
        }
        std::function<void(MatchResponse)> cb;
        {
          std::lock_guard<std::mutex> lock(pending_mu_);
          auto it = pending_.find(resp.value().trace_id);
          if (it != pending_.end()) {
            cb = std::move(it->second);
            pending_.erase(it);
          }
        }
        if (cb) {
          in_flight_.fetch_sub(1, std::memory_order_relaxed);
          cb(std::move(resp).value());
        }
      }
    }
    dead_.store(true, std::memory_order_release);
    FailAllPending(Status::Unavailable(name_ + " connection lost"));
  }

  void FailAllPending(const Status& status) {
    std::unordered_map<uint64_t, std::function<void(MatchResponse)>> orphans;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      orphans.swap(pending_);
    }
    for (auto& [id, cb] : orphans) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      cb(ErrorResponse(id, status));
    }
  }

  const uint16_t port_;
  const std::string name_;
  Socket sock_;
  std::atomic<bool> dead_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<uint64_t> next_probe_id_{0xC000000000000000ull};
  std::mutex write_mu_;
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, std::function<void(MatchResponse)>> pending_;
  std::thread reader_;
};

}  // namespace

FleetRouter::FleetRouter(const RouterOptions& options)
    : options_(options),
      submitted_(registry_.GetCounter("router.submitted")),
      completed_(registry_.GetCounter("router.completed")),
      rejected_(registry_.GetCounter("router.rejected")),
      hedges_(registry_.GetCounter("router.hedges")),
      hedge_wins_(registry_.GetCounter("router.hedge_wins")),
      hedge_wasted_(registry_.GetCounter("router.hedge_wasted")),
      deadline_exceeded_(registry_.GetCounter("router.deadline_exceeded")),
      shard_errors_(registry_.GetCounter("router.shard_errors")) {
  monitor_ = std::thread(&FleetRouter::MonitorLoop, this);
}

FleetRouter::~FleetRouter() { Shutdown(); }

Status FleetRouter::AddLocalShard(serve::MatcherEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("local shard requires an engine");
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<LocalShard>(
      engine, static_cast<int>(shards_.size())));
  BuildRing();
  return Status::OK();
}

Status FleetRouter::AddRemoteShard(uint16_t port) {
  auto shard = std::make_unique<RemoteShard>(port);
  EMX_RETURN_IF_ERROR(shard->Connect());
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::move(shard));
  BuildRing();
  return Status::OK();
}

Status FleetRouter::AddShardForTest(std::unique_ptr<ShardBackend> backend) {
  if (backend == nullptr) {
    return Status::InvalidArgument("null test backend");
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::move(backend));
  BuildRing();
  return Status::OK();
}

void FleetRouter::BuildRing() {
  ring_.clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (int v = 0; v < options_.vnodes_per_shard; ++v) {
      // Seeded by shard *index*, not name: names of remote shards embed
      // their (possibly ephemeral) port, which would re-shuffle the key
      // space on every restart. Index seeding makes placement a pure
      // function of fleet size.
      const std::string key =
          "shard-" + std::to_string(s) + "#" + std::to_string(v);
      ring_.emplace_back(Fnv1a(key), static_cast<int>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int FleetRouter::PickShard(const std::string& a, const std::string& b) const {
  if (options_.policy == RoutePolicy::kLeastLoaded) {
    int best = 0;
    int64_t best_load = shards_[0]->in_flight();
    for (size_t s = 1; s < shards_.size(); ++s) {
      const int64_t load = shards_[s]->in_flight();
      if (load < best_load) {
        best = static_cast<int>(s);
        best_load = load;
      }
    }
    return best;
  }
  uint64_t h = Fnv1a(a);
  h = Fnv1a("\x1f", h);
  h = Fnv1a(b, h);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, 0),
      [](const auto& lhs, const auto& rhs) { return lhs.first < rhs.first; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

int FleetRouter::PickHedgeShard(int primary) const {
  int best = -1;
  int64_t best_load = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (static_cast<int>(s) == primary) continue;
    const int64_t load = shards_[s]->in_flight();
    if (best < 0 || load < best_load) {
      best = static_cast<int>(s);
      best_load = load;
    }
  }
  return best;
}

std::future<RouteResult> FleetRouter::Submit(std::string text_a,
                                             std::string text_b,
                                             int64_t timeout_us) {
  if (timeout_us < 0) timeout_us = options_.default_timeout_us;
  auto out = std::make_shared<Outstanding>();
  out->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  out->start = Clock::now();
  out->deadline = timeout_us > 0
                      ? out->start + std::chrono::microseconds(timeout_us)
                      : Clock::time_point::max();
  out->budget_us = timeout_us > 0 ? static_cast<uint64_t>(timeout_us) : 0;
  std::future<RouteResult> fut = out->promise.get_future();

  if (shutdown_.load(std::memory_order_acquire) || shards_.empty()) {
    RouteResult r;
    r.status = shards_.empty()
                   ? Status::InvalidArgument("router has no shards")
                   : Status::Unavailable("router is shut down");
    out->done.store(1, std::memory_order_release);
    out->promise.set_value(std::move(r));
    return fut;
  }

  // Admission control: fail fast at the budget instead of queueing. The
  // slot is claimed optimistically and released on completion.
  const int64_t admitted =
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (admitted >= options_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_->Add();
    obs::TraceInstant("net.admission_reject");
    RouteResult r;
    r.status = Status::ResourceExhausted(
        "fleet in-flight budget (" + std::to_string(options_.max_in_flight) +
        ") exhausted");
    out->done.store(1, std::memory_order_release);
    out->promise.set_value(std::move(r));
    return fut;
  }

  submitted_->Add();
  out->text_a = std::move(text_a);
  out->text_b = std::move(text_b);
  int shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shard = PickShard(out->text_a, out->text_b);
    out->primary_shard = shard;
    outstanding_[out->id] = out;
  }
  EMX_TRACE_SPAN("net.route", [&] {
    return obs::KeyValues({{"shard", shard},
                           {"in_flight", admitted + 1}});
  });
  DispatchTo(shard, out, /*is_hedge=*/false);
  return fut;
}

RouteResult FleetRouter::Match(std::string text_a, std::string text_b,
                               int64_t timeout_us) {
  return Submit(std::move(text_a), std::move(text_b), timeout_us).get();
}

void FleetRouter::DispatchTo(int shard,
                             const std::shared_ptr<Outstanding>& out,
                             bool is_hedge) {
  MatchRequest req;
  req.trace_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req.text_a = out->text_a;
  req.text_b = out->text_b;
  req.flags = is_hedge ? kFlagHedge : 0;
  if (out->deadline != Clock::time_point::max()) {
    const double remaining_us = ElapsedUs(Clock::now(), out->deadline);
    // A request already past its deadline still gets a minimal budget so
    // the shard rejects it quickly instead of treating 0 as "no deadline".
    req.deadline_us =
        remaining_us > 1 ? static_cast<uint64_t>(remaining_us) : 1;
  }

  FleetRouter* router = this;
  shards_[static_cast<size_t>(shard)]->Dispatch(
      req, [router, out, shard, is_hedge](MatchResponse resp) {
        if (out->done.load(std::memory_order_acquire) != 0) {
          // Lost the race (hedge pair already answered, or deadline fired).
          if (is_hedge || out->hedged.load(std::memory_order_acquire)) {
            router->hedge_wasted_->Add();
          }
          return;
        }
        if (resp.code == StatusCode::kUnavailable && !is_hedge &&
            !out->hedged.load(std::memory_order_acquire)) {
          router->shard_errors_->Add();
        }
        RouteResult r;
        r.status = resp.ToStatus();
        r.probability = resp.probability;
        r.is_match = resp.is_match;
        r.shard = shard;
        r.hedged = out->hedged.load(std::memory_order_acquire);
        r.hedge_won = is_hedge;
        r.queue_us = resp.queue_us;
        r.infer_us = resp.infer_us;
        r.server_us = resp.server_us;
        r.batch_size = resp.batch_size;
        router->Complete(out, std::move(r));
      });
}

void FleetRouter::Complete(const std::shared_ptr<Outstanding>& out,
                           RouteResult result) {
  int expected = 0;
  if (!out->done.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
    return;  // a racing completion won; drop this one
  }
  result.total_us = ElapsedUs(out->start, Clock::now());
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  completed_->Add();
  // Counters must land before set_value: a caller that has observed the
  // result (e.g. a test reading the registry right after Match returns)
  // must see them. Only the CAS winner gets here, so a hedge that lost to
  // the deadline scan never counts as a win.
  if (result.hedge_won) {
    hedge_wins_->Add();
    obs::TraceInstant("net.hedge_win");
  }
  if (result.status.ok()) latencies_.Record(result.total_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_.erase(out->id);
  }
  out->promise.set_value(std::move(result));
}

double FleetRouter::HedgeThresholdUs() const {
  const double pq =
      obs::Percentile(latencies_.Sorted(), options_.hedge_quantile);
  return std::max(static_cast<double>(options_.hedge_min_us), pq);
}

void FleetRouter::MonitorLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.hedge_poll_us));
    const double threshold_us = HedgeThresholdUs();
    const Clock::time_point now = Clock::now();

    std::vector<std::shared_ptr<Outstanding>> open;
    {
      std::lock_guard<std::mutex> lock(mu_);
      open.reserve(outstanding_.size());
      for (auto& [id, out] : outstanding_) open.push_back(out);
    }

    for (const auto& out : open) {
      if (out->done.load(std::memory_order_acquire) != 0) continue;

      if (now >= out->deadline) {
        RouteResult r;
        r.status = Status::DeadlineExceeded("deadline passed at the router");
        r.shard = out->primary_shard;
        r.hedged = out->hedged.load(std::memory_order_acquire);
        deadline_exceeded_->Add();
        Complete(out, std::move(r));
        continue;
      }

      if (!options_.hedging || shards_.size() < 2) continue;
      if (ElapsedUs(out->start, now) < threshold_us) continue;
      if (out->hedged.exchange(true, std::memory_order_acq_rel)) continue;
      const int hedge_shard = PickHedgeShard(out->primary_shard);
      if (hedge_shard < 0) continue;
      out->hedge_shard = hedge_shard;
      hedges_->Add();
      obs::TraceInstant("net.hedge");
      DispatchTo(hedge_shard, out, /*is_hedge=*/true);
    }
  }
}

std::string FleetRouter::FleetSnapshotJson() {
  const std::vector<double> window = latencies_.Sorted();

  std::string out = "{\"router\": {\"policy\": ";
  obs::AppendJsonString(&out,
                        options_.policy == RoutePolicy::kConsistentHash
                            ? "consistent_hash"
                            : "least_loaded");
  out += ", \"shards\": " + std::to_string(shards_.size());
  out += ", \"max_in_flight\": " + std::to_string(options_.max_in_flight);
  out += ", \"in_flight\": " + std::to_string(in_flight());
  out += ", \"submitted\": " + std::to_string(submitted_->Value());
  out += ", \"completed\": " + std::to_string(completed_->Value());
  out += ", \"rejected\": " + std::to_string(rejected_->Value());
  out += ", \"hedges\": " + std::to_string(hedges_->Value());
  out += ", \"hedge_wins\": " + std::to_string(hedge_wins_->Value());
  out += ", \"hedge_wasted\": " + std::to_string(hedge_wasted_->Value());
  out += ", \"deadline_exceeded\": " +
         std::to_string(deadline_exceeded_->Value());
  out += ", \"shard_errors\": " + std::to_string(shard_errors_->Value());
  out += ", \"hedge_threshold_us\": ";
  obs::AppendJsonDouble(&out, HedgeThresholdUs());
  out += ", \"p50_us\": ";
  obs::AppendJsonDouble(&out, obs::Percentile(window, 0.50));
  out += ", \"p95_us\": ";
  obs::AppendJsonDouble(&out, obs::Percentile(window, 0.95));
  out += ", \"p99_us\": ";
  obs::AppendJsonDouble(&out, obs::Percentile(window, 0.99));
  out += "}, \"shards\": [";
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s > 0) out += ", ";
    out += "{\"name\": ";
    obs::AppendJsonString(&out, shards_[s]->name());
    out += ", \"in_flight\": " + std::to_string(shards_[s]->in_flight());
    out += ", \"stats\": ";
    const std::string stats = shards_[s]->StatsJson();
    out += stats.empty() ? "null" : stats;
    out += "}";
  }
  out += "]}";
  return out;
}

void FleetRouter::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  if (monitor_.joinable()) monitor_.join();
  // Stop the shard backends first: their destructors join the threads that
  // invoke completion callbacks, so after this no callback can race the
  // leftover sweep below. The swap happens under mu_ (Submit reads
  // shards_), but destruction runs outside it — backend teardown calls
  // Complete(), which takes mu_.
  std::vector<std::unique_ptr<ShardBackend>> shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards.swap(shards_);
  }
  shards.clear();

  std::unordered_map<uint64_t, std::shared_ptr<Outstanding>> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(outstanding_);
  }
  for (auto& [id, out] : leftovers) {
    int expected = 0;
    if (out->done.compare_exchange_strong(expected, 1,
                                          std::memory_order_acq_rel)) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      RouteResult r;
      r.status = Status::Unavailable("router is shut down");
      out->promise.set_value(std::move(r));
    }
  }
}

}  // namespace net
}  // namespace emx
