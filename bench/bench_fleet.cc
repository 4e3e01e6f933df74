// Sharded serving fleet bench: N MatchServer shards (each wrapping its own
// MatcherEngine over shared read-only weights) behind a FleetRouter, driven
// over real loopback sockets by an external load generator. Three
// experiments, each with a gate, written to BENCH_fleet.json:
//
//   scaling     closed-loop throughput at 4 shards >= 3.0x the 1-shard
//               fleet (>= 1.5x at the smoke scale of 2 shards)
//   straggler   with one shard slowed 10x, hedged requests cut served p99
//               to <= 0.5x the un-hedged run at unchanged (+/-10%) p50
//   overload    at 2x the fleet's capacity, admission control fast-fails
//               with ResourceExhausted (reject p99 <= 5ms) while served
//               p99 stays within 1.5x of the non-overloaded run
//
// The per-shard service rate is pinned by ServerOptions::artificial_service_us
// (a serialized minimum service time on each shard's response path), which
// makes the fleet delay-bound rather than CPU-bound — so the scaling and
// tail gates are meaningful on the 1-core CI hosts this runs on. The model
// forward still runs on every request; the knob only sets a floor.
//
// `--smoke` shrinks to 2 shards and CI-scale request counts but keeps every
// gate. Environment knobs:
//
//   EMX_FLEET_SHARDS      shard count          (default 4; smoke 2)
//   EMX_FLEET_SERVICE_US  per-shard service µs (default 8000)
//   EMX_FLEET_REQUESTS    requests/experiment  (default 240; smoke 80)
//   EMX_CACHE_DIR         tokenizer/model cache

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/report.h"
#include "core/entity_matcher.h"
#include "net/fleet_router.h"
#include "net/match_server.h"
#include "obs/metrics.h"
#include "pretrain/model_zoo.h"
#include "serve/matcher_engine.h"
#include "util/timer.h"

namespace emx {
namespace {

using Clock = std::chrono::steady_clock;

/// One fleet: engines + socket servers on ephemeral loopback ports. Every
/// engine shares one EntityMatcher — grad-free forwards only read the
/// weights, so shards need no weight copies.
struct Fleet {
  std::vector<std::unique_ptr<serve::MatcherEngine>> engines;
  std::vector<std::unique_ptr<net::MatchServer>> servers;

  static serve::EngineOptions EngineOpts() {
    serve::EngineOptions opts;
    opts.max_seq_len = 32;
    opts.bucket_width = 32;
    opts.max_batch_size = 8;
    opts.max_wait_us = 1000;
    return opts;
  }

  /// `straggler` < 0 for a healthy fleet; otherwise that shard's service
  /// time is multiplied by `straggler_mult`.
  static Fleet Start(core::EntityMatcher* matcher, int shards,
                     int64_t service_us, int straggler = -1,
                     int64_t straggler_mult = 10) {
    Fleet fleet;
    for (int i = 0; i < shards; ++i) {
      fleet.engines.push_back(
          std::make_unique<serve::MatcherEngine>(matcher, EngineOpts()));
      net::ServerOptions sopts;
      sopts.port = 0;  // ephemeral
      sopts.artificial_service_us =
          i == straggler ? service_us * straggler_mult : service_us;
      fleet.servers.push_back(std::make_unique<net::MatchServer>(
          fleet.engines.back().get(), sopts));
      const Status st = fleet.servers.back()->Start();
      if (!st.ok()) {
        std::printf("fatal: shard %d failed to start: %s\n", i,
                    st.ToString().c_str());
        std::exit(1);
      }
    }
    return fleet;
  }

  Status Connect(net::FleetRouter* router) const {
    for (const auto& server : servers) {
      EMX_RETURN_IF_ERROR(router->AddRemoteShard(server->port()));
    }
    return Status::OK();
  }

  void Stop() {
    for (auto& server : servers) server->Stop();
  }
};

struct RunStats {
  double wall_s = 0;
  double throughput_rps = 0;
  // Ascending after a run, for obs::Percentile.
  std::vector<double> served_us;  // OK completions, router-measured
  int64_t served = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t hedged = 0;
  std::vector<double> reject_us;  // Submit -> synchronous reject
};

/// Closed loop: `threads` clients each run `n / threads` synchronous
/// round trips — measures the fleet's saturated throughput.
RunStats RunClosedLoop(net::FleetRouter* router, int64_t n, int threads,
                       const char* tag) {
  RunStats stats;
  std::vector<std::vector<double>> lat(threads);
  std::vector<std::thread> workers;
  Timer timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const int64_t per = n / threads;
      for (int64_t i = 0; i < per; ++i) {
        const std::string id = std::string(tag) + " " + std::to_string(t) +
                               "-" + std::to_string(i);
        net::RouteResult r =
            router->Match("fleet item " + id, "fleet product " + id);
        if (r.status.ok()) lat[t].push_back(r.total_us);
      }
    });
  }
  for (auto& w : workers) w.join();
  stats.wall_s = timer.ElapsedSeconds();
  for (auto& v : lat) {
    stats.served += static_cast<int64_t>(v.size());
    stats.served_us.insert(stats.served_us.end(), v.begin(), v.end());
  }
  std::sort(stats.served_us.begin(), stats.served_us.end());
  stats.errors = n / threads * threads - stats.served;
  stats.throughput_rps = static_cast<double>(stats.served) / stats.wall_s;
  return stats;
}

/// Open loop: submits `n` requests at a fixed arrival rate regardless of
/// completions (the honest way to measure tail latency and overload — a
/// closed loop self-throttles and hides both).
RunStats RunOpenLoop(net::FleetRouter* router, int64_t n, double rate_rps,
                     const char* tag) {
  RunStats stats;
  std::vector<std::future<net::RouteResult>> futures;
  futures.reserve(n);
  const auto interval =
      std::chrono::nanoseconds(static_cast<int64_t>(1e9 / rate_rps));
  Timer timer;
  const auto start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(start + interval * i);
    const std::string id = std::string(tag) + " " + std::to_string(i);
    const auto t0 = Clock::now();
    auto fut = router->Submit("fleet item " + id, "fleet product " + id);
    // Admission rejects resolve synchronously inside Submit; harvesting
    // them here measures the actual fail-fast latency.
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      net::RouteResult r = fut.get();
      if (r.status.code() == StatusCode::kResourceExhausted) {
        ++stats.rejected;
        stats.reject_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        continue;
      }
      if (r.status.ok()) {
        ++stats.served;
        stats.served_us.push_back(r.total_us);
        if (r.hedged) ++stats.hedged;
      } else {
        ++stats.errors;
      }
      continue;
    }
    futures.push_back(std::move(fut));
  }
  for (auto& fut : futures) {
    net::RouteResult r = fut.get();
    if (r.status.ok()) {
      ++stats.served;
      stats.served_us.push_back(r.total_us);
      if (r.hedged) ++stats.hedged;
    } else if (r.status.code() == StatusCode::kResourceExhausted) {
      ++stats.rejected;
    } else {
      ++stats.errors;
    }
  }
  stats.wall_s = timer.ElapsedSeconds();
  stats.throughput_rps = static_cast<double>(stats.served) / stats.wall_s;
  std::sort(stats.served_us.begin(), stats.served_us.end());
  std::sort(stats.reject_us.begin(), stats.reject_us.end());
  return stats;
}

}  // namespace
}  // namespace emx

int main(int argc, char** argv) {
  using namespace emx;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int shards =
      static_cast<int>(bench::EnvInt("EMX_FLEET_SHARDS", smoke ? 2 : 4));
  const int64_t service_us = bench::EnvInt("EMX_FLEET_SERVICE_US", 8000);
  const int64_t n = bench::EnvInt("EMX_FLEET_REQUESTS", smoke ? 80 : 240);
  const double shard_rps = 1e6 / static_cast<double>(service_us);
  const double fleet_rps = shard_rps * shards;

  std::printf("bench_fleet — %d shards, %lldus service floor (%.0f rps/shard),"
              " %lld requests/experiment%s\n\n",
              shards, static_cast<long long>(service_us), shard_rps,
              static_cast<long long>(n), smoke ? " (--smoke)" : "");

  // ---- Model (tiny, random weights: serving rate does not depend on
  // weight quality; the tokenizer is trained and cached) --------------------
  pretrain::ZooOptions zoo;
  zoo.cache_dir = bench::EnvString("EMX_CACHE_DIR", "/tmp/emx_zoo_fleet_bench");
  zoo.vocab_size = 500;
  zoo.corpus.num_documents = 150;
  zoo.skip_pretraining = true;
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(32);

  // ---- Experiment 1: throughput scaling, 1 shard vs N shards --------------
  double tput_one = 0, tput_many = 0;
  {
    Fleet one = Fleet::Start(&matcher, 1, service_us);
    net::RouterOptions ropts;
    ropts.policy = net::RoutePolicy::kLeastLoaded;
    ropts.hedging = false;
    net::FleetRouter router(ropts);
    if (Status st = one.Connect(&router); !st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return 1;
    }
    RunStats s = RunClosedLoop(&router, n, /*threads=*/8, "scale1");
    tput_one = s.throughput_rps;
    std::printf("%-26s %8.1f rps   (%lld served, p99 %.1fms)\n",
                "scaling: 1 shard", tput_one,
                static_cast<long long>(s.served),
                obs::Percentile(s.served_us, 0.99) / 1e3);
    router.Shutdown();
    one.Stop();
  }
  {
    Fleet many = Fleet::Start(&matcher, shards, service_us);
    net::RouterOptions ropts;
    ropts.policy = net::RoutePolicy::kLeastLoaded;
    ropts.hedging = false;
    net::FleetRouter router(ropts);
    if (Status st = many.Connect(&router); !st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return 1;
    }
    RunStats s =
        RunClosedLoop(&router, n * shards, /*threads=*/8 * shards, "scaleN");
    tput_many = s.throughput_rps;
    std::printf("%-26s %8.1f rps   (%lld served, p99 %.1fms)\n",
                ("scaling: " + std::to_string(shards) + " shards").c_str(),
                tput_many, static_cast<long long>(s.served),
                obs::Percentile(s.served_us, 0.99) / 1e3);
    router.Shutdown();
    many.Stop();
  }
  const double speedup = tput_many / tput_one;
  const double speedup_floor = smoke ? 1.5 : 3.0;
  std::printf("\n");

  // ---- Experiment 2: straggler + hedged retries ---------------------------
  // One shard 10x slower; open-loop at 30% of the healthy fleet rate (so
  // the healthy shards absorb the hedge overflow without saturating). The
  // consistent hash keeps sending the straggler its share of the key space
  // either way — the only difference between the runs is hedging.
  const double straggler_rate = 0.3 * fleet_rps;
  RunStats unhedged, hedged;
  {
    Fleet fleet = Fleet::Start(&matcher, shards, service_us, /*straggler=*/0);
    {
      net::RouterOptions ropts;
      ropts.policy = net::RoutePolicy::kConsistentHash;
      ropts.hedging = false;
      net::FleetRouter router(ropts);
      if (!fleet.Connect(&router).ok()) return 1;
      unhedged = RunOpenLoop(&router, n, straggler_rate, "laggard");
      router.Shutdown();
    }
    {
      net::RouterOptions ropts;
      ropts.policy = net::RoutePolicy::kConsistentHash;
      ropts.hedging = true;
      ropts.hedge_quantile = 0.70;
      // 3x the healthy service floor: only genuine stragglers cross it, so
      // the hedge overflow onto healthy shards stays small enough to leave
      // their median (the fleet p50) in place.
      ropts.hedge_min_us = 3 * service_us;
      ropts.hedge_poll_us = 1000;
      net::FleetRouter router(ropts);
      if (!fleet.Connect(&router).ok()) return 1;
      // Identical request texts => identical hash placement per run.
      hedged = RunOpenLoop(&router, n, straggler_rate, "laggard");
      router.Shutdown();
    }
    fleet.Stop();
  }
  const double unhedged_p50 = obs::Percentile(unhedged.served_us, 0.5) / 1e3;
  const double unhedged_p99 = obs::Percentile(unhedged.served_us, 0.99) / 1e3;
  const double hedged_p50 = obs::Percentile(hedged.served_us, 0.5) / 1e3;
  const double hedged_p99 = obs::Percentile(hedged.served_us, 0.99) / 1e3;
  std::printf("%-26s p50 %7.1fms  p99 %8.1fms  (%lld served)\n",
              "straggler: unhedged", unhedged_p50, unhedged_p99,
              static_cast<long long>(unhedged.served));
  std::printf("%-26s p50 %7.1fms  p99 %8.1fms  (%lld served, %lld hedged)\n\n",
              "straggler: hedged", hedged_p50, hedged_p99,
              static_cast<long long>(hedged.served),
              static_cast<long long>(hedged.hedged));

  // ---- Experiment 3: overload + admission control -------------------------
  // Open loop at 0.4x and 2.0x fleet capacity with a tight in-flight
  // budget: overload must degrade into fast rejections, not latency
  // collapse for the admitted requests. (0.4x keeps the non-overloaded
  // reference clean of CPU-contention noise on 1-core CI hosts.)
  RunStats baseline, overload;
  {
    Fleet fleet = Fleet::Start(&matcher, shards, service_us);
    net::RouterOptions ropts;
    ropts.policy = net::RoutePolicy::kLeastLoaded;
    ropts.hedging = false;
    // One request per shard: admitted requests never queue behind each
    // other, so overload cannot move the served tail.
    ropts.max_in_flight = shards;
    {
      net::FleetRouter router(ropts);
      if (!fleet.Connect(&router).ok()) return 1;
      baseline = RunOpenLoop(&router, n, 0.4 * fleet_rps, "baseline");
      router.Shutdown();
    }
    {
      net::FleetRouter router(ropts);
      if (!fleet.Connect(&router).ok()) return 1;
      overload = RunOpenLoop(&router, n, 2.0 * fleet_rps, "overload");
      router.Shutdown();
    }
    fleet.Stop();
  }
  const double baseline_p99 = obs::Percentile(baseline.served_us, 0.99) / 1e3;
  const double overload_p99 = obs::Percentile(overload.served_us, 0.99) / 1e3;
  const double reject_p99 = obs::Percentile(overload.reject_us, 0.99) / 1e3;
  std::printf("%-26s p99 %7.1fms  (%lld served, %lld rejected)\n",
              "overload: 0.4x capacity", baseline_p99,
              static_cast<long long>(baseline.served),
              static_cast<long long>(baseline.rejected));
  std::printf("%-26s p99 %7.1fms  (%lld served, %lld rejected, reject p99 "
              "%.3fms)\n\n",
              "overload: 2.0x capacity", overload_p99,
              static_cast<long long>(overload.served),
              static_cast<long long>(overload.rejected), reject_p99);

  bench::Report report("fleet");
  const int64_t errors =
      unhedged.errors + hedged.errors + baseline.errors + overload.errors;
  report.Set("smoke", smoke)
      .Set("shards", shards)
      .Set("service_us", service_us)
      .Set("requests_per_experiment", n)
      .Set("throughput_1_shard_rps", tput_one, 1)
      .Set("throughput_n_shards_rps", tput_many, 1)
      .Set("scaling_speedup", speedup, 2)
      .Set("scaling_floor", speedup_floor, 1)
      .Set("straggler_unhedged_p50_ms", unhedged_p50, 2)
      .Set("straggler_unhedged_p99_ms", unhedged_p99, 2)
      .Set("straggler_hedged_p50_ms", hedged_p50, 2)
      .Set("straggler_hedged_p99_ms", hedged_p99, 2)
      .Set("straggler_hedged_requests", hedged.hedged)
      .Set("overload_baseline_p99_ms", baseline_p99, 2)
      .Set("overload_served_p99_ms", overload_p99, 2)
      .Set("overload_served", overload.served)
      .Set("overload_rejected", overload.rejected)
      .Set("overload_reject_p99_ms", reject_p99)
      .Set("errors", errors);
  report.Gate("scaling speedup", speedup, ">=", speedup_floor);
  report.Gate("hedged p99 ms", hedged_p99, "<=", 0.5 * unhedged_p99);
  // At full scale the straggler holds a minority (1/shards) of the hash
  // ring, so the median is served by healthy shards in both runs and must
  // not move (+/-10%). At smoke scale (2 shards) the straggler owns ~half
  // the ring and dominates the unhedged median, so "unchanged" is the
  // wrong shape — the gate degrades to one-sided (hedging must not hurt
  // the median).
  report.Check(smoke ? "hedged p50 <= 1.1x unhedged" : "hedged p50 +/-10%",
               unhedged_p50 > 0 &&
                   (smoke ? hedged_p50 <= 1.10 * unhedged_p50
                          : std::fabs(hedged_p50 / unhedged_p50 - 1.0) <= 0.10));
  report.Gate("overload rejections", overload.rejected, ">", 0);
  report.Gate("reject p99 ms", reject_p99, "<=", 5.0);
  report.Gate("overload served p99 ms", overload_p99, "<=",
              1.5 * baseline_p99);
  report.Gate("errors", errors, "==", 0);
  return report.Finish();
}
