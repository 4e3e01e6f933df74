// matcher_server: serve entity-match requests through the emx::serve stack.
//
// Wraps an EntityMatcher in a MatcherEngine (bounded queue, dynamic
// micro-batching, tokenization cache, grad-free forward) and drives it with
// simulated client threads, then prints per-request decisions and the
// engine's metrics snapshot — the JSON a real deployment would scrape.
//
//   ./matcher_server [--finetune] [--precision=int8] [--clients N]
//                    [--requests N] [--trace=out.json] [--port=N]
//                    [--serve-seconds=S] [--split-layer=N]
//                    [--activation-cache-mb=M] [--save-model=PATH]
//                    [--model=PATH] [--reload] [cache_dir]
//
// --save-model=PATH writes the finished matcher (after --finetune and/or
// --precision=int8) to an EMXM1 container: fp32 parameters plus, when
// quantized, the packed int8 weight images and their scales.
// --model=PATH maps an EMXM1 container into the matcher instead of
// fine-tuning: parameters are copied from the mapping and packed int8
// weights are served zero-copy from the mapped file. A container that
// carries int8 sections makes --precision=int8 serving start without any
// calibration pass.
// --reload (socket mode) watches --model's mtime and hot-swaps the engine
// onto a freshly mapped copy whenever the file changes; in-flight batches
// finish on the old mapping and the swap drops no requests.
//
// --split-layer=N serves through the split-encoder prefix cache: the first
// N encoder layers run per entity segment (cached, keyed by entity text)
// and only layers N..L run as the full cross-encoder. N=0 caches at the
// embedding level and is bit-identical to the unsplit path.
// --activation-cache-mb=M bounds the prefix cache (default 64 MB).
//
// --port=N switches to socket mode: instead of simulating in-process
// traffic, the engine is exposed on 127.0.0.1:N over the emx wire protocol
// (net::MatchServer). --port=0 asks the kernel for an ephemeral port and
// prints the assignment, so scripts can run many servers without port
// bookkeeping. Bind/listen failures are reported with the syscall and
// errno text (via util::Status) and exit nonzero. The server answers a
// loopback self-check through a FleetRouter first, then serves until
// SIGINT/SIGTERM — or for --serve-seconds=S when given, which is what CI
// uses.
//
// --trace=PATH records the simulated traffic with emx::obs and writes a
// chrome://tracing / Perfetto-loadable trace to PATH; both the trace and
// the metrics snapshot are strict-validated before exit (nonzero exit on
// malformed output, so CI can use this as a gate).
//
// By default the backbone keeps its random init so the demo starts in
// seconds; pass --finetune to briefly fine-tune on a generated
// Walmart-Amazon slice first (slower, but the decisions become meaningful).
//
// --precision=int8 post-training-quantizes the matcher (calibrating on the
// held-out validation slice) and serves the simulated traffic through BOTH
// engines — fp32 and int8 — printing their metrics side by side.

#include <sys/stat.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/entity_matcher.h"
#include "data/generators.h"
#include "net/fleet_router.h"
#include "net/match_server.h"
#include "nn/layers.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "pretrain/model_zoo.h"
#include "quant/model_file.h"
#include "quant/quantize_matcher.h"
#include "serve/matcher_engine.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

/// Mtime of `path` at nanosecond granularity, or 0 when it cannot be
/// stat'ed (missing file, permission).
int64_t FileMtimeNs(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         static_cast<int64_t>(st.st_mtim.tv_nsec);
}

/// Socket mode: exposes `matcher` on 127.0.0.1:`port` over the wire
/// protocol, answers a loopback self-check through a FleetRouter, then
/// serves until SIGINT/SIGTERM (or for `serve_seconds` when > 0). Returns
/// the process exit code; bind/listen failures are printed with their
/// errno text.
///
/// With `reload` set, a watcher thread polls `model_path`'s mtime twice a
/// second; when the file changes, `make_matcher` maps the new container
/// and the engine hot-swaps onto it without dropping in-flight requests.
int ServeSocket(
    emx::core::EntityMatcher* matcher, emx::serve::Precision precision,
    uint16_t port, int64_t serve_seconds, int64_t split_layer,
    int64_t activation_cache_bytes, const std::string& model_path, bool reload,
    const std::function<
        emx::Result<std::shared_ptr<emx::core::EntityMatcher>>()>&
        make_matcher) {
  using namespace emx;
  serve::EngineOptions eopts;
  eopts.precision = precision;
  eopts.max_batch_size = 16;
  eopts.max_wait_us = 2000;
  eopts.queue_capacity = 1024;
  eopts.max_seq_len = 48;
  eopts.split_layer = split_layer;
  eopts.activation_cache_bytes = activation_cache_bytes;
  serve::MatcherEngine engine(matcher, eopts);

  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (reload && !model_path.empty()) {
    watcher = std::thread([&] {
      int64_t last_mtime = FileMtimeNs(model_path);
      while (!watch_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        const int64_t mtime = FileMtimeNs(model_path);
        if (mtime == 0 || mtime == last_mtime) continue;
        last_mtime = mtime;
        auto next = make_matcher();
        if (!next.ok()) {
          std::printf("reload: %s\n", next.status().ToString().c_str());
          continue;
        }
        if (Status s = engine.SwapModel(next.value()); !s.ok()) {
          std::printf("reload: swap rejected: %s\n", s.ToString().c_str());
          continue;
        }
        std::printf("reload: %s -> model v%llu\n", model_path.c_str(),
                    static_cast<unsigned long long>(engine.model_version()));
      }
    });
    std::printf("watching %s for hot-swap (500 ms poll)\n",
                model_path.c_str());
  }
  struct WatcherJoin {
    std::atomic<bool>* stop;
    std::thread* t;
    ~WatcherJoin() {
      stop->store(true, std::memory_order_release);
      if (t->joinable()) t->join();
    }
  } watcher_join{&watch_stop, &watcher};

  net::ServerOptions sopts;
  sopts.port = port;
  net::MatchServer server(&engine, sopts);
  if (Status s = server.Start(); !s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u (requested port %u)\n",
              static_cast<unsigned>(server.port()),
              static_cast<unsigned>(port));

  // Loopback self-check: route one pair through a real socket client so a
  // green start-up line means the full wire path works, not just bind().
  {
    net::RouterOptions ropts;
    ropts.hedging = false;
    net::FleetRouter router(ropts);
    if (Status s = router.AddRemoteShard(server.port()); !s.ok()) {
      std::printf("error: self-check connect: %s\n", s.ToString().c_str());
      return 1;
    }
    const net::RouteResult r =
        router.Match("logitech wireless mouse m185 grey",
                     "logitech m185 mouse wireless", /*timeout_us=*/10000000);
    if (!r.status.ok()) {
      std::printf("error: self-check request: %s\n",
                  r.status.ToString().c_str());
      return 1;
    }
    std::printf("self-check ok: %s p=%.3f (%.1f ms over loopback)\n",
                r.is_match ? "MATCH" : "no match", r.probability,
                r.total_us / 1000.0);
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::seconds(serve_seconds);
  if (serve_seconds > 0) {
    std::printf("serving for %lld seconds...\n",
                static_cast<long long>(serve_seconds));
  } else {
    std::printf("serving until SIGINT/SIGTERM...\n");
  }
  while (!g_stop.load() &&
         (serve_seconds <= 0 || std::chrono::steady_clock::now() < stop_at)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  std::printf("\nmetrics: %s\n", server.MetricsJson().c_str());
  return 0;
}

struct TrafficResult {
  double pairs_per_sec = 0;
  emx::serve::MetricsSnapshot metrics;
};

/// Replays dataset pairs from `clients` threads with a hot-set skew so the
/// tokenization cache earns its keep.
TrafficResult RunTraffic(emx::core::EntityMatcher* matcher,
                         emx::serve::Precision precision,
                         const emx::data::EmDataset& dataset, int64_t clients,
                         int64_t requests, int64_t split_layer,
                         int64_t activation_cache_bytes) {
  using namespace emx;
  serve::EngineOptions opts;
  opts.precision = precision;
  opts.max_batch_size = 16;
  opts.max_wait_us = 2000;
  opts.queue_capacity = 1024;
  opts.max_seq_len = 48;
  opts.split_layer = split_layer;
  opts.activation_cache_bytes = activation_cache_bytes;
  serve::MatcherEngine engine(matcher, opts);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::vector<std::future<serve::MatchResult>> futures;
      const auto& pool = dataset.train;
      for (int64_t i = 0; i < requests; ++i) {
        // 1-in-4 requests hit a small hot set of popular entities.
        const size_t idx = (i % 4 == 0)
                               ? static_cast<size_t>(i % 8)
                               : static_cast<size_t>(c * requests + i) %
                                     pool.size();
        const auto& p = pool[idx];
        futures.push_back(
            engine.Submit(dataset.SerializeA(p), dataset.SerializeB(p)));
      }
      for (auto& f : futures) (void)f.get();
    });
  }
  for (auto& w : workers) w.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TrafficResult result;
  result.metrics = engine.Metrics();
  result.pairs_per_sec =
      static_cast<double>(clients * requests) / (seconds > 0 ? seconds : 1);
  return result;
}

/// Stops profiling, writes the Chrome trace to `path`, and strict-validates
/// both the trace file and the engine metrics JSON. Returns false (and
/// explains) if either artifact would break a strict consumer.
bool FinishTrace(const std::string& path, const std::string& metrics_json) {
  using namespace emx;
  obs::StopProfiling();
  if (!obs::WriteChromeTrace(path)) {
    std::printf("error: cannot write trace to %s\n", path.c_str());
    return false;
  }

  obs::JsonValue doc;
  std::string error;
  if (!obs::JsonParse(obs::ExportChromeTrace(), &doc, &error)) {
    std::printf("error: emitted trace is not strict JSON: %s\n",
                error.c_str());
    return false;
  }
  const obs::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array() || events->array.empty()) {
    std::printf("error: trace has no traceEvents\n");
    return false;
  }
  // A second document: `events` points into `doc`.
  obs::JsonValue metrics;
  if (!obs::JsonParse(metrics_json, &metrics, &error)) {
    std::printf("error: metrics snapshot is not strict JSON: %s\n",
                error.c_str());
    return false;
  }
  std::printf("\nwrote %s (%lld events, %lld dropped) — load it at "
              "chrome://tracing or ui.perfetto.dev\n",
              path.c_str(), static_cast<long long>(events->array.size()),
              static_cast<long long>(obs::TraceDroppedCount()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace emx;

  bool finetune = false;
  bool int8 = false;
  bool socket_mode = false;
  int64_t port = 0;
  int64_t serve_seconds = 0;
  int64_t clients = 4;
  int64_t requests = 200;
  int64_t split_layer = -1;
  int64_t activation_cache_mb = 64;
  bool reload = false;
  std::string model_path;
  std::string save_model_path;
  std::string trace_path;
  std::string cache_dir = "/tmp/emx_zoo_bench";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--finetune") == 0) {
      finetune = true;
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      socket_mode = true;
      port = std::atoll(argv[i] + 7);
      if (port < 0 || port > 65535) {
        std::printf("error: --port=%lld out of range [0, 65535]\n",
                    static_cast<long long>(port));
        return 1;
      }
    } else if (std::strncmp(argv[i], "--serve-seconds=", 16) == 0) {
      serve_seconds = std::atoll(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--split-layer=", 14) == 0) {
      split_layer = std::atoll(argv[i] + 14);
      if (split_layer < 0) {
        std::printf("error: --split-layer=%lld must be >= 0\n",
                    static_cast<long long>(split_layer));
        return 1;
      }
    } else if (std::strncmp(argv[i], "--activation-cache-mb=", 22) == 0) {
      activation_cache_mb = std::atoll(argv[i] + 22);
      if (activation_cache_mb < 0) {
        std::printf("error: --activation-cache-mb=%lld must be >= 0\n",
                    static_cast<long long>(activation_cache_mb));
        return 1;
      }
    } else if (std::strncmp(argv[i], "--save-model=", 13) == 0) {
      save_model_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--model=", 8) == 0) {
      model_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--reload") == 0) {
      reload = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--precision=int8") == 0) {
      int8 = true;
    } else if (std::strcmp(argv[i], "--precision=fp32") == 0) {
      int8 = false;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoll(argv[++i]);
    } else {
      cache_dir = argv[i];
    }
  }

  // 1. Model: tokenizer always trained (cached); weights random unless
  //    --finetune is given.
  pretrain::ZooOptions zoo;
  zoo.cache_dir = cache_dir;
  zoo.vocab_size = 1000;
  zoo.corpus.num_documents = 2000;
  zoo.skip_pretraining = !finetune;
  zoo.pretrain.steps = 1200;
  zoo.pretrain.batch_size = 16;
  zoo.pretrain.data.max_seq_len = 32;
  zoo.pretrain.learning_rate = 1e-3f;
  auto bundle = pretrain::GetPretrained(models::Architecture::kRoberta, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(48);

  // --model replaces training entirely: map the container's fp32 weights
  // into the matcher and, when the file carries int8 sections, attach the
  // packed weights zero-copy from the mapping (no calibration needed).
  bool model_supplied_int8 = false;
  if (!model_path.empty()) {
    auto info = quant::LoadModelFileMapped(&matcher, model_path);
    if (!info.ok()) {
      std::printf("error: --model=%s: %s\n", model_path.c_str(),
                  info.status().ToString().c_str());
      return 1;
    }
    model_supplied_int8 = info.value().has_int8;
    std::printf("mapped %s: %lld fp32 params%s\n", model_path.c_str(),
                static_cast<long long>(info.value().fp32_params),
                model_supplied_int8 ? " + packed int8 weights (zero-copy)"
                                    : "");
    if (finetune) {
      std::printf("note: --model supplies the weights; skipping --finetune\n");
      finetune = false;
    }
  }

  data::GeneratorOptions gen;
  gen.scale = 0.04;
  auto dataset = data::GenerateDataset(data::DatasetId::kWalmartAmazon, gen);
  // Tracing covers everything from here on: the fine-tuning epochs (when
  // --finetune is given) land in the same trace as the serving traffic, so
  // one file shows train.epoch phase spans next to serve.batch spans.
  if (!trace_path.empty()) obs::StartProfiling();
  if (finetune) {
    core::FineTuneOptions ft;
    ft.epochs = 3;
    ft.max_seq_len = 48;
    ft.learning_rate = 1e-3f;
    std::printf("Fine-tuning %s for %lld epochs...\n", matcher.arch_name(),
                static_cast<long long>(ft.epochs));
    matcher.FineTune(dataset, ft);
  }

  // 2. Optional post-training quantization, calibrated on the held-out
  //    validation slice (never part of fine-tuning). A --model container
  //    that already carries int8 sections makes this a no-op.
  if (model_supplied_int8) int8 = true;
  if (int8 && !model_supplied_int8) {
    quant::CalibrationData calib;
    const auto& held_out = dataset.valid;
    for (size_t i = 0; i < held_out.size() && i < 64; ++i) {
      calib.texts_a.push_back(dataset.SerializeA(held_out[i]));
      calib.texts_b.push_back(dataset.SerializeB(held_out[i]));
    }
    auto report = quant::QuantizeMatcher(&matcher, calib);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("Quantized to int8: %lld linears + %lld fused FFN blocks "
                "(calibrated on %lld held-out pairs)\n",
                static_cast<long long>(report.value().num_linears),
                static_cast<long long>(report.value().num_ffns),
                static_cast<long long>(report.value().calibration_pairs));
  }

  if (!save_model_path.empty()) {
    if (Status s = quant::SaveModelFile(&matcher, save_model_path); !s.ok()) {
      std::printf("error: --save-model=%s: %s\n", save_model_path.c_str(),
                  s.ToString().c_str());
      return 1;
    }
    std::printf("saved EMXM1 container to %s%s\n", save_model_path.c_str(),
                int8 ? " (fp32 + packed int8)" : "");
  }

  // 3. Socket mode: expose the engine on a TCP port instead of simulating
  //    in-process traffic. With --model + --reload, a watcher hot-swaps
  //    the engine whenever the container file changes; each fresh matcher
  //    is rebuilt from the (cached) zoo bundle so the tokenizer is
  //    identical, then mapped from the new file.
  if (socket_mode) {
    auto make_matcher =
        [&]() -> Result<std::shared_ptr<core::EntityMatcher>> {
      auto b = pretrain::GetPretrained(models::Architecture::kRoberta, zoo);
      if (!b.ok()) return b.status();
      auto m = std::make_shared<core::EntityMatcher>(std::move(b).value());
      m->set_eval_max_seq_len(48);
      EMX_ASSIGN_OR_RETURN(const quant::ModelFileInfo info,
                           quant::LoadModelFileMapped(m.get(), model_path));
      if (int8 && !info.has_int8) {
        return Status::InvalidArgument(
            model_path + " lost its int8 sections; refusing to swap an "
                         "int8 engine onto an fp32-only container");
      }
      return m;
    };
    return ServeSocket(&matcher,
                       int8 ? serve::Precision::kInt8 : serve::Precision::kFp32,
                       static_cast<uint16_t>(port), serve_seconds, split_layer,
                       activation_cache_mb << 20, model_path, reload,
                       make_matcher);
  }

  // 4. A few interactive-style requests. With int8 enabled, show both
  //    precisions' probabilities for the same pair.
  struct Demo {
    const char* a;
    const char* b;
  };
  const Demo demos[] = {
      {"samsung zen sx440 phone , compact black with hd display",
       "samsung sx440 zen phone black 64 gb"},
      {"samsung zen sx440 phone , compact black with hd display",
       "canon prime zz910 camera with optical zoom"},
      {"logitech wireless mouse m185 grey", "logitech m185 mouse wireless"},
  };
  for (const Demo& d : demos) {
    double p_fp32;
    {
      nn::QuantModeGuard fp32_only(false);
      p_fp32 = matcher.MatchProbability(d.a, d.b);
    }
    if (int8) {
      const double p_int8 = matcher.MatchProbability(d.a, d.b);
      std::printf("Match('%s',\n      '%s')\n  -> %s  p_fp32=%.3f  "
                  "p_int8=%.3f\n",
                  d.a, d.b, p_fp32 >= 0.5 ? "MATCH" : "no match", p_fp32,
                  p_int8);
    } else {
      std::printf("Match('%s',\n      '%s')\n  -> %s  p=%.3f\n", d.a, d.b,
                  p_fp32 >= 0.5 ? "MATCH" : "no match", p_fp32);
    }
  }

  // 5. Simulated traffic through the engine(s), optionally traced.
  std::printf("\nServing %lld requests from %lld client threads...\n",
              static_cast<long long>(requests * clients),
              static_cast<long long>(clients));
  TrafficResult fp32 =
      RunTraffic(&matcher, serve::Precision::kFp32, dataset, clients, requests,
                 split_layer, activation_cache_mb << 20);
  if (!int8) {
    std::printf("\nmetrics: %s\n", fp32.metrics.ToJson().c_str());
    if (!trace_path.empty() &&
        !FinishTrace(trace_path, fp32.metrics.ToJson())) {
      return 1;
    }
    return 0;
  }

  TrafficResult q =
      RunTraffic(&matcher, serve::Precision::kInt8, dataset, clients, requests,
                 split_layer, activation_cache_mb << 20);
  std::printf("\n%-24s %12s %12s\n", "", "fp32", "int8");
  std::printf("%-24s %12.1f %12.1f\n", "pairs/sec", fp32.pairs_per_sec,
              q.pairs_per_sec);
  std::printf("%-24s %12.0f %12.0f\n", "p50 latency (us)",
              fp32.metrics.p50_latency_us, q.metrics.p50_latency_us);
  std::printf("%-24s %12.0f %12.0f\n", "p95 latency (us)",
              fp32.metrics.p95_latency_us, q.metrics.p95_latency_us);
  std::printf("%-24s %12.2f %12.2f\n", "mean batch size",
              fp32.metrics.mean_batch_size, q.metrics.mean_batch_size);
  std::printf("%-24s %12.2f %12.2f\n", "cache hit rate",
              fp32.metrics.cache_hit_rate, q.metrics.cache_hit_rate);
  std::printf("%-24s %12s\n", "speedup",
              (std::to_string(q.pairs_per_sec / fp32.pairs_per_sec) + "x")
                  .c_str());
  std::printf("\nfp32 metrics: %s\n", fp32.metrics.ToJson().c_str());
  std::printf("int8 metrics: %s\n", q.metrics.ToJson().c_str());
  if (!trace_path.empty() && !FinishTrace(trace_path, q.metrics.ToJson())) {
    return 1;
  }
  return 0;
}
