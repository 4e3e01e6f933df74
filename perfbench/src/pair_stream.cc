// pair_stream: online pair matching the way matcher_server serves it — an
// int8 engine behind one net::MatchServer shard on loopback, driven over
// one pipelined connection. The run repeats three phases in rounds:
// `saturate` (closed loop, fixed in-flight window) gives ops_per_s; `paced`
// (open loop at a fixed rate, latency timed from each request's due time)
// gives p50_ms, and its tail percentile goes to the report; `bulk` scores
// pairs of the run through EntityMatcher::MatchProbabilities, which gives
// eval_pairs_per_s and, afterwards, the correctness reference.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bench.h"
#include "net/match_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "quant/model_file.h"
#include "serve/matcher_engine.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Offered load of the paced phase. A constant, never derived from the
/// run's own capacity, so a parent and a change see the same load; about a
/// third of the saturate capacity measured in a slow host phase, so that
/// queueing does not amplify host noise.
constexpr double kPacedRate = 400.0;
/// Requests in flight during the saturate phase: enough that every length
/// bucket always holds a full micro-batch, so the phase measures the
/// engine's batch throughput rather than flush-timer luck (with 64 in
/// flight, saturate pairs/s spread ~30% from run to run; with 256, ~5%).
constexpr int64_t kWindow = 256;
/// Warm-up requests sent by every set-up (ids [0, kWarmup)).
constexpr int64_t kWarmup = 64;
/// Set-ups per round. Set-up is timed in three rounds (start, after the
/// timed phases, end); setup_s is the median of every set-up, so one slow
/// stretch of the host does not set it.
constexpr int kSetupsPerRound = 3;
/// The run is kRounds rounds of saturate, paced and bulk scoring, so each
/// figure samples the whole run rather than one stretch of the host's
/// speed. Shares of a round spent in the saturate and paced phases; bulk
/// scoring takes the rest.
constexpr int kRounds = 8;
constexpr double kSaturateShare = 0.35;
constexpr double kPacedShare = 0.45;
/// p50_ms reads the paced latencies in chunks of this many consecutive
/// requests (0.1 s each), at the quiet quantile (stats.h).
constexpr int64_t kPacedChunk = 40;
/// Pairs per second the pair pool is sized for in the saturate phase.
constexpr double kMaxSaturateRate = 6000.0;
constexpr int64_t kCheckSamples = 200;
/// Bulk scoring: passes of one evaluation batch (kBulkSlice pairs, cycling
/// through the last kBulkPairs pairs of the pool, which are never sent) for
/// its share of each round, at least kMinBulkPasses per round.
constexpr int64_t kBulkPairs = 256;
constexpr int64_t kBulkSlice = 32;
constexpr int kMinBulkPasses = 3;

struct Sample {
  Clock::time_point due;   // paced phase only
  Clock::time_point sent;
  Clock::time_point done;
  double queue_us = 0;
  double infer_us = 0;
  double server_us = 0;
  double probability = 0;
  bool received = false;
  bool ok = false;
};

/// One pipelined connection: the calling thread sends, a receiver thread
/// reads responses and stamps their completion into `samples` (indexed by
/// trace id).
class PipelinedClient {
 public:
  PipelinedClient(emx::net::Socket sock, std::vector<Sample>* samples)
      : sock_(std::move(sock)), samples_(samples) {
    receiver_ = std::thread(&PipelinedClient::ReceiveLoop, this);
  }
  ~PipelinedClient() {
    stop_.store(true);
    sock_.ShutdownBoth();
    receiver_.join();
  }
  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;

  emx::Status Send(int64_t id, const TextPair& pair) {
    emx::obs::TraceSpan span("pb.net.send", [&] {
      return emx::obs::KeyValues({{"op", id}});
    });
    emx::net::MatchRequest req;
    req.trace_id = static_cast<uint64_t>(id);
    req.text_a = pair.first;
    req.text_b = pair.second;
    frame_.clear();
    const Clock::time_point c0 = Clock::now();
    emx::net::EncodeRequest(req, &frame_);
    if (time_codec_) encode_ns_ += static_cast<double>((Clock::now() - c0).count());
    (*samples_)[static_cast<size_t>(id)].sent = Clock::now();
    return emx::net::SendAll(sock_.fd(), frame_.data(), frame_.size());
  }

  /// Blocks until fewer than `window` of the `sent` requests are
  /// outstanding.
  void WaitWindow(int64_t sent, int64_t window) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return sent - received_ < window || closed_; });
  }
  /// Blocks until `n` responses arrived; false on timeout or close.
  bool WaitReceived(int64_t n, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return received_ >= n || closed_; }) &&
           received_ >= n;
  }
  int64_t received() {
    std::lock_guard<std::mutex> lock(mu_);
    return received_;
  }
  /// Times wire encode + decode per frame from now on. Call from the
  /// sending thread.
  void TimeCodec() {
    std::lock_guard<std::mutex> lock(mu_);
    encode_ns_ = 0;
    decode_ns_ = 0;
    decoded_frames_ = 0;
    time_codec_ = true;
  }
  /// Mean EncodeRequest + DecodeResponse time per request (µs). Call from
  /// the sending thread.
  double CodecUsPerFrame() {
    std::lock_guard<std::mutex> lock(mu_);
    return decoded_frames_ == 0
               ? 0
               : (encode_ns_ + decode_ns_) / 1000.0 /
                     static_cast<double>(decoded_frames_);
  }

 private:
  void ReceiveLoop() {
    std::vector<char> buf(1 << 16);
    emx::net::FrameBuffer frames;
    while (!stop_.load()) {
      auto n = emx::net::RecvSome(sock_.fd(), buf.data(), buf.size(), 100);
      if (!n.ok()) {
        if (n.status().code() == emx::StatusCode::kDeadlineExceeded) continue;
        break;
      }
      if (n.value() == 0) break;
      frames.Append(buf.data(), n.value());
      for (;;) {
        std::string_view payload;
        bool complete = false;
        if (!frames.Next(&payload, &complete).ok()) {
          Close();
          return;
        }
        if (!complete) break;
        const Clock::time_point c0 = Clock::now();
        auto resp = emx::net::DecodeResponse(payload);
        const Clock::time_point done = Clock::now();
        if (!resp.ok() ||
            resp.value().trace_id >= static_cast<uint64_t>(samples_->size())) {
          Close();
          return;
        }
        emx::obs::TraceSpan span("pb.net.recv", [&] {
          return emx::obs::KeyValues(
              {{"op", static_cast<int64_t>(resp.value().trace_id)}});
        });
        Sample& s = (*samples_)[resp.value().trace_id];
        s.done = done;
        s.queue_us = resp.value().queue_us;
        s.infer_us = resp.value().infer_us;
        s.server_us = resp.value().server_us;
        s.probability = resp.value().probability;
        s.ok = resp.value().code == emx::StatusCode::kOk;
        s.received = true;
        std::lock_guard<std::mutex> lock(mu_);
        if (time_codec_) {
          decode_ns_ += static_cast<double>((done - c0).count());
          ++decoded_frames_;
        }
        ++received_;
        cv_.notify_all();
      }
    }
    Close();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  emx::net::Socket sock_;
  std::vector<Sample>* samples_;
  std::string frame_;   // sending thread only
  double encode_ns_ = 0;  // sending thread only
  std::atomic<bool> stop_{false};
  std::atomic<bool> time_codec_{false};
  std::mutex mu_;  // guards the fields below
  std::condition_variable cv_;
  int64_t received_ = 0;
  bool closed_ = false;
  double decode_ns_ = 0;
  int64_t decoded_frames_ = 0;
  std::thread receiver_;  // last: started after every member it uses
};

/// Everything one set-up builds; destroyed client-first, engine-last.
struct Stack {
  std::unique_ptr<emx::core::EntityMatcher> matcher;
  std::unique_ptr<emx::serve::MatcherEngine> engine;
  std::unique_ptr<emx::net::MatchServer> server;
  std::unique_ptr<PipelinedClient> client;
  double model_open_ms = 0;
};

/// Tokenizer load + mapped int8 EMXM + engine/server start + connect +
/// warm-up: the set-up a serving process pays before its first request.
emx::Status SetUp(const Artefacts& a, const std::vector<TextPair>& pairs,
                  std::vector<Sample>* samples, Stack* st) {
  EMX_ASSIGN_OR_RETURN(st->matcher, NewMatcher(a));
  const Clock::time_point t0 = Clock::now();
  EMX_RETURN_IF_ERROR(
      emx::quant::LoadModelFileMapped(st->matcher.get(), a.model_int8())
          .status());
  st->model_open_ms = MsBetween(t0, Clock::now());
  emx::serve::EngineOptions eo;
  eo.precision = emx::serve::Precision::kInt8;
  eo.num_workers = kEngineWorkers;
  eo.max_seq_len = st->matcher->eval_max_seq_len();
  eo.queue_capacity = 4 * kWindow + 4096;
  EMX_ASSIGN_OR_RETURN(st->engine, emx::serve::MatcherEngine::Create(
                                       st->matcher.get(), eo));
  st->server = std::make_unique<emx::net::MatchServer>(st->engine.get());
  EMX_RETURN_IF_ERROR(st->server->Start());
  EMX_ASSIGN_OR_RETURN(auto sock, emx::net::ConnectTcp(st->server->port()));
  st->client = std::make_unique<PipelinedClient>(std::move(sock), samples);
  for (int64_t i = 0; i < kWarmup; ++i) {
    EMX_RETURN_IF_ERROR(st->client->Send(i, pairs[static_cast<size_t>(i)]));
  }
  if (!st->client->WaitReceived(kWarmup, 60)) {
    return emx::Status::Unavailable("warm-up responses missing");
  }
  return emx::Status::OK();
}

struct Phase {
  int64_t first = 0;  // ids [first, end)
  int64_t end = 0;
  double seconds = 0;
};

/// Closed loop: keeps kWindow requests in flight for `seconds`.
emx::Status Saturate(Stack* st, const std::vector<TextPair>& pairs,
                     int64_t first, double seconds, Phase* phase) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  int64_t id = first;
  const int64_t already = st->client->received();
  while (Clock::now() < stop && id < static_cast<int64_t>(pairs.size())) {
    st->client->WaitWindow(id - first + already, kWindow);
    EMX_RETURN_IF_ERROR(st->client->Send(id, pairs[static_cast<size_t>(id)]));
    ++id;
  }
  if (!st->client->WaitReceived(already + (id - first), 60)) {
    return emx::Status::Unavailable("saturate responses missing");
  }
  *phase = {first, id, SecondsSince(t0)};
  return emx::Status::OK();
}

/// Open loop at kPacedRate for `seconds`; samples carry their due times.
emx::Status Paced(Stack* st, const std::vector<TextPair>& pairs,
                  std::vector<Sample>* samples, int64_t first, double seconds,
                  Phase* phase, double* max_lateness_ms) {
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const PacedSchedule schedule(t0, kPacedRate);
  const int64_t already = st->client->received();
  int64_t i = 0;
  *max_lateness_ms = 0;
  for (;; ++i) {
    const int64_t id = first + i;
    const Clock::time_point due = schedule.Due(i);
    if (SecondsSince(t0) >= seconds ||
        std::chrono::duration<double>(due - t0).count() >= seconds ||
        id >= static_cast<int64_t>(pairs.size())) {
      break;
    }
    std::this_thread::sleep_until(due);
    (*samples)[static_cast<size_t>(id)].due = due;
    EMX_RETURN_IF_ERROR(st->client->Send(id, pairs[static_cast<size_t>(id)]));
    *max_lateness_ms = std::max(
        *max_lateness_ms,
        schedule.LatenessMs(i, (*samples)[static_cast<size_t>(id)].sent));
  }
  if (!st->client->WaitReceived(already + i, 60)) {
    return emx::Status::Unavailable("paced responses missing");
  }
  *phase = {first, first + i, SecondsSince(t0)};
  return emx::Status::OK();
}

}  // namespace

void RunPairStream(const RunConfig& cfg, RunResult* out) {
  const Artefacts a(cfg.artefacts);
  const double round_seconds = cfg.seconds / kRounds;
  const double sat_seconds = round_seconds * kSaturateShare;
  const double paced_seconds = round_seconds * kPacedShare;
  const double bulk_seconds = round_seconds - sat_seconds - paced_seconds;
  const int64_t n_served =
      kWarmup +
      static_cast<int64_t>(kRounds * (kMaxSaturateRate * sat_seconds +
                                      kPacedRate * paced_seconds)) +
      1024;
  const std::vector<TextPair> pairs =
      MakeDistinctPairs(cfg.seed, n_served + kBulkPairs);
  std::vector<Sample> samples(pairs.size());
  // peak_rss_mb is the program's rise over the inputs the harness holds.
  const double rss_inputs_mb = RssMb();

  // Set-up rounds. The last set-up of the first round serves the run;
  // every other stack is torn down (client first) as soon as it is up.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, open_ms;
  auto setup_round = [&](bool keep) {
    for (int r = 0; r < kSetupsPerRound; ++r) {
      auto fresh = std::make_unique<Stack>();
      const Clock::time_point t0 = Clock::now();
      const emx::Status s = SetUp(a, pairs, &samples, fresh.get());
      if (!s.ok()) {
        out->Fail("set-up failed: " + s.ToString());
        return false;
      }
      setup_s.push_back(SecondsSince(t0));
      open_ms.push_back(fresh->model_open_ms);
      if (keep && r == kSetupsPerRound - 1) stack = std::move(fresh);
    }
    return true;
  };
  if (!setup_round(/*keep=*/true)) return;
  Stack& st = *stack;

  // Timed rounds. The traced run traces the second half of the rounds;
  // its saturate rate over the first half's is the tracing overhead.
  std::vector<std::string> bulk_a, bulk_b;
  for (int64_t id = n_served; id < n_served + kBulkPairs; ++id) {
    bulk_a.push_back(pairs[static_cast<size_t>(id)].first);
    bulk_b.push_back(pairs[static_cast<size_t>(id)].second);
  }
  const std::vector<std::vector<std::string>> slices_a =
      BulkSlices(bulk_a, kBulkSlice);
  const std::vector<std::vector<std::string>> slices_b =
      BulkSlices(bulk_b, kBulkSlice);
  std::vector<Phase> paceds;
  std::vector<double> lat_ms;
  double bulk_pairs = 0, bulk_s = 0;
  double lateness_ms = 0, sat_n[2] = {0, 0}, sat_s[2] = {0, 0};
  int64_t next = kWarmup;
  size_t bulk_pass = 0;
  for (int r = 0; r < kRounds; ++r) {
    const bool traced = cfg.trace && r >= kRounds / 2;
    if (traced && r == kRounds / 2) {
      emx::obs::StartProfiling(TraceOptions());
      st.client->TimeCodec();
    }
    Phase sat, paced;
    double late = 0;
    emx::Status s = Saturate(&st, pairs, next, sat_seconds, &sat);
    if (s.ok()) {
      s = Paced(&st, pairs, &samples, sat.end, paced_seconds, &paced, &late);
    }
    if (!s.ok()) {
      out->Fail(s.ToString());
      emx::obs::StopProfiling();
      return;
    }
    next = paced.end;
    lateness_ms = std::max(lateness_ms, late);
    paceds.push_back(paced);
    sat_n[traced] += static_cast<double>(sat.end - sat.first);
    sat_s[traced] += sat.seconds;
    if (traced) continue;
    // Untraced figures: paced latencies from the due time, and bulk
    // passes.
    for (int64_t id = paced.first; id < paced.end; ++id) {
      const Sample& x = samples[static_cast<size_t>(id)];
      if (x.received && x.ok) lat_ms.push_back(MsBetween(x.due, x.done));
    }
    const Clock::time_point bulk_t0 = Clock::now();
    for (int pass = 0; pass < kMinBulkPasses ||
                       SecondsSince(bulk_t0) < bulk_seconds;
         ++pass, ++bulk_pass) {
      const size_t k = bulk_pass % slices_a.size();
      emx::obs::TraceSpan bulk_span("pb.core.match_probabilities");
      const Clock::time_point t0 = Clock::now();
      (void)st.matcher->MatchProbabilities(slices_a[k], slices_b[k]);
      bulk_s += SecondsSince(t0);
      bulk_pairs += static_cast<double>(slices_a[k].size());
    }
  }
  out->Set("peak_rss_mb", PeakRssMb() - rss_inputs_mb);
  out->Diag("rss.inputs_mb", rss_inputs_mb);
  const int64_t measured_first = kWarmup;
  const int64_t measured_end = next;

  // Outcomes and failures.
  int64_t failed = 0;
  for (int64_t id = measured_first; id < measured_end; ++id) {
    const Sample& x = samples[static_cast<size_t>(id)];
    if (!x.received || !x.ok) ++failed;
  }
  out->attempted = measured_end - measured_first;
  out->failed = failed;

  const double tail_q = TailQuantile(static_cast<int64_t>(lat_ms.size()));
  out->Set("ops_per_s", sat_s[0] > 0 ? sat_n[0] / sat_s[0] : 0);
  out->Set("p50_ms",
           QuietChunkMedian(lat_ms, static_cast<int64_t>(lat_ms.size()) /
                                        kPacedChunk));
  out->Diag("paced.p50_ms", Percentile(lat_ms, 0.5));
  out->Diag("tail_ms", Percentile(lat_ms, tail_q));
  out->Diag("paced.rate_per_s", kPacedRate);
  out->Diag("paced.samples", static_cast<double>(lat_ms.size()));
  out->Diag("paced.tail_quantile", tail_q);
  out->Diag("paced.max_lateness_ms", lateness_ms);
  out->Diag("saturate.window", static_cast<double>(kWindow));
  out->Set("eval_pairs_per_s", bulk_s > 0 ? bulk_pairs / bulk_s : 0);
  out->Diag("bulk.passes", static_cast<double>(bulk_pass));

  if (cfg.trace) {
    out->Set("trace.overhead_ratio",
             sat_s[1] > 0 && sat_n[0] > 0
                 ? (sat_n[1] / sat_s[1]) / (sat_n[0] / sat_s[0])
                 : 0);
    // Blocking-path breakdown of each traced paced request: wire (client
    // latency minus server time), server (decode, submit-side tokenize,
    // completion, encode), engine queue and batch.
    std::vector<double> wire, queue;
    double server_sum = 0, batch_sum = 0, parts = 0, whole = 0;
    for (size_t r = kRounds / 2; r < paceds.size(); ++r) {
      for (int64_t id = paceds[r].first; id < paceds[r].end; ++id) {
        const Sample& x = samples[static_cast<size_t>(id)];
        if (!x.received || !x.ok) continue;
        const double client_ms = MsBetween(x.sent, x.done);
        wire.push_back(client_ms - x.server_us / 1000.0);
        queue.push_back(x.queue_us / 1000.0);
        server_sum += (x.server_us - x.infer_us) / 1000.0;
        batch_sum += (x.infer_us - x.queue_us) / 1000.0;
        parts += client_ms;  // wire + server + queue + batch
        whole += MsBetween(x.due, x.done);
      }
    }
    const double n = std::max<double>(1, static_cast<double>(wire.size()));
    out->Set("net.wire_p50_ms", Percentile(wire, 0.5));
    out->Set("net.wire_p99_ms", Percentile(wire, 0.99));
    out->Set("net.server_ms", server_sum / n);
    out->Set("net.codec_us", st.client->CodecUsPerFrame());
    out->Set("serve.queue_p50_ms", Percentile(queue, 0.5));
    out->Set("serve.queue_p99_ms", Percentile(queue, 0.99));
    out->Set("serve.batch_ms", batch_sum / n);
    // Coverage against latency from the due time: the gap is generator
    // lateness, which no layer owns.
    out->Set("trace.coverage", whole > 0 ? parts / whole : 0);
  }

  // Quiescent: every counter must balance.
  const emx::serve::MetricsSnapshot m = st.engine->Metrics();
  if (m.submitted != m.completed + m.rejected + m.timed_out) {
    out->Fail("engine counters do not balance: submitted " +
              std::to_string(m.submitted) + " != completed " +
              std::to_string(m.completed) + " + rejected " +
              std::to_string(m.rejected) + " + timed_out " +
              std::to_string(m.timed_out));
  }
  emx::obs::MetricsRegistry* reg = st.server->registry();
  const int64_t requests = reg->GetCounter("net.requests")->Value();
  const int64_t responses = reg->GetCounter("net.responses")->Value();
  if (requests != responses || requests != measured_end) {
    out->Fail("server counters do not balance: requests " +
              std::to_string(requests) + ", responses " +
              std::to_string(responses) + ", sent " +
              std::to_string(measured_end));
  }
  out->Set("serve.batch_size_mean", m.mean_batch_size);
  out->Set("serve.token_cache_hit_rate", m.cache_hit_rate);
  out->Set("serve.prefix_hit_rate", m.prefix_hit_rate);
  out->Set("serve.prefix_evictions", static_cast<double>(m.prefix_evictions));
  out->Set("serve.prefix_mb", static_cast<double>(m.prefix_bytes) / 1048576.0);

  if (!setup_round(/*keep=*/false)) return;

  // Correctness: sampled responses must equal the bulk int8 path bit for
  // bit.
  std::vector<int64_t> check_ids;
  const int64_t span = measured_end - measured_first;
  for (int64_t k = 0; k < kCheckSamples && k < span; ++k) {
    check_ids.push_back(measured_first + k * span / kCheckSamples);
  }
  std::vector<std::string> as, bs;
  for (int64_t id : check_ids) {
    as.push_back(pairs[static_cast<size_t>(id)].first);
    bs.push_back(pairs[static_cast<size_t>(id)].second);
  }
  const std::vector<double> reference = st.matcher->MatchProbabilities(as, bs);
  int64_t mismatches = 0;
  for (size_t k = 0; k < check_ids.size(); ++k) {
    const Sample& x = samples[static_cast<size_t>(check_ids[k])];
    if (!x.ok || x.probability != reference[k]) ++mismatches;
  }
  out->Diag("check.samples", static_cast<double>(check_ids.size()));
  out->Diag("check.mismatches", static_cast<double>(mismatches));
  if (mismatches > 0) {
    out->Fail(std::to_string(mismatches) + " of " +
              std::to_string(check_ids.size()) +
              " sampled responses differ from MatchProbabilities (int8)");
  }

  if (!setup_round(/*keep=*/false)) return;
  out->Set("setup_s", Median(setup_s));
  out->Set("io.model_open_ms", Median(open_ms));

  if (cfg.trace) {
    // Probes at the run's shapes: the mean micro-batch and the length
    // bucket of the median pair.
    std::vector<TextPair> sample(pairs.begin() + paceds.back().first,
                                 pairs.begin() + std::min<int64_t>(
                                                     paceds.back().end,
                                                     paceds.back().first + 256));
    std::vector<double> lens;
    for (const TextPair& p : sample) {
      const auto enc = st.matcher->tokenizer().EncodePair(
          p.first, p.second, st.engine->options().max_seq_len);
      double real = 0;
      for (float pad : enc.attention_mask) real += pad == 0 ? 1 : 0;
      lens.push_back(real);
    }
    const int64_t width = st.engine->options().bucket_width;
    ProbeShape shape;
    shape.batch = std::clamp<int64_t>(std::llround(m.mean_batch_size), 1,
                                      st.engine->options().max_batch_size);
    shape.seq = std::min<int64_t>(
        st.engine->options().max_seq_len,
        width * static_cast<int64_t>(std::ceil(Median(lens) / width)));
    out->Diag("probe.batch", static_cast<double>(shape.batch));
    out->Diag("probe.seq", static_cast<double>(shape.seq));
    ProbeLayers(st.matcher.get(), sample, shape, /*int8=*/true, out);
    emx::obs::StopProfiling();
  }
}

}  // namespace perfbench
