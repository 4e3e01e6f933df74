#ifndef EMX_SERVE_MATCHER_ENGINE_H_
#define EMX_SERVE_MATCHER_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/entity_matcher.h"
#include "serve/lru_cache.h"
#include "serve/serving_metrics.h"
#include "util/rng.h"
#include "util/status.h"

namespace emx {
namespace serve {

/// Numeric precision of the engine's grad-free forwards.
enum class Precision {
  /// The plain fp32 path. Any attached int8 backends are bypassed.
  kFp32,
  /// int8 backends (attached by quant::QuantizeMatcher or
  /// quant::LoadModelFileMapped) serve every quantized layer. Requires a
  /// quantized matcher.
  kInt8,
};

/// Tuning knobs for the serving engine.
struct EngineOptions {
  /// Flush a micro-batch as soon as this many same-bucket requests are
  /// queued...
  int64_t max_batch_size = 16;
  /// ...or as soon as the oldest queued request has waited this long.
  int64_t max_wait_us = 2000;
  /// Submissions beyond this bound are rejected with ResourceExhausted.
  int64_t queue_capacity = 1024;
  /// Token budget per pair (requests are truncated/padded like the
  /// training path).
  int64_t max_seq_len = 48;
  /// Length-bucket granularity in tokens: a request of real length L lands
  /// in bucket ceil(L / bucket_width) and is only batched with requests of
  /// the same bucket, padded to the bucket top instead of max_seq_len.
  int64_t bucket_width = 16;
  /// Tokenization LRU capacity in entities: each side of a request is
  /// tokenized once per distinct text and shared by every pair it appears
  /// in. <= 0 disables the cache.
  int64_t cache_capacity = 4096;
  /// Deadline applied to Submit calls that don't carry their own;
  /// 0 = no deadline.
  int64_t default_timeout_us = 0;
  /// Batch workers running concurrent grad-free forwards. A NoGradGuard
  /// forward only *reads* the shared parameter nodes (no tape, no gradient
  /// buffers), so multiple workers are race-free; on a multi-core host this
  /// overlaps batches the kernels are too small to parallelize internally.
  int64_t num_workers = 1;
  /// Construct with the batching worker paused (tests / drain control);
  /// call Resume() to start serving.
  bool start_paused = false;
  /// Forward precision. kInt8 requires the matcher to carry ready int8
  /// backends (see quant::QuantizeMatcher); construction aborts otherwise
  /// rather than silently serving fp32.
  Precision precision = Precision::kFp32;
  /// Split-encoder prefix caching. -1 (default) disables it: every request
  /// runs the full cross-encoder exactly as before. k >= 0 runs encoder
  /// layers [0, k) per *entity* with segment-local attention, caches the
  /// layer-k activations per entity text, and runs only layers [k, L) on
  /// the concatenated pair. k = 0 caches the embedding layer and is
  /// bit-identical to the full path; larger k trades accuracy for speed
  /// (gated like quant — see bench_prefix_cache). Requires a backbone with
  /// SupportsSplitEncode() (BERT/RoBERTa/DistilBERT; not XLNet) and
  /// k < num_layers so at least one cross-attention layer remains.
  int64_t split_layer = -1;
  /// Byte budget for the activation (prefix) cache; <= 0 disables caching
  /// (the split path still runs, recomputing prefixes every time).
  int64_t activation_cache_bytes = 64ll << 20;
};

/// The split depth serving defaults to when a caller opts into prefix
/// caching without choosing a layer: half the stack, the deepest point the
/// ΔF1 ladder in bench_prefix_cache gates at |ΔF1| <= 0.1 pt.
int64_t DefaultSplitLayer(int64_t num_layers);

/// Checks every EngineOptions field at construction time: non-positive
/// queue capacity, worker count, batch size, wait, bucket width or seq-len
/// budget, and negative cache capacity or default deadline all come back
/// as InvalidArgument naming the offending field — instead of a worker
/// that spins, a queue that rejects everything, or a divide-by-zero deep
/// in the batcher at runtime.
Status ValidateEngineOptions(const EngineOptions& options);

/// Outcome of one serving request.
struct MatchResult {
  /// OK, DeadlineExceeded (deadline passed while queued), ResourceExhausted
  /// (queue full at submit) or Unavailable (engine shut down).
  Status status;
  double probability = 0;
  bool is_match = false;
  /// Time from submit to micro-batch formation, µs.
  double queue_us = 0;
  /// Time from submit to completion, µs.
  double total_us = 0;
  /// Size of the micro-batch this request was served in.
  int64_t batch_size = 0;
  /// Whether every entity tokenization this request needed came from the
  /// LRU cache (both sides for Submit; the candidate for SubmitAgainst,
  /// whose query was tokenized by PinQuery).
  bool cache_hit = false;
  /// Split path only: whether each side's layer-k prefix came from the
  /// activation cache (false on the pair path).
  bool prefix_hit_query = false;
  bool prefix_hit_candidate = false;
  /// Which model version served this request (1 = the construction-time
  /// model; incremented by every SwapModel). 0 on requests rejected or
  /// expired before reaching a model.
  uint64_t model_version = 0;
};

/// A query entity pinned for 1-vs-N re-ranking: the text is tokenized once
/// at PinQuery time and, with split caching on, its layer-k prefix is
/// encoded once per distinct truncation length, instead of once per
/// SubmitAgainst. Cheap to copy (shared state); valid for the lifetime of
/// the engine that minted it.
class PinnedQuery {
 public:
  PinnedQuery() = default;
  bool valid() const { return state_ != nullptr; }
  const std::string& text() const;

 private:
  friend class MatcherEngine;
  struct State {
    std::string text;
    std::vector<int64_t> ids;  // raw entity tokens, untruncated
  };
  std::shared_ptr<const State> state_;
};

/// Batched, grad-free inference serving for a fine-tuned (or
/// checkpoint-loaded) EntityMatcher.
///
/// Pipeline: Submit() tokenizes each entity on the caller thread through
/// the entity LRU cache, truncates the pair longest-first, (split path)
/// resolves both layer-k prefixes through the activation cache, then
/// length-buckets the request and enqueues it (bounded). A batching worker
/// groups the oldest request with its bucket peers, flushes on batch-size
/// or max-wait, runs one NoGradGuard forward per micro-batch padded only to
/// the bucket top, and fulfills the per-request futures.
/// Metrics (throughput, latency percentiles, queue depth, batch-size
/// histogram, cache hit rate) are snapshotable as JSON at any time.
///
/// All model access happens on the engine's worker threads and is read-only
/// (grad-free forwards never touch gradient buffers or tapes); the wrapped
/// matcher must not be trained, loaded into, or otherwise *mutated* while
/// the engine is live. Submit() is thread-safe and non-blocking.
class MatcherEngine {
 public:
  /// `matcher` must outlive the engine (typically fine-tuned first, or
  /// populated via EntityMatcher::Load from a checkpoint).
  explicit MatcherEngine(core::EntityMatcher* matcher,
                         const EngineOptions& options = {});
  ~MatcherEngine();

  /// Validating factory: returns InvalidArgument (see
  /// ValidateEngineOptions) instead of aborting on bad options, for
  /// callers wiring engines from config files or network input. The plain
  /// constructor EMX_CHECKs the same conditions.
  static Result<std::unique_ptr<MatcherEngine>> Create(
      core::EntityMatcher* matcher, const EngineOptions& options = {});

  MatcherEngine(const MatcherEngine&) = delete;
  MatcherEngine& operator=(const MatcherEngine&) = delete;

  /// Enqueues a pair with the default deadline; the future resolves when
  /// the request is served, times out, or is rejected (check `status`).
  std::future<MatchResult> Submit(std::string text_a, std::string text_b);
  /// Enqueues with an explicit deadline (µs from now; 0 = none).
  std::future<MatchResult> Submit(std::string text_a, std::string text_b,
                                  int64_t timeout_us);

  /// Convenience: Submit + wait.
  MatchResult Match(std::string text_a, std::string text_b);

  /// Tokenizes `text` once (through the entity cache) for use as the query
  /// side of many SubmitAgainst calls, with split caching on or off.
  PinnedQuery PinQuery(std::string text);

  /// Enqueues (query, candidate) reusing the pinned query's tokenization
  /// and cached layer-k prefix. `query` must come from this engine's
  /// PinQuery.
  std::future<MatchResult> SubmitAgainst(const PinnedQuery& query,
                                         std::string candidate);
  std::future<MatchResult> SubmitAgainst(const PinnedQuery& query,
                                         std::string candidate,
                                         int64_t timeout_us);

  /// Pre-encodes the candidate-side layer-k prefix for `text`, assuming the
  /// query side will occupy `query_segment_len` tokens (CLS + query + SEP).
  /// Used to warm hot catalog entries at ingest; a no-op when split caching
  /// is disabled. Returns true when the prefix is resident afterwards.
  /// Requests whose actual query length differs still miss — warming is a
  /// best-effort latency optimization, never a correctness dependency.
  bool WarmCandidate(std::string_view text, int64_t query_segment_len);

  /// Atomically publishes `next` as the serving model. The swap is a
  /// single shared_ptr store: requests submitted afterwards run on `next`,
  /// while requests already queued or mid-batch finish on the version that
  /// was current when they were submitted (each request snapshots its
  /// model, so nothing is dropped, re-run, or mixed across versions within
  /// a batch) — the old model and any mmap it serves from are released
  /// when the last such request completes. The prefix (activation) cache
  /// is cleared, since cached layer-k activations belong to the old
  /// weights; prefix keys are also version-tagged, so even a checked-out
  /// stale entry can never satisfy a new-version lookup.
  ///
  /// `next` must match the engine's configuration — same architecture,
  /// hidden size and layer count as the current model, int8 backends when
  /// the engine serves kInt8, split support when split_layer is set — and
  /// must tokenize identically to the construction-time matcher (the
  /// entity token cache is keyed on raw text and survives the swap).
  /// Returns InvalidArgument and keeps serving the old model otherwise.
  Status SwapModel(std::shared_ptr<core::EntityMatcher> next);

  /// The version new submissions are served by (1 until the first swap).
  uint64_t model_version() const;

  /// Stops/starts micro-batch formation; queued requests are held (their
  /// deadlines are only evaluated while running).
  void Pause();
  void Resume();

  /// Drains the queue (without waiting out max_wait) and stops the worker.
  /// Subsequent Submit calls fail with Unavailable. Idempotent; also run
  /// by the destructor.
  void Shutdown();

  MetricsSnapshot Metrics() const;
  std::string MetricsJson() const;

  int64_t queue_depth() const;
  const LruCache<Tensor>& prefix_cache() const { return prefix_cache_; }
  const EngineOptions& options() const { return options_; }
  /// Whether this engine serves through the split-encoder prefix path.
  bool split_enabled() const { return options_.split_layer >= 0; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One published model. The initial version wraps the constructor's raw
  /// pointer with a no-op deleter (the caller owns it, per the constructor
  /// contract); swapped-in versions own their matcher outright.
  struct VersionedModel {
    std::shared_ptr<core::EntityMatcher> matcher;
    uint64_t version = 1;
  };

  struct Request {
    std::promise<MatchResult> promise;
    /// Both entities' tokens after longest-first truncation (no specials).
    std::vector<int64_t> a;
    std::vector<int64_t> b;
    /// Real token count of [CLS] a [SEP] b [SEP].
    int64_t length() const {
      return static_cast<int64_t>(a.size() + b.size()) + 3;
    }
    // Split path only: per-entity layer-k prefixes ([1, a.size() + 2, H]
    // and [1, b.size() + 1, H], shared with the activation cache so
    // eviction cannot invalidate them).
    std::shared_ptr<const Tensor> prefix_q;
    std::shared_ptr<const Tensor> prefix_c;
    bool prefix_hit_q = false;
    bool prefix_hit_c = false;
    bool cache_hit = false;
    int64_t bucket = 0;
    /// The model snapshot this request runs on, taken at submit time. The
    /// version is folded into `bucket`, so a micro-batch never mixes
    /// models, and the shared_ptr keeps an already-swapped-out model (and
    /// its mmap) alive until the request completes.
    std::shared_ptr<const VersionedModel> model;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // Clock::time_point::max() when none
  };

  void WorkerLoop(uint64_t worker_id);
  /// Completes every queued request whose deadline has passed. Caller holds
  /// `mu_`; promises are fulfilled after collecting, outside the queue scan.
  void ExpireQueuedLocked(Clock::time_point now);
  /// Takes the queue lock and either enqueues the prepared request or
  /// fulfills its promise with Unavailable / ResourceExhausted.
  void EnqueueOrReject(Request req);
  bool ShutdownSeen() const;
  /// Runs one micro-batch (no lock held): bucket-padded input, grad-free
  /// forward, promise fulfillment. The input is the token batch, or on the
  /// split path the concatenated prefixes entering layer split_layer.
  void RunBatch(std::vector<Request> batch, Rng* rng);

  /// The body of Submit and SubmitAgainst: tokenizes `text_a` (unless
  /// `pinned_a` carries its tokens) and `text_b`, truncates the pair,
  /// snapshots the model, resolves both prefixes on the split path
  /// (encoding misses on the caller thread), buckets and enqueues.
  std::future<MatchResult> SubmitPair(std::string_view text_a,
                                      const std::vector<int64_t>* pinned_a,
                                      std::string_view text_b,
                                      int64_t timeout_us);
  /// One entity's tokens through the entity cache.
  std::shared_ptr<const std::vector<int64_t>> Tokens(std::string_view text,
                                                     bool* hit);
  /// Returns the layer-k prefix for one entity segment under `model`,
  /// consulting the activation cache (keys are version-tagged) and
  /// encoding on miss. `ids` are the truncated raw entity tokens (no
  /// specials).
  std::shared_ptr<const Tensor> PrefixFor(const VersionedModel& model,
                                          std::string_view text,
                                          const std::vector<int64_t>& ids,
                                          bool query_side,
                                          int64_t position_offset, bool* hit);
  /// The model new submissions snapshot.
  std::shared_ptr<const VersionedModel> CurrentModel() const {
    return model_.load(std::memory_order_acquire);
  }

  /// The construction-time matcher. Tokenization (tokens_) stays bound to
  /// its tokenizer across swaps; forwards go through the per-request model
  /// snapshot instead.
  core::EntityMatcher* matcher_;
  std::atomic<std::shared_ptr<const VersionedModel>> model_;
  /// Serializes SwapModel callers (the version bump is read-modify-write).
  std::mutex swap_mu_;
  const EngineOptions options_;
  ServingMetrics metrics_;
  LruCache<std::vector<int64_t>> tokens_;
  LruCache<Tensor> prefix_cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Request> queue_;
  bool paused_ = false;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace emx

#endif  // EMX_SERVE_MATCHER_ENGINE_H_
