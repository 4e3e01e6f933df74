#include "serve/matcher_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "models/config.h"
#include "nn/layers.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"
#include "tokenizers/tokenizer.h"
#include "util/logging.h"

namespace emx {
namespace serve {
namespace {

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Length buckets occupy the low bits of Request::bucket; the model
/// version is folded into the high bits so a micro-batch (formed by exact
/// bucket equality) can never span a hot swap.
constexpr int64_t kVersionBucketStride = 1ll << 32;

/// True when any quant target of the model carries a frozen int8 backend
/// (checked via the nn hooks only, so serve stays independent of emx_quant).
bool HasReadyInt8Backends(core::EntityMatcher* matcher) {
  nn::QuantTargets targets;
  matcher->classifier()->CollectQuantTargets("", &targets);
  for (auto& [name, linear] : targets.linears) {
    if (linear->backend() != nullptr && linear->backend()->ready()) {
      return true;
    }
  }
  for (auto& [name, ffn] : targets.ffns) {
    if (ffn->backend() != nullptr && ffn->backend()->ready()) return true;
  }
  return false;
}

}  // namespace

int64_t DefaultSplitLayer(int64_t num_layers) { return num_layers / 2; }

const std::string& PinnedQuery::text() const {
  EMX_CHECK(state_ != nullptr) << "PinnedQuery is empty (default-constructed "
                                  "instead of minted by PinQuery)";
  return state_->text;
}

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.max_batch_size <= 0) {
    return Status::InvalidArgument("max_batch_size must be positive, got " +
                                   std::to_string(options.max_batch_size));
  }
  if (options.max_wait_us <= 0) {
    return Status::InvalidArgument("max_wait_us must be positive, got " +
                                   std::to_string(options.max_wait_us));
  }
  if (options.queue_capacity <= 0) {
    return Status::InvalidArgument("queue_capacity must be positive, got " +
                                   std::to_string(options.queue_capacity));
  }
  if (options.max_seq_len <= 0) {
    return Status::InvalidArgument("max_seq_len must be positive, got " +
                                   std::to_string(options.max_seq_len));
  }
  if (options.bucket_width <= 0) {
    return Status::InvalidArgument("bucket_width must be positive, got " +
                                   std::to_string(options.bucket_width));
  }
  if (options.cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must not be negative, "
                                   "got " +
                                   std::to_string(options.cache_capacity));
  }
  if (options.default_timeout_us < 0) {
    return Status::InvalidArgument(
        "default_timeout_us must not be negative, got " +
        std::to_string(options.default_timeout_us));
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive, got " +
                                   std::to_string(options.num_workers));
  }
  if (options.split_layer < -1) {
    return Status::InvalidArgument(
        "split_layer must be -1 (disabled) or >= 0, got " +
        std::to_string(options.split_layer));
  }
  if (options.split_layer >= 0 && options.max_seq_len < 4) {
    return Status::InvalidArgument(
        "split encoding needs max_seq_len >= 4 ([CLS] a [SEP] b [SEP])");
  }
  return Status::OK();
}

Result<std::unique_ptr<MatcherEngine>> MatcherEngine::Create(
    core::EntityMatcher* matcher, const EngineOptions& options) {
  if (matcher == nullptr) {
    return Status::InvalidArgument("matcher must not be null");
  }
  EMX_RETURN_IF_ERROR(ValidateEngineOptions(options));
  if (options.precision == Precision::kInt8 &&
      !HasReadyInt8Backends(matcher)) {
    return Status::InvalidArgument(
        "precision = kInt8 but the matcher has no frozen int8 backends; "
        "run quant::QuantizeMatcher (or quant::LoadModelFileMapped) first");
  }
  if (options.split_layer >= 0) {
    models::TransformerModel* backbone = matcher->classifier()->backbone();
    if (!backbone->SupportsSplitEncode()) {
      return Status::InvalidArgument(
          std::string("split_layer set but the ") +
          models::ArchitectureName(backbone->config().arch) +
          " backbone does not support split encoding");
    }
    if (options.split_layer >= backbone->config().num_layers) {
      return Status::InvalidArgument(
          "split_layer must leave at least one cross-attention layer: got " +
          std::to_string(options.split_layer) + " with " +
          std::to_string(backbone->config().num_layers) + " layers");
    }
  }
  return std::make_unique<MatcherEngine>(matcher, options);
}

MatcherEngine::MatcherEngine(core::EntityMatcher* matcher,
                             const EngineOptions& options)
    : matcher_(matcher),
      options_(options),
      metrics_(options.max_batch_size),
      tokens_(options.cache_capacity, Budget::kEntries,
              /*evictions=*/nullptr,
              metrics_.registry()->GetGauge("serve.token_cache.bytes")),
      prefix_cache_(
          options.activation_cache_bytes, Budget::kBytes,
          metrics_.registry()->GetCounter("serve.prefix_cache.evictions"),
          metrics_.registry()->GetGauge("serve.prefix_cache.bytes")),
      paused_(options.start_paused) {
  EMX_CHECK(matcher != nullptr);
  {
    const Status valid = ValidateEngineOptions(options_);
    EMX_CHECK(valid.ok()) << valid.ToString()
                          << " (use MatcherEngine::Create for a "
                             "non-aborting Status)";
  }
  if (options_.precision == Precision::kInt8) {
    EMX_CHECK(HasReadyInt8Backends(matcher))
        << "EngineOptions::precision = kInt8 but the matcher has no frozen "
           "int8 backends; run quant::QuantizeMatcher (or "
           "quant::LoadModelFileMapped) before constructing the engine";
  }
  if (options_.split_layer >= 0) {
    models::TransformerModel* backbone = matcher->classifier()->backbone();
    EMX_CHECK(backbone->SupportsSplitEncode())
        << models::ArchitectureName(backbone->config().arch)
        << " does not support split encoding (EngineOptions::split_layer)";
    EMX_CHECK_LT(options_.split_layer, backbone->config().num_layers)
        << "split_layer must leave at least one cross-attention layer";
  }
  // Version 1: the caller-owned matcher behind a no-op deleter, so the
  // initial model flows through the same snapshot path as swapped ones.
  model_.store(std::make_shared<const VersionedModel>(VersionedModel{
                   std::shared_ptr<core::EntityMatcher>(
                       matcher, [](core::EntityMatcher*) {}),
                   1}),
               std::memory_order_release);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back(&MatcherEngine::WorkerLoop, this,
                          static_cast<uint64_t>(w));
  }
}

MatcherEngine::~MatcherEngine() { Shutdown(); }

std::future<MatchResult> MatcherEngine::Submit(std::string text_a,
                                               std::string text_b) {
  return Submit(std::move(text_a), std::move(text_b),
                options_.default_timeout_us);
}

std::future<MatchResult> MatcherEngine::Submit(std::string text_a,
                                               std::string text_b,
                                               int64_t timeout_us) {
  return SubmitPair(text_a, nullptr, text_b, timeout_us);
}

std::shared_ptr<const std::vector<int64_t>> MatcherEngine::Tokens(
    std::string_view text, bool* hit) {
  return tokens_.GetOrCompute(
      text, [&] { return matcher_->tokenizer().Encode(text); }, hit);
}

std::future<MatchResult> MatcherEngine::SubmitPair(
    std::string_view text_a, const std::vector<int64_t>* pinned_a,
    std::string_view text_b, int64_t timeout_us) {
  Request req;
  req.enqueued = Clock::now();
  req.deadline = timeout_us > 0
                     ? req.enqueued + std::chrono::microseconds(timeout_us)
                     : Clock::time_point::max();
  std::future<MatchResult> fut = req.promise.get_future();

  if (ShutdownSeen()) {
    // Fail fast before paying for tokenization / prefix encoding.
    MatchResult r;
    r.status = Status::Unavailable("engine is shut down");
    req.promise.set_value(std::move(r));
    return fut;
  }

  {
    EMX_TRACE_SPAN("serve.tokenize");
    bool hit_a = true;
    bool hit_b = false;
    req.a = pinned_a != nullptr ? *pinned_a : *Tokens(text_a, &hit_a);
    req.b = *Tokens(text_b, &hit_b);
    req.cache_hit = hit_a && hit_b;
  }
  metrics_.RecordCacheLookup(req.cache_hit);
  // Longest-first truncation over the raw entity tokens, then (pair path,
  // in RunBatch) Tokenizer::AssemblePair: the two steps EncodePair runs
  // after tokenizing, so both paths see EncodePair's exact layout.
  tokenizers::TruncatePair(&req.a, &req.b, options_.max_seq_len - 3);

  // One snapshot covers both prefixes and the upper-layer forward, so a
  // swap landing mid-submit cannot feed version-N prefixes into version-
  // N+1 cross-attention layers.
  req.model = CurrentModel();
  if (split_enabled()) {
    req.prefix_q = PrefixFor(*req.model, text_a, req.a, /*query_side=*/true,
                             /*position_offset=*/0, &req.prefix_hit_q);
    req.prefix_c = PrefixFor(
        *req.model, text_b, req.b, /*query_side=*/false,
        /*position_offset=*/static_cast<int64_t>(req.a.size()) + 2,
        &req.prefix_hit_c);
  }
  req.bucket =
      std::max<int64_t>(1, (req.length() + options_.bucket_width - 1) /
                               options_.bucket_width) +
      static_cast<int64_t>(req.model->version) * kVersionBucketStride;
  EnqueueOrReject(std::move(req));
  return fut;
}

bool MatcherEngine::ShutdownSeen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void MatcherEngine::EnqueueOrReject(Request req) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    MatchResult r;
    r.status = Status::Unavailable("engine is shut down");
    r.cache_hit = req.cache_hit;
    r.prefix_hit_query = req.prefix_hit_q;
    r.prefix_hit_candidate = req.prefix_hit_c;
    req.promise.set_value(std::move(r));
  } else if (static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
    metrics_.RecordRejected();
    MatchResult r;
    r.status = Status::ResourceExhausted("request queue is full");
    r.cache_hit = req.cache_hit;
    r.prefix_hit_query = req.prefix_hit_q;
    r.prefix_hit_candidate = req.prefix_hit_c;
    req.promise.set_value(std::move(r));
  } else {
    queue_.push_back(std::move(req));
    metrics_.RecordSubmitted(static_cast<int64_t>(queue_.size()));
    obs::TraceCounterValue("serve.queue_depth",
                           static_cast<double>(queue_.size()));
    work_cv_.notify_all();
  }
}

MatchResult MatcherEngine::Match(std::string text_a, std::string text_b) {
  return Submit(std::move(text_a), std::move(text_b)).get();
}

PinnedQuery MatcherEngine::PinQuery(std::string text) {
  auto state = std::make_shared<PinnedQuery::State>();
  state->text = std::move(text);
  {
    EMX_TRACE_SPAN("serve.tokenize");
    state->ids = *Tokens(state->text, nullptr);
  }
  PinnedQuery pinned;
  pinned.state_ = std::move(state);
  return pinned;
}

std::future<MatchResult> MatcherEngine::SubmitAgainst(const PinnedQuery& query,
                                                      std::string candidate) {
  return SubmitAgainst(query, std::move(candidate),
                       options_.default_timeout_us);
}

std::future<MatchResult> MatcherEngine::SubmitAgainst(const PinnedQuery& query,
                                                      std::string candidate,
                                                      int64_t timeout_us) {
  EMX_CHECK(query.valid()) << "SubmitAgainst needs a PinnedQuery from "
                              "PinQuery, not a default-constructed one";
  return SubmitPair(query.state_->text, &query.state_->ids, candidate,
                    timeout_us);
}

std::shared_ptr<const Tensor> MatcherEngine::PrefixFor(
    const VersionedModel& model, std::string_view text,
    const std::vector<int64_t>& ids, bool query_side, int64_t position_offset,
    bool* hit) {
  // The key carries everything the activation depends on besides the
  // engine-constant split_layer and precision: the model version that
  // produced it (the cache is also cleared on swap; the tag makes
  // staleness structurally impossible rather than timing-dependent),
  // which side the segment embeds as, the text, the truncated token
  // count, and (candidate side) the absolute position offset imposed by
  // the query's length.
  std::string key;
  key.reserve(text.size() + 24);
  key += std::to_string(model.version);
  key.push_back('\x1f');
  key.push_back(query_side ? 'q' : 'c');
  key.push_back('\x1f');
  key.append(text);
  key.push_back('\x1f');
  key += std::to_string(ids.size());
  if (!query_side) {
    key.push_back('\x1f');
    key += std::to_string(position_offset);
  }

  bool was_hit = false;
  std::shared_ptr<const Tensor> prefix = prefix_cache_.GetOrCompute(
      key,
      [&] {
        EMX_TRACE_SPAN("serve.prefix_encode", [&] {
          return obs::KeyValues(
              {{"tokens", static_cast<int64_t>(ids.size())},
               {"query_side", query_side ? int64_t{1} : int64_t{0}}});
        });
        const auto& specials = model.matcher->tokenizer().specials();
        models::Batch seg;
        seg.batch_size = 1;
        if (query_side) seg.ids.push_back(specials.cls);
        seg.ids.insert(seg.ids.end(), ids.begin(), ids.end());
        seg.ids.push_back(specials.sep);
        seg.seq_len = static_cast<int64_t>(seg.ids.size());
        seg.segment_ids.assign(seg.ids.size(), query_side ? 0 : 1);
        // No mask: the segment has no padding, and segment-locality is
        // implied by encoding it alone.
        NoGradGuard no_grad;
        nn::QuantModeGuard quant(options_.precision == Precision::kInt8);
        Rng rng(0);  // never drawn: the prefix forward runs dropout-free
        return model.matcher->classifier()
            ->backbone()
            ->EncodeSegmentPrefix(seg, options_.split_layer, position_offset,
                                  &rng)
            .value();
      },
      &was_hit);
  if (hit != nullptr) *hit = was_hit;
  metrics_.RecordPrefixLookup(was_hit);
  return prefix;
}

bool MatcherEngine::WarmCandidate(std::string_view text,
                                  int64_t query_segment_len) {
  if (!split_enabled()) return false;
  EMX_CHECK_GE(query_segment_len, 2)
      << "query_segment_len counts [CLS] and [SEP]";
  if (ShutdownSeen()) return false;
  // Truncate against a stand-in query of the given length (only its size
  // matters; beyond max_seq_len it truncates identically), so the warmed
  // key matches what a real request of that shape will ask for.
  std::vector<int64_t> a(static_cast<size_t>(
      std::min(query_segment_len - 2, options_.max_seq_len)));
  std::vector<int64_t> b = *Tokens(text, nullptr);
  tokenizers::TruncatePair(&a, &b, options_.max_seq_len - 3);
  PrefixFor(*CurrentModel(), text, b, /*query_side=*/false,
            /*position_offset=*/static_cast<int64_t>(a.size()) + 2, nullptr);
  return true;
}

Status MatcherEngine::SwapModel(std::shared_ptr<core::EntityMatcher> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("SwapModel: next model must not be null");
  }
  // The version bump is read-modify-write over model_, so concurrent
  // swappers are serialized; Submit/RunBatch never take this lock.
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  const std::shared_ptr<const VersionedModel> cur = CurrentModel();
  core::EntityMatcher* old = cur->matcher.get();
  if (next->arch() != old->arch()) {
    return Status::InvalidArgument(
        std::string("SwapModel: architecture mismatch: serving ") +
        old->arch_name() + ", next is " + next->arch_name());
  }
  const models::TransformerConfig& nc =
      next->classifier()->backbone()->config();
  const models::TransformerConfig& oc =
      old->classifier()->backbone()->config();
  if (nc.hidden != oc.hidden || nc.num_layers != oc.num_layers) {
    return Status::InvalidArgument(
        "SwapModel: model geometry mismatch: serving hidden=" +
        std::to_string(oc.hidden) + "/layers=" +
        std::to_string(oc.num_layers) + ", next has hidden=" +
        std::to_string(nc.hidden) + "/layers=" +
        std::to_string(nc.num_layers));
  }
  if (options_.precision == Precision::kInt8 &&
      !HasReadyInt8Backends(next.get())) {
    return Status::InvalidArgument(
        "SwapModel: engine serves kInt8 but the next model has no frozen "
        "int8 backends");
  }
  if (split_enabled() &&
      !next->classifier()->backbone()->SupportsSplitEncode()) {
    return Status::InvalidArgument(
        "SwapModel: engine uses split encoding but the next model's "
        "backbone does not support it");
  }

  auto fresh = std::make_shared<const VersionedModel>(
      VersionedModel{std::move(next), cur->version + 1});
  model_.store(fresh, std::memory_order_release);
  // Drop old-version prefixes now rather than letting them age out of the
  // LRU: they can never be hit again (version-tagged keys) and would
  // otherwise squat on the byte budget.
  prefix_cache_.Clear();
  metrics_.RecordModelSwap(static_cast<int64_t>(fresh->version));
  return Status::OK();
}

uint64_t MatcherEngine::model_version() const {
  return CurrentModel()->version;
}

void MatcherEngine::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void MatcherEngine::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

void MatcherEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

MetricsSnapshot MatcherEngine::Metrics() const {
  MetricsSnapshot s = metrics_.Snapshot(queue_depth());
  s.token_cache_bytes = tokens_.resident_bytes();
  s.token_cache_evictions = tokens_.evictions();
  s.prefix_bytes = prefix_cache_.resident_bytes();
  s.prefix_evictions = prefix_cache_.evictions();
  return s;
}

std::string MatcherEngine::MetricsJson() const { return Metrics().ToJson(); }

int64_t MatcherEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

void MatcherEngine::ExpireQueuedLocked(Clock::time_point now) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      MatchResult r;
      r.status = Status::DeadlineExceeded("deadline passed while queued");
      r.queue_us = ElapsedUs(it->enqueued, now);
      r.total_us = r.queue_us;
      r.cache_hit = it->cache_hit;
      r.prefix_hit_query = it->prefix_hit_q;
      r.prefix_hit_candidate = it->prefix_hit_c;
      metrics_.RecordTimeout();
      it->promise.set_value(std::move(r));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void MatcherEngine::WorkerLoop(uint64_t worker_id) {
  // Per-worker Rng (the eval forward never consumes randomness, but the
  // Logits API takes one).
  Rng rng(0x5e7e + worker_id);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (!paused_ && !queue_.empty());
    });
    const Clock::time_point now = Clock::now();
    // Shutdown overrides pause: queued work is drained either way.
    if (!paused_ || shutdown_) ExpireQueuedLocked(now);
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }

    // The oldest request defines the bucket to serve and the flush clock.
    const int64_t bucket = queue_.front().bucket;
    const Clock::time_point flush_at =
        queue_.front().enqueued +
        std::chrono::microseconds(options_.max_wait_us);
    int64_t in_bucket = 0;
    for (const Request& r : queue_) {
      if (r.bucket == bucket && ++in_bucket >= options_.max_batch_size) break;
    }

    if (!shutdown_ && in_bucket < options_.max_batch_size && now < flush_at) {
      // Not full and not due: sleep until the flush deadline or the next
      // per-request deadline, whichever comes first (or a new submission).
      Clock::time_point wake = flush_at;
      for (const Request& r : queue_) wake = std::min(wake, r.deadline);
      work_cv_.wait_until(lock, wake);
      continue;
    }

    std::vector<Request> batch;
    batch.reserve(static_cast<size_t>(in_bucket));
    for (auto it = queue_.begin();
         it != queue_.end() &&
         static_cast<int64_t>(batch.size()) < options_.max_batch_size;) {
      if (it->bucket == bucket) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    RunBatch(std::move(batch), &rng);
    lock.lock();
  }
}

void MatcherEngine::RunBatch(std::vector<Request> batch, Rng* rng) {
  const Clock::time_point formed = Clock::now();
  const int64_t b = static_cast<int64_t>(batch.size());
  EMX_TRACE_SPAN("serve.batch", [&] {
    return obs::KeyValues(
        {{"size", b},
         {"bucket", batch.empty() ? 0 : batch.front().bucket},
         {"split_layer", options_.split_layer}});
  });

  // Pad only to the bucket top (rounded up from the longest member), not to
  // the engine-wide max_seq_len: short pairs never pay for long ones.
  int64_t longest = 1;
  for (const Request& r : batch) longest = std::max(longest, r.length());
  const int64_t target_len = std::min(
      options_.max_seq_len,
      (longest + options_.bucket_width - 1) / options_.bucket_width *
          options_.bucket_width);

  // Every member snapshotted the same model (version is part of the
  // bucket); the batch holds it alive even if a swap lands mid-forward.
  const VersionedModel& model = *batch.front().model;
  models::SequencePairClassifier* classifier = model.matcher->classifier();
  NoGradGuard no_grad;
  // QuantMode is thread-local, so each worker pins the engine's precision
  // for the duration of its own forward.
  nn::QuantModeGuard quant(options_.precision == Precision::kInt8);
  std::vector<float> pad_flags;
  pad_flags.reserve(static_cast<size_t>(b * target_len));
  Variable logits;
  if (!split_enabled()) {
    models::Batch mb;
    mb.batch_size = b;
    mb.seq_len = target_len;
    mb.ids.reserve(static_cast<size_t>(b * target_len));
    mb.segment_ids.reserve(static_cast<size_t>(b * target_len));
    for (const Request& r : batch) {
      const tokenizers::EncodedPair enc =
          model.matcher->tokenizer().AssemblePair(r.a, r.b, target_len);
      mb.ids.insert(mb.ids.end(), enc.ids.begin(), enc.ids.end());
      mb.segment_ids.insert(mb.segment_ids.end(), enc.segment_ids.begin(),
                            enc.segment_ids.end());
      pad_flags.insert(pad_flags.end(), enc.attention_mask.begin(),
                       enc.attention_mask.end());
    }
    mb.attention_mask = models::Batch::MakeMask(pad_flags, b, target_len);
    logits = classifier->Logits(mb, /*train=*/false, rng);
  } else {
    // The prefixes entering layer split_layer, concatenated per row. Pad
    // positions hold zero vectors instead of pad-token embeddings; both
    // are blocked by the mask, so real rows never see the difference.
    const int64_t h = classifier->config().hidden;
    Tensor input = Tensor::Zeros({b, target_len, h});
    pad_flags.assign(static_cast<size_t>(b * target_len), 1.0f);
    for (int64_t i = 0; i < b; ++i) {
      const Request& r = batch[static_cast<size_t>(i)];
      const int64_t len_q = r.prefix_q->dim(1);
      const int64_t len_c = r.prefix_c->dim(1);
      float* row = input.data() + i * target_len * h;
      std::memcpy(row, r.prefix_q->data(),
                  static_cast<size_t>(len_q * h) * sizeof(float));
      std::memcpy(row + len_q * h, r.prefix_c->data(),
                  static_cast<size_t>(len_c * h) * sizeof(float));
      std::fill(pad_flags.begin() + i * target_len,
                pad_flags.begin() + i * target_len + len_q + len_c, 0.0f);
    }
    logits = classifier->LogitsFromHidden(
        Variable::Constant(std::move(input)),
        models::Batch::MakeMask(pad_flags, b, target_len),
        options_.split_layer, /*train=*/false, rng);
  }
  Tensor probs = ops::Softmax(logits.value());
  const Clock::time_point done = Clock::now();

  metrics_.RecordBatch(b);
  for (int64_t i = 0; i < b; ++i) {
    Request& r = batch[static_cast<size_t>(i)];
    MatchResult result;
    result.status = Status::OK();
    result.probability = probs[i * 2 + 1];
    result.is_match = result.probability >= 0.5;
    result.queue_us = ElapsedUs(r.enqueued, formed);
    result.total_us = ElapsedUs(r.enqueued, done);
    result.batch_size = b;
    result.cache_hit = r.cache_hit;
    result.prefix_hit_query = r.prefix_hit_q;
    result.prefix_hit_candidate = r.prefix_hit_c;
    result.model_version = model.version;
    metrics_.RecordCompletion(result.total_us);
    r.promise.set_value(std::move(result));
  }
}

}  // namespace serve
}  // namespace emx
