#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "core/entity_matcher.h"
#include "models/encoder.h"
#include "nn/layers.h"
#include "obs/json.h"
#include "pretrain/model_zoo.h"
#include "quant/quantize_matcher.h"
#include "serve/lru_cache.h"
#include "serve/matcher_engine.h"
#include "serve/serving_metrics.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"
#include "tokenizers/tokenizer.h"
#include "util/rng.h"

namespace emx {
namespace serve {
namespace {

/// The engine's token cache: entity ids charged one unit each.
using TokenCache = LruCache<std::vector<int64_t>>;

/// Shared matcher for the engine tests. Weights are random
/// (skip_pretraining) but deterministic, which is all batching/status
/// semantics need; only the tokenizer is trained (and cached).
class ServeFixture : public ::testing::Test {
 protected:
  static constexpr const char* kCacheDir = "/tmp/emx_zoo_serve_test";
  static constexpr int64_t kSeqLen = 32;

  static pretrain::ZooOptions Zoo() {
    pretrain::ZooOptions zoo;
    zoo.cache_dir = kCacheDir;
    zoo.vocab_size = 500;
    zoo.corpus.num_documents = 150;
    zoo.skip_pretraining = true;
    return zoo;
  }

  static core::EntityMatcher* Matcher() {
    static std::unique_ptr<core::EntityMatcher> matcher = [] {
      auto bundle = pretrain::GetPretrained(models::Architecture::kBert, Zoo());
      EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
      auto m = std::make_unique<core::EntityMatcher>(std::move(bundle).value());
      m->set_eval_max_seq_len(kSeqLen);
      return m;
    }();
    return matcher.get();
  }

  static EngineOptions BaseOptions() {
    EngineOptions opts;
    opts.max_seq_len = kSeqLen;
    opts.bucket_width = kSeqLen;  // single bucket unless a test says otherwise
    return opts;
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(kCacheDir); }

  /// Tokenizes `text` through `cache` the way the engine does.
  static std::shared_ptr<const std::vector<int64_t>> Tokenize(
      TokenCache* cache, const std::string& text, bool* hit) {
    return cache->GetOrCompute(
        text, [&] { return Matcher()->tokenizer().Encode(text); }, hit);
  }

  /// Pairs whose entities both tokenize to more than kSeqLen / 2 tokens, so
  /// longest-first truncation trims both sides.
  static std::vector<std::pair<std::string, std::string>> TruncatingPairs() {
    std::vector<std::pair<std::string, std::string>> pairs = {
        {"samsung galaxy tab s9 ultra 14.6 inch amoled tablet 512gb "
         "graphite with s pen keyboard cover wifi 6e snapdragon 8 gen 2 "
         "android 13 quad speakers fast charging",
         "galaxy tab s9 ultra by samsung 14.6in dynamic amoled 2x display "
         "512 gb storage 12 gb ram graphite color includes s pen and book "
         "cover keyboard wireless tablet"},
        {"bosch 800 series 24 inch built in dishwasher stainless steel "
         "crystaldry third rack 42 dba quiet wifi connected home",
         "dishwasher bosch 800 series shx78cm5n stainless 24 in crystal dry "
         "3rd rack flexible 42 decibel quietest home connect app control "
         "energy star certified"},
    };
    for (const auto& [a, b] : pairs) {
      EXPECT_GT(Matcher()->tokenizer().Encode(a).size(), kSeqLen / 2) << a;
      EXPECT_GT(Matcher()->tokenizer().Encode(b).size(), kSeqLen / 2) << b;
    }
    return pairs;
  }
};

// ---- Micro-batching --------------------------------------------------------

TEST_F(ServeFixture, FlushesWhenBatchFills) {
  EngineOptions opts = BaseOptions();
  opts.max_batch_size = 4;
  opts.max_wait_us = 10'000'000;  // would stall for 10s without a size flush
  MatcherEngine engine(Matcher(), opts);

  std::vector<std::future<MatchResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(engine.Submit("acer laptop model " + std::to_string(i),
                                    "acer notebook model " + std::to_string(i)));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    MatchResult r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.batch_size, 4);
    EXPECT_GE(r.probability, 0.0);
    EXPECT_LE(r.probability, 1.0);
  }
  EXPECT_EQ(engine.Metrics().batches, 1);
}

TEST_F(ServeFixture, FlushesOnMaxWaitDeadline) {
  EngineOptions opts = BaseOptions();
  opts.max_batch_size = 16;   // never fills
  opts.max_wait_us = 20'000;  // 20ms
  MatcherEngine engine(Matcher(), opts);

  auto fut = engine.Submit("lone request", "with no batch peers");
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  MatchResult r = fut.get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.batch_size, 1);
  // It waited for peers before flushing.
  EXPECT_GE(r.total_us, static_cast<double>(opts.max_wait_us) * 0.5);
}

TEST_F(ServeFixture, LengthBucketsAreServedSeparately) {
  EngineOptions opts = BaseOptions();
  opts.bucket_width = 8;
  opts.max_batch_size = 2;
  opts.max_wait_us = 20'000;
  MatcherEngine engine(Matcher(), opts);

  // Two short pairs (bucket ~1) and two long pairs (higher bucket).
  const std::string longa =
      "sony professional studio monitor headphones mdr 7506 with closed back "
      "large diaphragm drivers and detachable coiled cable";
  const std::string longb =
      "sony mdr7506 professional large diaphragm headphone closed back studio "
      "monitoring with coiled cord and case";
  auto s1 = engine.Submit("tv", "a tv");
  auto s2 = engine.Submit("mug", "a mug");
  auto l1 = engine.Submit(longa, longb);
  auto l2 = engine.Submit(longb, longa);

  MatchResult rs1 = s1.get(), rs2 = s2.get(), rl1 = l1.get(), rl2 = l2.get();
  for (const MatchResult* r : {&rs1, &rs2, &rl1, &rl2}) {
    EXPECT_TRUE(r->status.ok()) << r->status.ToString();
    // No batch mixed buckets, so nothing exceeded the pair count.
    EXPECT_LE(r->batch_size, 2);
  }
}

// ---- Overload and deadlines ------------------------------------------------

TEST_F(ServeFixture, QueueFullRejectsWithResourceExhausted) {
  EngineOptions opts = BaseOptions();
  opts.queue_capacity = 2;
  opts.start_paused = true;  // hold the queue so it can fill
  MatcherEngine engine(Matcher(), opts);

  auto f1 = engine.Submit("pair one a", "pair one b");
  auto f2 = engine.Submit("pair two a", "pair two b");
  auto f3 = engine.Submit("pair three a", "pair three b");
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.Metrics().rejected, 1);

  engine.Resume();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

TEST_F(ServeFixture, PerRequestDeadlineTimesOutWhileQueued) {
  EngineOptions opts = BaseOptions();
  opts.start_paused = true;
  MatcherEngine engine(Matcher(), opts);

  auto expired = engine.Submit("slow a", "slow b", /*timeout_us=*/1000);
  auto alive = engine.Submit("fast a", "fast b");  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.Resume();

  MatchResult r = expired.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(alive.get().status.ok());
  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.timed_out, 1);
  EXPECT_EQ(m.completed, 1);
}

TEST_F(ServeFixture, SubmitAfterShutdownIsUnavailable) {
  EngineOptions opts = BaseOptions();
  MatcherEngine engine(Matcher(), opts);
  EXPECT_TRUE(engine.Match("a pair", "to warm up").status.ok());
  engine.Shutdown();
  EXPECT_EQ(engine.Submit("too", "late").get().status.code(),
            StatusCode::kUnavailable);
}

TEST_F(ServeFixture, ShutdownDrainsQueuedRequests) {
  EngineOptions opts = BaseOptions();
  opts.max_batch_size = 16;
  opts.max_wait_us = 10'000'000;  // drain must not wait this out
  MatcherEngine engine(Matcher(), opts);
  auto f1 = engine.Submit("queued a", "queued b");
  auto f2 = engine.Submit("queued c", "queued d");
  engine.Shutdown();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

// ---- Entity tokenization cache --------------------------------------------

TEST_F(ServeFixture, TokenCacheLruEviction) {
  TokenCache cache(/*budget=*/2, Budget::kEntries);
  bool hit = true;
  Tokenize(&cache, "alpha one", &hit);
  EXPECT_FALSE(hit);
  Tokenize(&cache, "beta two", &hit);
  EXPECT_FALSE(hit);
  Tokenize(&cache, "alpha one", &hit);  // promotes alpha
  EXPECT_TRUE(hit);
  Tokenize(&cache, "gamma three", &hit);  // evicts beta (least recent)
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  Tokenize(&cache, "alpha one", &hit);
  EXPECT_TRUE(hit);
  Tokenize(&cache, "beta two", &hit);
  EXPECT_FALSE(hit);  // was evicted
}

TEST_F(ServeFixture, TokenCacheCapacityOneStillCaches) {
  // The degenerate single-slot LRU: every insert evicts the previous
  // entry, but a repeated key in a row still hits.
  TokenCache cache(/*budget=*/1, Budget::kEntries);
  bool hit = true;
  Tokenize(&cache, "alpha one", &hit);
  EXPECT_FALSE(hit);
  Tokenize(&cache, "alpha one", &hit);
  EXPECT_TRUE(hit);
  Tokenize(&cache, "beta two", &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1);
  Tokenize(&cache, "alpha one", &hit);
  EXPECT_FALSE(hit);  // evicted by beta
  EXPECT_EQ(cache.size(), 1);
}

TEST_F(ServeFixture, TokenCacheZeroCapacityDisablesCaching) {
  // Zero capacity must disable caching, not crash: every lookup tokenizes
  // fresh, reports a miss and stores nothing.
  TokenCache cache(/*budget=*/0, Budget::kEntries);
  bool hit = true;
  auto ids = Tokenize(&cache, "asus zenbook", &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0);
  Tokenize(&cache, "asus zenbook", &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.resident_bytes(), 0);
  // The uncached tokenization is still correct.
  EXPECT_EQ(*ids, Matcher()->tokenizer().Encode("asus zenbook"));
}

TEST_F(ServeFixture, EngineWithCacheDisabledStillServes) {
  EngineOptions opts = BaseOptions();
  opts.cache_capacity = 0;
  opts.max_wait_us = 1000;
  MatcherEngine engine(Matcher(), opts);
  EXPECT_TRUE(engine.Match("pixel 7", "google pixel 7").status.ok());
  EXPECT_TRUE(engine.Match("pixel 7", "google pixel 7").status.ok());
  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.cache_hits, 0);
  EXPECT_EQ(m.cache_misses, 2);
}

TEST_F(ServeFixture, TruncateThenAssembleMatchesEncodePair) {
  // The engine tokenizes each entity once, truncates with TruncatePair and
  // lays the pair out with AssemblePair; that must be EncodePair's output
  // exactly, on short pairs and on pairs that truncate both sides.
  std::vector<std::pair<std::string, std::string>> pairs = TruncatingPairs();
  pairs.emplace_back("asus zenbook 14", "zenbook 14 by asus");
  const tokenizers::Tokenizer& tok = Matcher()->tokenizer();
  for (const auto& [a, b] : pairs) {
    std::vector<int64_t> ia = tok.Encode(a);
    std::vector<int64_t> ib = tok.Encode(b);
    tokenizers::TruncatePair(&ia, &ib, kSeqLen - 3);
    const tokenizers::EncodedPair assembled = tok.AssemblePair(ia, ib, kSeqLen);
    const tokenizers::EncodedPair direct = tok.EncodePair(a, b, kSeqLen);
    EXPECT_EQ(assembled.ids, direct.ids) << a;
    EXPECT_EQ(assembled.segment_ids, direct.segment_ids) << a;
    EXPECT_EQ(assembled.attention_mask, direct.attention_mask) << a;
  }
}

TEST_F(ServeFixture, EngineReportsCacheHits) {
  EngineOptions opts = BaseOptions();
  opts.max_wait_us = 1000;
  MatcherEngine engine(Matcher(), opts);
  MatchResult first = engine.Match("iphone 12", "apple iphone 12");
  MatchResult second = engine.Match("iphone 12", "apple iphone 12");
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.cache_hits, 1);
  EXPECT_EQ(m.cache_misses, 1);
  EXPECT_NEAR(m.cache_hit_rate, 0.5, 1e-9);
}

// ---- Correctness vs. the one-pair path -------------------------------------

TEST_F(ServeFixture, GradFreeLogitsBitIdenticalToTrainingForward) {
  // The acceptance-criteria golden test: the same batch through the same
  // forward, with and without tape construction, must agree on every bit.
  models::Batch batch = Matcher()->BuildBatch(
      {"dell xps 13 9310", "nikon d750 dslr"},
      {"dell xps 13 laptop 2021", "nikon d850 dslr body"}, kSeqLen);
  Rng rng(1);
  Variable with_tape =
      Matcher()->classifier()->Logits(batch, /*train=*/false, &rng);
  EXPECT_TRUE(with_tape.requires_grad());
  Variable grad_free;
  {
    NoGradGuard guard;
    grad_free = Matcher()->classifier()->Logits(batch, /*train=*/false, &rng);
  }
  EXPECT_FALSE(grad_free.requires_grad());
  ASSERT_EQ(with_tape.value().shape(), grad_free.value().shape());
  for (int64_t i = 0; i < with_tape.value().size(); ++i) {
    EXPECT_EQ(with_tape.value()[i], grad_free.value()[i]) << "logit " << i;
  }
}

TEST_F(ServeFixture, MultiWorkerResultsMatchSingleWorker) {
  // Two workers run concurrent forwards against the same weights; every
  // result must equal the serialized single-worker answer.
  std::vector<std::string> as, bs;
  for (int i = 0; i < 24; ++i) {
    as.push_back("widget model " + std::to_string(i));
    bs.push_back("widget mk " + std::to_string(i % 6));
  }
  std::vector<double> expected = Matcher()->MatchProbabilities(as, bs);

  EngineOptions opts = BaseOptions();
  opts.num_workers = 2;
  opts.max_batch_size = 4;
  opts.max_wait_us = 500;
  MatcherEngine engine(Matcher(), opts);
  std::vector<std::future<MatchResult>> futures;
  for (size_t i = 0; i < as.size(); ++i) {
    futures.push_back(engine.Submit(as[i], bs[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    MatchResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_NEAR(r.probability, expected[i], 1e-6) << "pair " << i;
  }
}

TEST_F(ServeFixture, EngineProbabilityMatchesDirectMatchProbability) {
  EngineOptions opts = BaseOptions();
  opts.max_wait_us = 1000;
  MatcherEngine engine(Matcher(), opts);
  const std::string a = "canon eos r6 mirrorless camera body";
  const std::string b = "canon r6 mirrorless digital camera";
  MatchResult served = engine.Match(a, b);
  ASSERT_TRUE(served.status.ok());
  const double direct = Matcher()->MatchProbability(a, b);
  EXPECT_NEAR(served.probability, direct, 1e-6);
  EXPECT_EQ(served.is_match, direct >= 0.5);
  for (const auto& [ta, tb] : TruncatingPairs()) {
    MatchResult r = engine.Match(ta, tb);
    ASSERT_TRUE(r.status.ok());
    EXPECT_NEAR(r.probability, Matcher()->MatchProbability(ta, tb), 1e-6)
        << ta;
  }
}

// ---- Checkpoint round-trip -------------------------------------------------

TEST_F(ServeFixture, CheckpointRoundTripPreservesProbabilities) {
  const std::string path = "/tmp/emx_serve_roundtrip.params";
  const std::vector<std::string> as = {"lenovo thinkpad x1", "red mug",
                                       "galaxy s21 ultra"};
  const std::vector<std::string> bs = {"thinkpad x1 carbon by lenovo",
                                       "blue plate", "samsung galaxy s21"};
  std::vector<double> before = Matcher()->MatchProbabilities(as, bs);
  ASSERT_TRUE(Matcher()->Save(path).ok());

  // A fresh matcher with a different head seed: every weight differs until
  // the checkpoint overwrites it, so name/shape drift cannot hide.
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, Zoo());
  ASSERT_TRUE(bundle.ok());
  core::EntityMatcher restored(std::move(bundle).value(), /*head_seed=*/12345);
  restored.set_eval_max_seq_len(kSeqLen);
  Status load = restored.Load(path);
  ASSERT_TRUE(load.ok()) << load.ToString();

  std::vector<double> after = restored.MatchProbabilities(as, bs);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "pair " << i;
  }

  // And identical when served through an engine wrapping the restored model.
  MatcherEngine engine(&restored, BaseOptions());
  for (size_t i = 0; i < as.size(); ++i) {
    MatchResult r = engine.Match(as[i], bs[i]);
    ASSERT_TRUE(r.status.ok());
    EXPECT_NEAR(r.probability, before[i], 1e-6) << "pair " << i;
  }
  std::filesystem::remove(path);
}

// ---- int8 precision --------------------------------------------------------

TEST_F(ServeFixture, Int8EngineMatchesDirectQuantizedPath) {
  // A private matcher: quantization attaches backends, which must not leak
  // into the shared fixture the fp32 bit-identity tests rely on.
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, Zoo());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(kSeqLen);

  quant::CalibrationData calib;
  for (int i = 0; i < 8; ++i) {
    calib.texts_a.push_back("dell latitude laptop " + std::to_string(i));
    calib.texts_b.push_back("dell latitude notebook " + std::to_string(i % 3));
  }
  calib.batch_size = 4;
  auto report = quant::QuantizeMatcher(&matcher, calib);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::vector<std::string> as, bs;
  for (int i = 0; i < 16; ++i) {
    as.push_back("item number " + std::to_string(i));
    bs.push_back("product number " + std::to_string(i % 5));
  }
  // Direct grad-free prediction runs int8 (QuantMode defaults on).
  std::vector<double> expected = matcher.MatchProbabilities(as, bs);

  EngineOptions opts = BaseOptions();
  opts.precision = Precision::kInt8;
  opts.num_workers = 2;  // concurrent int8 forwards on shared packed weights
  opts.max_batch_size = 4;
  opts.max_wait_us = 500;
  MatcherEngine engine(&matcher, opts);
  std::vector<std::future<MatchResult>> futures;
  for (size_t i = 0; i < as.size(); ++i) {
    futures.push_back(engine.Submit(as[i], bs[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    MatchResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_NEAR(r.probability, expected[i], 1e-6) << "pair " << i;
  }
  EXPECT_GT(engine.Metrics().completed, 0);

  // An fp32-precision engine over the same quantized matcher bypasses the
  // backends per worker thread (QuantModeGuard), not globally.
  double fp32_direct;
  {
    nn::QuantModeGuard fp32_only(false);
    fp32_direct = matcher.MatchProbability(as[0], bs[0]);
  }
  MatcherEngine fp32_engine(&matcher, BaseOptions());
  MatchResult r = fp32_engine.Match(as[0], bs[0]);
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.probability, fp32_direct, 1e-6);
}

TEST_F(ServeFixture, Int8EngineHonorsDeadlinesAndShutdown) {
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, Zoo());
  ASSERT_TRUE(bundle.ok());
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(kSeqLen);
  quant::CalibrationData calib;
  calib.texts_a = {"hp spectre x360", "logitech mx master"};
  calib.texts_b = {"hp spectre 13 convertible", "mx master 3 mouse"};
  ASSERT_TRUE(quant::QuantizeMatcher(&matcher, calib).ok());

  EngineOptions opts = BaseOptions();
  opts.precision = Precision::kInt8;
  opts.start_paused = true;
  MatcherEngine engine(&matcher, opts);
  auto expired = engine.Submit("slow a", "slow b", /*timeout_us=*/1000);
  auto alive = engine.Submit("fast a", "fast b");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.Resume();
  EXPECT_EQ(expired.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(alive.get().status.ok());
  engine.Shutdown();
  EXPECT_EQ(engine.Submit("too", "late").get().status.code(),
            StatusCode::kUnavailable);
}

// ---- Metrics ---------------------------------------------------------------

TEST_F(ServeFixture, MetricsJsonCarriesServingCounters) {
  EngineOptions opts = BaseOptions();
  opts.max_wait_us = 1000;
  MatcherEngine engine(Matcher(), opts);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Match("pixel 6 pro", "google pixel 6").status.ok());
  }
  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.submitted, 3);
  EXPECT_EQ(m.completed, 3);
  EXPECT_GT(m.throughput_pairs_per_sec, 0.0);
  EXPECT_GT(m.p50_latency_us, 0.0);
  EXPECT_GE(m.p99_latency_us, m.p50_latency_us);
  EXPECT_EQ(m.cache_hits, 2);

  const std::string json = m.ToJson();
  for (const char* key :
       {"\"submitted\"", "\"completed\"", "\"throughput_pairs_per_sec\"",
        "\"p99_latency_us\"", "\"batch_size_histogram\"",
        "\"cache_hit_rate\"", "\"queue_depth\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(MetricsSnapshotTest, ToJsonStrictParsesEveryField) {
  // Regression for the %.3f nan/inf bug: fill every derived double with a
  // non-finite value and require the serialization to still be valid JSON
  // under a strict parser, with those fields sanitized to 0.
  MetricsSnapshot s;
  s.submitted = 5;
  s.cache_hit_rate = std::nan("");
  s.mean_batch_size = std::numeric_limits<double>::infinity();
  s.throughput_pairs_per_sec = -std::numeric_limits<double>::infinity();
  s.uptime_seconds = std::nan("");
  s.p50_latency_us = std::nan("");
  s.p95_latency_us = std::nan("");
  s.p99_latency_us = std::nan("");
  s.max_latency_us = std::nan("");
  s.batch_size_histogram = {1, 0, 2};

  const std::string json = s.ToJson();
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(json, &v, &error)) << error << "\n" << json;
  // Every snapshot field must be present and numeric.
  for (const char* key :
       {"submitted", "completed", "timed_out", "rejected", "cache_hits",
        "cache_misses", "cache_hit_rate", "batches", "mean_batch_size",
        "batch_overflow", "queue_depth", "max_queue_depth", "uptime_seconds",
        "throughput_pairs_per_sec", "p50_latency_us", "p95_latency_us",
        "p99_latency_us", "max_latency_us"}) {
    const obs::JsonValue* f = v.Find(key);
    ASSERT_TRUE(f != nullptr) << "missing " << key;
    EXPECT_TRUE(f->is_number()) << key;
  }
  EXPECT_DOUBLE_EQ(v.Find("cache_hit_rate")->number, 0);
  EXPECT_DOUBLE_EQ(v.Find("throughput_pairs_per_sec")->number, 0);
  EXPECT_DOUBLE_EQ(v.Find("submitted")->number, 5);
  ASSERT_TRUE(v.Find("batch_size_histogram")->is_array());
  EXPECT_EQ(v.Find("batch_size_histogram")->array.size(), 3u);
}

TEST(ServingMetricsTest, BatchHistogramKeepsSlotZeroAndMarksOverflow) {
  // Regressions for the two histogram bugs: the JSON loop used to start at
  // slot 1 (dropping size-0 batches) and oversized batches were silently
  // clamped into the top slot.
  ServingMetrics sm(/*max_batch_size=*/4);
  sm.RecordBatch(0);
  sm.RecordBatch(2);
  sm.RecordBatch(4);
  sm.RecordBatch(7);  // exceeds max_batch_size -> overflow, not slot 4

  MetricsSnapshot s = sm.Snapshot(/*queue_depth=*/0);
  ASSERT_EQ(s.batch_size_histogram.size(), 5u);  // slots 0..4 inclusive
  EXPECT_EQ(s.batch_size_histogram[0], 1);
  EXPECT_EQ(s.batch_size_histogram[2], 1);
  EXPECT_EQ(s.batch_size_histogram[4], 1);  // NOT 2: the 7 didn't clamp here
  EXPECT_EQ(s.batch_overflow, 1);
  EXPECT_EQ(s.batches, 4);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, (0 + 2 + 4 + 7) / 4.0);

  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(s.ToJson(), &v, &error)) << error;
  // The emitted array carries all 5 slots (slot 0 included) + the marker.
  EXPECT_EQ(v.Find("batch_size_histogram")->array.size(), 5u);
  EXPECT_DOUBLE_EQ(v.Find("batch_size_histogram")->array[0].number, 1);
  EXPECT_DOUBLE_EQ(v.Find("batch_overflow")->number, 1);
}

TEST(ServingMetricsTest, RegistryMigrationPreservesCounterMeaning) {
  // ServingMetrics now stores its counters in an emx::obs registry; the
  // snapshot and the registry export must agree value-for-value.
  ServingMetrics sm(/*max_batch_size=*/8);
  sm.RecordSubmitted(3);
  sm.RecordSubmitted(1);
  sm.RecordRejected();
  sm.RecordTimeout();
  sm.RecordBatch(2);
  sm.RecordCompletion(120.0);
  sm.RecordCompletion(80.0);
  sm.RecordCacheLookup(true);
  sm.RecordCacheLookup(false);
  sm.RecordCacheLookup(false);

  MetricsSnapshot s = sm.Snapshot(/*queue_depth=*/1);
  EXPECT_EQ(s.submitted, 2);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.timed_out, 1);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_NEAR(s.cache_hit_rate, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(s.max_queue_depth, 3);
  EXPECT_DOUBLE_EQ(s.p50_latency_us, 100.0);  // interpolated midpoint

  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(sm.registry()->ToJson(), &v, &error)) << error;
  const obs::JsonValue* counters = v.Find("counters");
  ASSERT_TRUE(counters != nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("serve.submitted")->number, 2);
  EXPECT_DOUBLE_EQ(counters->Find("serve.rejected")->number, 1);
  EXPECT_DOUBLE_EQ(counters->Find("serve.timed_out")->number, 1);
  EXPECT_DOUBLE_EQ(counters->Find("serve.completed")->number, 2);
  EXPECT_DOUBLE_EQ(counters->Find("serve.cache_hits")->number, 1);
  EXPECT_DOUBLE_EQ(counters->Find("serve.cache_misses")->number, 2);
  const obs::JsonValue* hist =
      v.Find("histograms")->Find("serve.batch_size");
  ASSERT_TRUE(hist != nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 1);
  EXPECT_DOUBLE_EQ(hist->Find("counts")->array.at(2).number, 1);
}

// ---- Concurrency hammer (run under -DEMX_SANITIZE=thread in CI) ------------

TEST_F(ServeFixture, ConcurrentSubmittersHammer) {
  EngineOptions opts = BaseOptions();
  opts.max_batch_size = 8;
  opts.max_wait_us = 500;
  opts.queue_capacity = 4096;
  opts.cache_capacity = 64;
  opts.num_workers = 2;  // concurrent grad-free forwards on shared weights
  MatcherEngine engine(Matcher(), opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> ok{0}, failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<MatchResult>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        // A small hot set so the LRU sees hits, evictions and races.
        const int slot = (t * 7 + i) % 16;
        futures.push_back(
            engine.Submit("product number " + std::to_string(slot),
                          "item number " + std::to_string(slot)));
      }
      for (auto& f : futures) {
        if (f.get().status.ok()) {
          ++ok;
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(failed.load(), 0);
  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.completed, kThreads * kPerThread);
  EXPECT_EQ(m.queue_depth, 0);
  EXPECT_GT(m.mean_batch_size, 1.0);  // batching actually happened
  EXPECT_GT(m.cache_hits, 0);
}

// ---- Split-encoder prefix cache --------------------------------------------

TEST_F(ServeFixture, SplitK0BitIdenticalToFullPathFp32) {
  // The tentpole golden test: split_layer = 0 caches per-entity *embeddings*
  // and must reproduce the unsplit cross-encoder's probabilities exactly —
  // not approximately — because masked attention contributes exactly zero
  // from blocked keys and the GEMMs are row-independent.
  EngineOptions plain = BaseOptions();
  plain.max_wait_us = 1000;
  MatcherEngine full(Matcher(), plain);

  EngineOptions split_opts = plain;
  split_opts.split_layer = 0;
  MatcherEngine split(Matcher(), split_opts);

  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"apple macbook pro 14 m3", "macbook pro 14 inch m3 chip"},
      {"apple macbook pro 14 m3", "dyson v11 cordless vacuum"},
      {"rayban aviator sunglasses gold", "ray-ban aviator classic gold 58mm"},
      {"a", "b"},  // degenerate one-token entities
  };
  std::vector<std::pair<std::string, std::string>> all = pairs;
  for (auto& p : TruncatingPairs()) all.push_back(std::move(p));
  for (const auto& [a, b] : all) {
    MatchResult rf = full.Match(a, b);
    MatchResult rs = split.Match(a, b);
    ASSERT_TRUE(rf.status.ok()) << rf.status.ToString();
    ASSERT_TRUE(rs.status.ok()) << rs.status.ToString();
    EXPECT_EQ(rf.probability, rs.probability) << a << " / " << b;
    EXPECT_EQ(rf.is_match, rs.is_match);
  }
  // Repeats hit the activation cache and still agree bit-for-bit.
  MatchResult again = split.Match(pairs[0].first, pairs[0].second);
  EXPECT_TRUE(again.prefix_hit_query);
  EXPECT_TRUE(again.prefix_hit_candidate);
  EXPECT_EQ(again.probability, full.Match(pairs[0].first, pairs[0].second)
                                   .probability);
}

TEST_F(ServeFixture, SplitDefaultLayerBitIdenticalWhenPrefixCached) {
  // At k > 0 the split path is a different function than the full
  // cross-encoder (segment-local attention below k), but it must be
  // *self*-consistent: cached and recomputed prefixes give identical
  // logits, and the same pair always scores the same.
  EngineOptions opts = BaseOptions();
  opts.max_wait_us = 1000;
  opts.split_layer = DefaultSplitLayer(
      Matcher()->classifier()->config().num_layers);
  EXPECT_EQ(opts.split_layer, 1);  // scaled BERT is 2 layers
  MatcherEngine engine(Matcher(), opts);

  MatchResult first = engine.Match("bose qc45 headphones", "bose quietcomfort 45");
  MatchResult second = engine.Match("bose qc45 headphones", "bose quietcomfort 45");
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.prefix_hit_query);
  EXPECT_TRUE(second.prefix_hit_query);
  EXPECT_TRUE(second.prefix_hit_candidate);
  EXPECT_EQ(first.probability, second.probability);
  EXPECT_GT(engine.prefix_cache().Stats().hits, 0);
}

TEST_F(ServeFixture, SplitK0BitIdenticalInt8) {
  // int8 activation scales are frozen after calibration, so the quantized
  // forward is also row-independent: k=0 split must be bit-identical under
  // int8 serving too.
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, Zoo());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(kSeqLen);
  quant::CalibrationData calib;
  for (int i = 0; i < 8; ++i) {
    calib.texts_a.push_back("garmin forerunner " + std::to_string(i));
    calib.texts_b.push_back("garmin watch model " + std::to_string(i % 3));
  }
  ASSERT_TRUE(quant::QuantizeMatcher(&matcher, calib).ok());

  EngineOptions plain = BaseOptions();
  plain.max_wait_us = 1000;
  plain.precision = Precision::kInt8;
  MatcherEngine full(&matcher, plain);
  EngineOptions split_opts = plain;
  split_opts.split_layer = 0;
  MatcherEngine split(&matcher, split_opts);

  std::vector<std::pair<std::string, std::string>> pairs = {
      {"garmin forerunner 255", "forerunner 255 gps watch"},
      {"garmin forerunner 255", "weber spirit gas grill"},
  };
  for (auto& p : TruncatingPairs()) pairs.push_back(std::move(p));
  for (const auto& [a, b] : pairs) {
    MatchResult rf = full.Match(a, b);
    MatchResult rs = split.Match(a, b);
    ASSERT_TRUE(rf.status.ok());
    ASSERT_TRUE(rs.status.ok());
    EXPECT_EQ(rf.probability, rs.probability) << a << " / " << b;
  }
}

// Match probabilities pooled from the *full* [B, T, H] final states, with
// the batch laid out as the engine lays it out in a `seq_len`-wide bucket.
// Layers below `split_layer` run segment-locally, as on the engine's split
// path; split_layer <= 0 is the ordinary cross-encoder.
std::vector<double> FullLastLayerProbabilities(
    core::EntityMatcher* matcher,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    int64_t seq_len, int64_t split_layer, bool int8) {
  NoGradGuard no_grad;
  nn::QuantModeGuard quant(int8);
  const int64_t b = static_cast<int64_t>(pairs.size());
  models::Batch batch;
  batch.batch_size = b;
  batch.seq_len = seq_len;
  std::vector<float> pad;
  for (const auto& [x, y] : pairs) {
    const tokenizers::EncodedPair enc =
        matcher->tokenizer().EncodePair(x, y, seq_len);
    batch.ids.insert(batch.ids.end(), enc.ids.begin(), enc.ids.end());
    batch.segment_ids.insert(batch.segment_ids.end(), enc.segment_ids.begin(),
                             enc.segment_ids.end());
    pad.insert(pad.end(), enc.attention_mask.begin(), enc.attention_mask.end());
  }
  batch.attention_mask = models::Batch::MakeMask(pad, b, seq_len);
  models::SequencePairClassifier* cls = matcher->classifier();
  Rng rng(0);
  Variable hidden = cls->backbone()->EncodeBatchSegmentLocal(
      batch, std::max<int64_t>(split_layer, 0), false, &rng,
      /*cls_only=*/false);
  Variable pooled = cls->backbone()->PooledOutput(hidden, false, &rng);
  Variable logits = cls->out_layer().Forward(
      autograd::Tanh(cls->dense_layer().Forward(pooled)));
  Tensor probs = ops::Softmax(logits.value());
  std::vector<double> out;
  for (int64_t i = 0; i < b; ++i) out.push_back(probs[i * 2 + 1]);
  return out;
}

TEST_F(ServeFixture, ClsRowLastLayerServesFullLastLayerProbabilities) {
  // Served logits come from a last layer that computes only the CLS row.
  // For fp32 and frozen int8, unsplit and at every split k < L, the served
  // probabilities must equal those pooled from the full final states bit
  // for bit, whatever batches the requests land in.
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, Zoo());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  core::EntityMatcher quantized(std::move(bundle).value());
  quantized.set_eval_max_seq_len(kSeqLen);
  quant::CalibrationData calib;
  for (int i = 0; i < 8; ++i) {
    calib.texts_a.push_back("canon eos camera " + std::to_string(i));
    calib.texts_b.push_back("canon eos body kit " + std::to_string(i % 3));
  }
  ASSERT_TRUE(quant::QuantizeMatcher(&quantized, calib).ok());

  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 17; ++i) {
    pairs.emplace_back("canon eos r" + std::to_string(i) + " mirrorless",
                       i % 2 ? "canon eos r" + std::to_string(i % 5)
                             : "nikon z" + std::to_string(i) + " body only");
  }
  pairs.emplace_back("a", "b");
  for (auto& p : TruncatingPairs()) pairs.push_back(std::move(p));

  const int64_t layers = Matcher()->classifier()->config().num_layers;
  for (bool int8 : {false, true}) {
    core::EntityMatcher* matcher = int8 ? &quantized : Matcher();
    if (int8) {
      // Direct prediction runs the same CLS-row forward.
      std::vector<std::string> as, bs;
      for (const auto& [x, y] : pairs) {
        as.push_back(x);
        bs.push_back(y);
      }
      const std::vector<double> direct = matcher->MatchProbabilities(as, bs);
      const std::vector<double> want =
          FullLastLayerProbabilities(matcher, pairs, kSeqLen, -1, true);
      for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(direct[i], want[i]) << "MatchProbabilities pair " << i;
      }
    }
    for (int64_t k = -1; k < layers; ++k) {
      const std::vector<double> want =
          FullLastLayerProbabilities(matcher, pairs, kSeqLen, k, int8);
      EngineOptions opts = BaseOptions();
      opts.precision = int8 ? Precision::kInt8 : Precision::kFp32;
      opts.split_layer = k;
      opts.max_batch_size = 16;
      opts.max_wait_us = 20'000;
      MatcherEngine engine(matcher, opts);
      std::vector<std::future<MatchResult>> futures;
      for (const auto& [x, y] : pairs) futures.push_back(engine.Submit(x, y));
      for (size_t i = 0; i < pairs.size(); ++i) {
        MatchResult r = futures[i].get();
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        EXPECT_EQ(r.probability, want[i])
            << (int8 ? "int8" : "fp32") << " k=" << k << " pair " << i;
      }
      // A lone request forms a batch of one.
      MatchResult lone = engine.Match(pairs[3].first, pairs[3].second);
      ASSERT_TRUE(lone.status.ok());
      EXPECT_EQ(lone.batch_size, 1);
      EXPECT_EQ(lone.probability, want[3]) << "k=" << k << " batch of one";
    }
  }
}

TEST_F(ServeFixture, SubmitAgainstReusesPinnedQueryPrefix) {
  EngineOptions opts = BaseOptions();
  opts.max_wait_us = 1000;
  opts.split_layer = 0;
  MatcherEngine engine(Matcher(), opts);

  PinnedQuery pinned = engine.PinQuery("sony wh-1000xm5 wireless headphones");
  ASSERT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.text(), "sony wh-1000xm5 wireless headphones");

  std::vector<std::string> candidates = {
      "sony wh1000xm5 noise cancelling headphones",
      "sony wf-1000xm4 earbuds", "anker soundcore q30"};
  std::vector<std::future<MatchResult>> futures;
  for (const std::string& c : candidates) {
    futures.push_back(engine.SubmitAgainst(pinned, c));
  }
  int query_hits = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    MatchResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    query_hits += r.prefix_hit_query ? 1 : 0;
    // Must equal the plain Submit answer for the same strings.
    MatchResult direct = engine.Match(pinned.text(), candidates[i]);
    EXPECT_EQ(r.probability, direct.probability) << candidates[i];
  }
  // All candidates truncate the query to the same length here, so only the
  // very first submission can miss the query prefix.
  EXPECT_GE(query_hits, static_cast<int>(candidates.size()) - 1);
}

TEST_F(ServeFixture, WarmCandidateMakesFirstRequestHit) {
  EngineOptions opts = BaseOptions();
  opts.max_wait_us = 1000;
  opts.split_layer = 1;
  MatcherEngine engine(Matcher(), opts);

  const std::string query = "lego technic 42115 lamborghini";
  const std::string candidate = "lego 42115 lamborghini sian technic set";
  PinnedQuery pinned = engine.PinQuery(query);
  // The query occupies CLS + tokens + SEP on the wire; replicate that length.
  const std::vector<int64_t> q_ids = Matcher()->tokenizer().Encode(query);
  const int64_t query_segment_len = static_cast<int64_t>(q_ids.size()) + 2;
  ASSERT_TRUE(engine.WarmCandidate(candidate, query_segment_len));

  MatchResult r = engine.SubmitAgainst(pinned, candidate).get();
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.prefix_hit_candidate) << "warmed prefix should be resident";
}

TEST_F(ServeFixture, SplitMetricsJsonCarriesPrefixCounters) {
  EngineOptions opts = BaseOptions();
  opts.max_wait_us = 1000;
  opts.split_layer = 0;
  MatcherEngine engine(Matcher(), opts);
  ASSERT_TRUE(engine.Match("fitbit charge 6", "fitbit charge6 tracker")
                  .status.ok());
  ASSERT_TRUE(engine.Match("fitbit charge 6", "fitbit charge6 tracker")
                  .status.ok());

  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.prefix_misses, 2);  // one per side on the first request
  EXPECT_EQ(m.prefix_hits, 2);    // both sides on the second
  EXPECT_GT(m.prefix_bytes, 0);
  EXPECT_GT(m.token_cache_bytes, 0);
  const std::string json = m.ToJson();
  for (const char* key :
       {"\"prefix_hits\"", "\"prefix_misses\"", "\"prefix_hit_rate\"",
        "\"prefix_evictions\"", "\"prefix_bytes\"", "\"token_cache_bytes\"",
        "\"token_cache_evictions\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(ActivationCacheTest, EvictsLruUnderBytePressure) {
  // The engine's prefix cache: tensors charged their resident bytes. Budget
  // for roughly two of the three entries: inserting the third must evict
  // the least recently used, byte accounting staying exact.
  const int64_t entry = 4 * 8 * static_cast<int64_t>(sizeof(float)) +
                        /*key*/ 2 + /*overhead*/ 160;
  LruCache<Tensor> cache(2 * entry + entry / 2, Budget::kBytes);

  auto p1 = cache.Put("k1", Tensor::Full({1, 4, 8}, 1.0f));
  auto p2 = cache.Put("k2", Tensor::Full({1, 4, 8}, 2.0f));
  ASSERT_TRUE(p1 != nullptr);
  EXPECT_EQ(cache.Stats().entries, 2);
  EXPECT_EQ(cache.Stats().evictions, 0);
  EXPECT_EQ(cache.Stats().resident_bytes, 2 * entry);

  EXPECT_TRUE(cache.Get("k1") != nullptr);  // promote k1; k2 is now LRU
  auto p3 = cache.Put("k3", Tensor::Full({1, 4, 8}, 3.0f));
  CacheStats s = cache.Stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.resident_bytes, 2 * entry);
  EXPECT_TRUE(cache.Get("k2") == nullptr) << "LRU entry must be gone";
  EXPECT_TRUE(cache.Get("k1") != nullptr);
  EXPECT_TRUE(cache.Get("k3") != nullptr);
  // The evicted entry's shared_ptr (held by a hypothetical in-flight
  // request) stays valid after eviction.
  EXPECT_EQ((*p2)[0], 2.0f);
  EXPECT_LE(s.resident_bytes, cache.budget());

  // An entry larger than the whole budget is handed back but not kept.
  auto big = cache.Put("big", Tensor::Full({1, 64, 8}, 4.0f));
  EXPECT_EQ((*big)[0], 4.0f);
  EXPECT_TRUE(cache.Get("big") == nullptr);
}

TEST(ActivationCacheTest, ZeroBudgetDisablesStorageNotCorrectness) {
  LruCache<Tensor> cache(0, Budget::kBytes);
  auto p = cache.Put("k", Tensor::Full({1, 2, 2}, 5.0f));
  ASSERT_TRUE(p != nullptr);       // caller still gets its tensor back
  EXPECT_EQ((*p)[0], 5.0f);
  EXPECT_TRUE(cache.Get("k") == nullptr);  // nothing was stored
  EXPECT_EQ(cache.Stats().entries, 0);
}

TEST(ActivationCacheTest, FirstInsertWinsOnRacingPuts) {
  LruCache<Tensor> cache(1 << 20, Budget::kBytes);
  auto first = cache.Put("k", Tensor::Full({1, 2, 2}, 1.0f));
  auto second = cache.Put("k", Tensor::Full({1, 2, 2}, 2.0f));
  // The loser of the race is handed the winner's tensor so every caller
  // computes on the same bits.
  EXPECT_EQ((*second)[0], 1.0f);
  EXPECT_EQ(cache.Stats().entries, 1);
}

TEST(LruCacheTest, ObsHooksTrackEvictionsAndBytes) {
  obs::MetricsRegistry registry;
  obs::Counter* evictions = registry.GetCounter("evictions");
  obs::Gauge* bytes = registry.GetGauge("bytes");
  TokenCache cache(/*budget=*/2, Budget::kEntries, evictions, bytes);
  cache.Put("a", {1, 2});
  cache.Put("b", {3});
  cache.Put("c", {4, 5, 6});  // evicts "a"
  EXPECT_EQ(evictions->Value(), 1);
  EXPECT_EQ(cache.evictions(), 1);
  // Entries are charged one unit each, but bytes are still reported.
  const int64_t expected = (1 + 8 + 160) + (1 + 24 + 160);
  EXPECT_EQ(cache.resident_bytes(), expected);
  EXPECT_DOUBLE_EQ(bytes->Value(), static_cast<double>(expected));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_DOUBLE_EQ(bytes->Value(), 0);
  EXPECT_EQ(evictions->Value(), 1);  // cumulative across Clear
}

TEST_F(ServeFixture, SplitConcurrentHammer) {
  // Concurrent pinned re-ranking over a hot candidate set: exercises the
  // activation cache's hit/miss/eviction paths under real thread pressure.
  // Runs in the CI thread-sanitizer job like ConcurrentSubmittersHammer.
  EngineOptions opts = BaseOptions();
  opts.max_batch_size = 8;
  opts.max_wait_us = 500;
  opts.queue_capacity = 4096;
  opts.num_workers = 2;
  opts.split_layer = 1;
  // Tight budget so evictions happen mid-flight.
  opts.activation_cache_bytes = 64 * 1024;
  MatcherEngine engine(Matcher(), opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::atomic<int> ok{0}, failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PinnedQuery pinned =
          engine.PinQuery("query entity number " + std::to_string(t % 2));
      std::vector<std::future<MatchResult>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        const int slot = (t * 5 + i) % 12;  // hot candidate set
        futures.push_back(engine.SubmitAgainst(
            pinned, "candidate entity " + std::to_string(slot)));
      }
      for (auto& f : futures) {
        if (f.get().status.ok()) {
          ++ok;
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(failed.load(), 0);
  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.completed, kThreads * kPerThread);
  EXPECT_GT(m.prefix_hits, 0);
  // Deterministic result under concurrency: the same pair re-scored
  // serially gives the same answer as during the hammer.
  PinnedQuery pinned = engine.PinQuery("query entity number 0");
  MatchResult a = engine.SubmitAgainst(pinned, "candidate entity 3").get();
  MatchResult b = engine.SubmitAgainst(pinned, "candidate entity 3").get();
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.probability, b.probability);
}

TEST_F(ServeFixture, CreateRejectsBadSplitOptions) {
  EngineOptions opts = BaseOptions();
  opts.split_layer = 2;  // scaled BERT has 2 layers; k must be < L
  auto too_deep = MatcherEngine::Create(Matcher(), opts);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kInvalidArgument);

  opts.split_layer = -2;
  auto negative = MatcherEngine::Create(Matcher(), opts);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  opts.split_layer = 1;
  auto good = MatcherEngine::Create(Matcher(), opts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
}

// ---- EngineOptions validation ----------------------------------------------

TEST(ValidateEngineOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateEngineOptions(EngineOptions{}).ok());
}

TEST(ValidateEngineOptionsTest, RejectsNonPositiveMaxBatchSize) {
  EngineOptions opts;
  opts.max_batch_size = 0;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("max_batch_size"), std::string::npos)
      << st.ToString();
  opts.max_batch_size = -4;
  EXPECT_FALSE(ValidateEngineOptions(opts).ok());
}

TEST(ValidateEngineOptionsTest, RejectsNonPositiveMaxWait) {
  EngineOptions opts;
  opts.max_wait_us = 0;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("max_wait_us"), std::string::npos);
}

TEST(ValidateEngineOptionsTest, RejectsNonPositiveQueueCapacity) {
  EngineOptions opts;
  opts.queue_capacity = 0;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("queue_capacity"), std::string::npos);
  opts.queue_capacity = -1;
  EXPECT_FALSE(ValidateEngineOptions(opts).ok());
}

TEST(ValidateEngineOptionsTest, RejectsNonPositiveMaxSeqLen) {
  EngineOptions opts;
  opts.max_seq_len = 0;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("max_seq_len"), std::string::npos);
}

TEST(ValidateEngineOptionsTest, RejectsNonPositiveBucketWidth) {
  EngineOptions opts;
  opts.bucket_width = 0;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("bucket_width"), std::string::npos);
}

TEST(ValidateEngineOptionsTest, RejectsNegativeCacheCapacity) {
  EngineOptions opts;
  opts.cache_capacity = -1;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("cache_capacity"), std::string::npos);
  opts.cache_capacity = 0;  // disabled cache is allowed
  EXPECT_TRUE(ValidateEngineOptions(opts).ok());
}

TEST(ValidateEngineOptionsTest, RejectsNegativeDefaultTimeout) {
  EngineOptions opts;
  opts.default_timeout_us = -5;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("default_timeout_us"), std::string::npos);
  opts.default_timeout_us = 0;  // "no deadline" is allowed
  EXPECT_TRUE(ValidateEngineOptions(opts).ok());
}

TEST(ValidateEngineOptionsTest, RejectsNonPositiveNumWorkers) {
  EngineOptions opts;
  opts.num_workers = 0;
  Status st = ValidateEngineOptions(opts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("num_workers"), std::string::npos);
}

TEST_F(ServeFixture, CreateReturnsStatusInsteadOfAborting) {
  EngineOptions opts = BaseOptions();
  opts.queue_capacity = 0;
  auto bad = MatcherEngine::Create(Matcher(), opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto none = MatcherEngine::Create(nullptr, BaseOptions());
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);

  auto good = MatcherEngine::Create(Matcher(), BaseOptions());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  MatchResult r =
      good.value()->Match("dell xps 13 laptop", "dell xps13 notebook");
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
}

TEST_F(ServeFixture, CreateRejectsInt8WithoutQuantizedBackends) {
  EngineOptions opts = BaseOptions();
  opts.precision = Precision::kInt8;
  auto engine = MatcherEngine::Create(Matcher(), opts);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

// ---- Model hot-swap --------------------------------------------------------

/// A fresh matcher from the same (cached) zoo bundle as the fixture's:
/// identical geometry and tokenizer, independent weights object — a valid
/// swap target.
std::shared_ptr<core::EntityMatcher> FreshMatcher() {
  pretrain::ZooOptions zoo;
  zoo.cache_dir = "/tmp/emx_zoo_serve_test";
  zoo.vocab_size = 500;
  zoo.corpus.num_documents = 150;
  zoo.skip_pretraining = true;
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto m = std::make_shared<core::EntityMatcher>(std::move(bundle).value());
  m->set_eval_max_seq_len(32);
  return m;
}

TEST_F(ServeFixture, SwapModelBumpsVersionAndTagsResults) {
  MatcherEngine engine(Matcher(), BaseOptions());
  EXPECT_EQ(engine.model_version(), 1u);
  MatchResult before = engine.Match("acer aspire 5", "acer aspire5");
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.model_version, 1u);

  ASSERT_TRUE(engine.SwapModel(FreshMatcher()).ok());
  EXPECT_EQ(engine.model_version(), 2u);
  MatchResult after = engine.Match("acer aspire 5", "acer aspire5");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.model_version, 2u);

  MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.model_swaps, 1);
  EXPECT_EQ(m.model_version, 2);
}

TEST_F(ServeFixture, SwapModelRejectsNullAndBadGeometry) {
  MatcherEngine engine(Matcher(), BaseOptions());
  Status null_s = engine.SwapModel(nullptr);
  EXPECT_EQ(null_s.code(), StatusCode::kInvalidArgument);

  // A half-width model: right architecture enum, wrong geometry.
  pretrain::ZooOptions zoo;
  zoo.cache_dir = "/tmp/emx_zoo_serve_test";
  zoo.vocab_size = 500;
  zoo.corpus.num_documents = 150;
  zoo.skip_pretraining = true;
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  ASSERT_TRUE(bundle.ok());
  const models::TransformerConfig& served =
      Matcher()->classifier()->backbone()->config();
  models::TransformerConfig cfg = served;
  cfg.hidden = served.hidden / 2;
  cfg.num_heads = std::max<int64_t>(1, served.num_heads / 2);
  cfg.intermediate = cfg.hidden * 4;
  Rng rng(7);
  pretrain::PretrainedBundle narrow;
  narrow.model = std::make_unique<models::EncoderModel>(cfg, &rng);
  narrow.tokenizer = std::move(bundle.value().tokenizer);
  auto bad = std::make_shared<core::EntityMatcher>(std::move(narrow));
  Status geom_s = engine.SwapModel(bad);
  EXPECT_EQ(geom_s.code(), StatusCode::kInvalidArgument);

  // Both rejections leave the original model serving at version 1.
  EXPECT_EQ(engine.model_version(), 1u);
  EXPECT_TRUE(engine.Match("acer aspire 5", "acer aspire5").status.ok());
}

TEST_F(ServeFixture, ConcurrentSwapHammerDropsNoRequests) {
  // The TSan-facing test: clients submit while a swapper rotates models.
  // Every request must complete OK and carry a version the engine actually
  // served; in-flight batches finish on their old model.
  EngineOptions opts = BaseOptions();
  opts.max_batch_size = 4;
  opts.max_wait_us = 200;
  MatcherEngine engine(Matcher(), opts);

  // Pre-build the rotation so the swapper's loop is tight.
  std::vector<std::shared_ptr<core::EntityMatcher>> generations = {
      FreshMatcher(), FreshMatcher()};

  constexpr int kClients = 3;
  constexpr int kMinPerClient = 20;
  constexpr int kTargetSwaps = 3;
  std::atomic<int> swaps{0};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_seen{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kMinPerClient ||
                      (swaps.load(std::memory_order_acquire) < kTargetSwaps &&
                       i < kMinPerClient * 100);
           ++i) {
        MatchResult r = engine.Match("canon eos r6 camera", "canon eosr6");
        if (!r.status.ok() || r.model_version == 0) {
          failures.fetch_add(1);
        } else {
          uint64_t seen = max_seen.load(std::memory_order_relaxed);
          while (seen < r.model_version &&
                 !max_seen.compare_exchange_weak(seen, r.model_version)) {
          }
        }
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    while (!done.load(std::memory_order_acquire)) {
      Status s = engine.SwapModel(generations[swaps.load() % 2]);
      if (s.ok()) {
        swaps.fetch_add(1, std::memory_order_release);
      } else {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& c : clients) c.join();
  done.store(true, std::memory_order_release);
  swapper.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(swaps.load(), kTargetSwaps);
  EXPECT_EQ(engine.model_version(), 1u + static_cast<uint64_t>(swaps.load()));
  EXPECT_GE(max_seen.load(), 2u) << "no request was ever served post-swap";
  EXPECT_LE(max_seen.load(), engine.model_version());
  EXPECT_EQ(engine.Metrics().model_swaps, swaps.load());
}

}  // namespace
}  // namespace serve
}  // namespace emx
