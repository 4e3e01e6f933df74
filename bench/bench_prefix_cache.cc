// Split-encoder prefix cache: effective 1-vs-N re-rank throughput and the
// accuracy ladder for emx::serve's candidate-side activation caching.
//
// Three sections, three gates:
//
//   1. Throughput — a deep encoder (8 layers by default; weights random,
//      which QPS does not care about) re-ranks pinned queries against a
//      catalog under Zipf-skewed hot-entity traffic, split-serving at
//      k in {0, L/2, 3L/4, L-1} vs the unsplit baseline.
//      GATE: best ladder point >= 5x effective pairs/sec (>= 1.5x in
//      --smoke, where the model is shallow and overheads dominate).
//
//   2. Exactness — k = 0 caches per-entity *embeddings*; blocked attention
//      keys contribute exactly zero and every kernel is row-independent, so
//      the split path must reproduce the full cross-encoder bit-for-bit.
//      GATE: probabilities identical (==, not NEAR) under fp32 AND int8.
//
//   3. Accuracy ladder — a fine-tuned scaled BERT (2 layers) evaluated
//      with full Logits vs LogitsSplit(k): at k > 0 the lower layers go
//      segment-local, which is a different function; the ladder measures
//      what that costs.
//      GATE: |dF1| <= 0.1 points at the shipped default split layer
//      (DefaultSplitLayer(L) = L/2). Skipped in --smoke (no fine-tune);
//      k = 0 exactness stands in for it there.
//
// Results are printed and written to BENCH_prefix_cache.json. Knobs:
//
//   EMX_PREFIX_LAYERS    throughput model depth          (default 8)
//   EMX_PREFIX_HIDDEN    throughput model width          (default 128)
//   EMX_PREFIX_REQUESTS  re-rank requests per ladder run (default 1024)
//   EMX_PREFIX_CATALOG   catalog entities                (default 192)
//   EMX_PREFIX_EPOCHS    fine-tuning epochs (accuracy)   (default 5)
//   EMX_PREFIX_SCALE     dataset scale mult (accuracy)   (default 2)
//   EMX_CACHE_DIR        tokenizer/zoo cache   (default /tmp/emx_zoo_bench)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/report.h"
#include "core/entity_matcher.h"
#include "data/generators.h"
#include "models/classifier.h"
#include "models/encoder.h"
#include "pretrain/model_zoo.h"
#include "quant/quantize_matcher.h"
#include "serve/matcher_engine.h"
#include "tensor/variable.h"
#include "util/rng.h"
#include "util/timer.h"

namespace emx {
namespace {

// ---- Zipf-skewed candidate traffic -----------------------------------------

/// Rank-frequency Zipf sampler (s = 1): rank r is drawn with probability
/// proportional to 1/(r+1) — the handful of head entities dominates, the
/// long tail trickles, which is exactly the traffic shape a candidate-side
/// cache is built for.
class ZipfSampler {
 public:
  explicit ZipfSampler(int64_t n) {
    cdf_.reserve(static_cast<size_t>(n));
    double total = 0;
    for (int64_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    total_ = total;
  }
  int64_t Sample(Rng* rng) {
    const double u = rng->NextDouble() * total_;
    return static_cast<int64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  double total_ = 0;
};

std::vector<std::string> MakeCatalog(int64_t n, Rng* rng) {
  const char* brands[] = {"acer",   "sony",  "canon", "lenovo",
                          "garmin", "bosch", "haier", "nikon"};
  const char* nouns[] = {"laptop", "camera", "monitor", "router",
                         "tablet", "drive",  "speaker", "printer"};
  std::vector<std::string> catalog;
  catalog.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s %s model zx%lld series %lld with %lld gb storage and "
                  "%lld inch display silver edition %lld",
                  brands[rng->NextInt(0, 7)], nouns[rng->NextInt(0, 7)],
                  static_cast<long long>(1000 + i),
                  static_cast<long long>(rng->NextInt(1, 9)),
                  static_cast<long long>(64 * rng->NextInt(1, 8)),
                  static_cast<long long>(rng->NextInt(11, 17)),
                  static_cast<long long>(i));
    catalog.emplace_back(buf);
  }
  return catalog;
}

// ---- Section 1: throughput ladder ------------------------------------------

/// A deep random-weight matcher: the zoo's trained tokenizer (so text maps
/// to a real vocab) under a manually-sized encoder. Random weights are fine
/// for throughput — QPS depends on shapes, not values.
std::unique_ptr<core::EntityMatcher> BuildDeepMatcher(
    const pretrain::ZooOptions& zoo, int64_t layers, int64_t hidden,
    int64_t max_seq_len) {
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return nullptr;
  }
  models::TransformerConfig cfg = models::TransformerConfig::Scaled(
      models::Architecture::kBert, bundle.value().tokenizer->vocab_size());
  cfg.num_layers = layers;
  cfg.hidden = hidden;
  cfg.num_heads = hidden / 32;
  cfg.intermediate = hidden * 4;
  cfg.max_seq_len = max_seq_len;
  Rng rng(7);
  pretrain::PretrainedBundle deep;
  deep.model = std::make_unique<models::EncoderModel>(cfg, &rng);
  deep.tokenizer = std::move(bundle.value().tokenizer);
  auto matcher = std::make_unique<core::EntityMatcher>(std::move(deep));
  matcher->set_eval_max_seq_len(max_seq_len);
  return matcher;
}

struct LadderPoint {
  int64_t split_layer = -1;  // -1 = unsplit baseline
  double pairs_per_sec = 0;
  double speedup = 1.0;
  double prefix_hit_rate = 0;
  int64_t prefix_evictions = 0;
  int64_t prefix_bytes = 0;
};

serve::EngineOptions ThroughputEngineOptions(int64_t max_seq_len,
                                             int64_t requests) {
  serve::EngineOptions opts;
  opts.max_batch_size = 16;
  opts.max_wait_us = 2000;
  opts.max_seq_len = max_seq_len;
  opts.bucket_width = max_seq_len;
  opts.queue_capacity = requests + 16;
  return opts;
}

/// Replays the same (query, candidate) sequence through one engine config:
/// queries pinned in contiguous 1-vs-N blocks, candidates Zipf-drawn.
LadderPoint RunLadderPoint(core::EntityMatcher* matcher, int64_t split_layer,
                           const std::vector<std::string>& queries,
                           const std::vector<std::string>& catalog,
                           const std::vector<int64_t>& candidate_ids,
                           int64_t max_seq_len) {
  serve::EngineOptions opts = ThroughputEngineOptions(
      max_seq_len, static_cast<int64_t>(candidate_ids.size()));
  opts.split_layer = split_layer;
  serve::MatcherEngine engine(matcher, opts);

  const size_t per_query = candidate_ids.size() / queries.size();
  Timer timer;
  std::vector<std::future<serve::MatchResult>> futures;
  futures.reserve(candidate_ids.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const serve::PinnedQuery pinned = engine.PinQuery(queries[q]);
    for (size_t i = 0; i < per_query; ++i) {
      const std::string& cand =
          catalog[static_cast<size_t>(candidate_ids[q * per_query + i])];
      if (split_layer >= 0) {
        futures.push_back(engine.SubmitAgainst(pinned, cand));
      } else {
        futures.push_back(engine.Submit(queries[q], cand));
      }
    }
  }
  for (auto& f : futures) (void)f.get();
  const double seconds = timer.ElapsedSeconds();

  LadderPoint point;
  point.split_layer = split_layer;
  point.pairs_per_sec = static_cast<double>(futures.size()) / seconds;
  serve::MetricsSnapshot m = engine.Metrics();
  point.prefix_hit_rate = m.prefix_hit_rate;
  point.prefix_evictions = m.prefix_evictions;
  point.prefix_bytes = m.prefix_bytes;
  return point;
}

// ---- Section 2: k = 0 exactness --------------------------------------------

/// Serves `pairs` through a split(k=0) engine and an unsplit engine over
/// the same matcher/precision; returns the count of bit-level mismatches.
int64_t CountK0Mismatches(core::EntityMatcher* matcher,
                          serve::Precision precision, int64_t max_seq_len,
                          const std::vector<std::pair<std::string,
                                                      std::string>>& pairs) {
  serve::EngineOptions base;
  base.max_seq_len = max_seq_len;
  base.bucket_width = max_seq_len;
  base.max_wait_us = 1000;
  base.precision = precision;
  serve::MatcherEngine full(matcher, base);
  serve::EngineOptions split_opts = base;
  split_opts.split_layer = 0;
  serve::MatcherEngine split(matcher, split_opts);

  int64_t mismatches = 0;
  for (const auto& [a, b] : pairs) {
    const serve::MatchResult rf = full.Match(a, b);
    const serve::MatchResult rs = split.Match(a, b);
    if (!rf.status.ok() || !rs.status.ok() ||
        rf.probability != rs.probability) {
      ++mismatches;
    }
    // Second pass through the cache must stay identical too.
    const serve::MatchResult again = split.Match(a, b);
    if (again.probability != rf.probability) ++mismatches;
  }
  return mismatches;
}

// ---- Section 3: accuracy ladder --------------------------------------------

double F1Score(const std::vector<int64_t>& preds,
               const std::vector<int64_t>& labels) {
  int64_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == 1 && labels[i] == 1) ++tp;
    if (preds[i] == 1 && labels[i] == 0) ++fp;
    if (preds[i] == 0 && labels[i] == 1) ++fn;
  }
  const int64_t denom = 2 * tp + fp + fn;
  return denom == 0 ? 0.0 : 2.0 * static_cast<double>(tp) /
                                static_cast<double>(denom);
}

/// P(match) for every pair, computed with the full cross-encoder
/// (split_layer < 0) or the segment-local split forward.
std::vector<double> EvalProbs(core::EntityMatcher* matcher,
                              const std::vector<std::string>& as,
                              const std::vector<std::string>& bs,
                              int64_t split_layer) {
  std::vector<double> probs;
  probs.reserve(as.size());
  constexpr size_t kChunk = 32;
  NoGradGuard guard;
  Rng rng(0);
  for (size_t begin = 0; begin < as.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, as.size());
    const std::vector<std::string> ca(as.begin() + begin, as.begin() + end);
    const std::vector<std::string> cb(bs.begin() + begin, bs.begin() + end);
    models::Batch batch =
        matcher->BuildBatch(ca, cb, matcher->eval_max_seq_len());
    Variable logits =
        split_layer < 0
            ? matcher->classifier()->Logits(batch, /*train=*/false, &rng)
            : matcher->classifier()->LogitsSplit(batch, split_layer,
                                                 /*train=*/false, &rng);
    for (int64_t r = 0; r < batch.batch_size; ++r) {
      const double l0 = logits.value()[r * 2];
      const double l1 = logits.value()[r * 2 + 1];
      const double m = std::max(l0, l1);
      probs.push_back(std::exp(l1 - m) /
                      (std::exp(l0 - m) + std::exp(l1 - m)));
    }
  }
  return probs;
}

}  // namespace
}  // namespace emx

int main(int argc, char** argv) {
  using namespace emx;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  pretrain::ZooOptions zoo = bench::BenchZoo();
  zoo.skip_pretraining = true;

  const int64_t layers =
      smoke ? 6 : bench::EnvInt("EMX_PREFIX_LAYERS", 8);
  const int64_t hidden =
      smoke ? 64 : bench::EnvInt("EMX_PREFIX_HIDDEN", 128);
  const int64_t requests =
      smoke ? 384 : bench::EnvInt("EMX_PREFIX_REQUESTS", 1024);
  const int64_t catalog_size =
      smoke ? 64 : bench::EnvInt("EMX_PREFIX_CATALOG", 192);
  constexpr int64_t kSeqLen = 64;
  const double speedup_gate = smoke ? 1.5 : 5.0;

  std::printf(
      "bench_prefix_cache — split-encoder prefix reuse for 1-vs-N re-rank\n"
      "throughput model: %lld layers, hidden %lld; %lld Zipf requests over "
      "%lld catalog entities%s\n\n",
      static_cast<long long>(layers), static_cast<long long>(hidden),
      static_cast<long long>(requests), static_cast<long long>(catalog_size),
      smoke ? " [smoke]" : "");

  // ---- Section 1: throughput ladder.
  auto deep = BuildDeepMatcher(zoo, layers, hidden, kSeqLen);
  if (deep == nullptr) return 1;

  Rng traffic_rng(42);
  const std::vector<std::string> catalog =
      MakeCatalog(catalog_size, &traffic_rng);
  const std::vector<std::string> queries = {
      "acer laptop zx1003 silver 256 gb thirteen inch display",
      "sony camera zx1077 with 128 gb and fifteen inch screen",
      "garmin router zx1150 series 4 silver edition compact",
      "nikon monitor zx1042 silver 512 gb large display model",
  };
  ZipfSampler zipf(catalog_size);
  std::vector<int64_t> candidate_ids;
  candidate_ids.reserve(static_cast<size_t>(requests));
  for (int64_t i = 0; i < requests; ++i) {
    candidate_ids.push_back(zipf.Sample(&traffic_rng));
  }

  LadderPoint baseline = RunLadderPoint(deep.get(), -1, queries, catalog,
                                        candidate_ids, kSeqLen);
  std::vector<int64_t> ladder_ks = {0, layers / 2, 3 * layers / 4,
                                    layers - 1};
  ladder_ks.erase(std::unique(ladder_ks.begin(), ladder_ks.end()),
                  ladder_ks.end());
  std::vector<LadderPoint> ladder;
  for (int64_t k : ladder_ks) {
    LadderPoint p = RunLadderPoint(deep.get(), k, queries, catalog,
                                   candidate_ids, kSeqLen);
    p.speedup = p.pairs_per_sec / baseline.pairs_per_sec;
    ladder.push_back(p);
  }

  std::printf("%-12s %12s %9s %9s %11s %10s\n", "split_layer", "pairs/sec",
              "speedup", "hit rate", "evictions", "bytes");
  std::printf("%-12s %12.1f %8.2fx %9s %11s %10s\n", "off (full)",
              baseline.pairs_per_sec, 1.0, "-", "-", "-");
  double best_speedup = 0;
  std::vector<bench::JsonObject> ladder_rows;
  for (const LadderPoint& p : ladder) {
    std::printf("%-12lld %12.1f %8.2fx %8.1f%% %11lld %10lld\n",
                static_cast<long long>(p.split_layer), p.pairs_per_sec,
                p.speedup, p.prefix_hit_rate * 100.0,
                static_cast<long long>(p.prefix_evictions),
                static_cast<long long>(p.prefix_bytes));
    best_speedup = std::max(best_speedup, p.speedup);
    ladder_rows.push_back(bench::JsonObject()
                              .Set("split_layer", p.split_layer)
                              .Set("pairs_per_sec", p.pairs_per_sec, 1)
                              .Set("speedup", p.speedup)
                              .Set("prefix_hit_rate", p.prefix_hit_rate, 4)
                              .Set("prefix_evictions", p.prefix_evictions)
                              .Set("prefix_bytes", p.prefix_bytes));
  }

  // ---- Section 2: k = 0 exactness (fp32 and int8) on the zoo matcher.
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  core::EntityMatcher exact_matcher(std::move(bundle).value());
  exact_matcher.set_eval_max_seq_len(48);
  std::vector<std::pair<std::string, std::string>> exact_pairs;
  for (int64_t i = 0; i < 24; ++i) {
    exact_pairs.emplace_back(
        catalog[static_cast<size_t>(i % catalog_size)],
        catalog[static_cast<size_t>((i * 7 + 1) % catalog_size)]);
  }
  const int64_t fp32_mismatches = CountK0Mismatches(
      &exact_matcher, serve::Precision::kFp32, 48, exact_pairs);

  quant::CalibrationData calib;
  for (int64_t i = 0; i < 16; ++i) {
    calib.texts_a.push_back(catalog[static_cast<size_t>(i)]);
    calib.texts_b.push_back(catalog[static_cast<size_t>(i + 1)]);
  }
  int64_t int8_mismatches = -1;
  if (quant::QuantizeMatcher(&exact_matcher, calib).ok()) {
    int8_mismatches = CountK0Mismatches(&exact_matcher,
                                        serve::Precision::kInt8, 48,
                                        exact_pairs);
  }
  const bool exact_pass = fp32_mismatches == 0 && int8_mismatches == 0;
  std::printf("\nk=0 exactness: fp32 mismatches %lld, int8 mismatches %lld\n",
              static_cast<long long>(fp32_mismatches),
              static_cast<long long>(int8_mismatches));

  // ---- Section 3: accuracy ladder on a fine-tuned scaled BERT.
  std::vector<bench::JsonObject> accuracy_rows;
  int64_t shipped_default = 0;
  double shipped_delta_f1 = 0;
  if (!smoke) {
    const data::DatasetId id = data::DatasetId::kWalmartAmazon;
    data::GeneratorOptions gen;
    gen.scale =
        bench::DatasetScale(id) * bench::EnvDouble("EMX_PREFIX_SCALE", 2.0);
    data::EmDataset dataset = data::GenerateDataset(id, gen);
    auto ft_bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
    if (!ft_bundle.ok()) {
      std::printf("error: %s\n", ft_bundle.status().ToString().c_str());
      return 1;
    }
    core::EntityMatcher ft(std::move(ft_bundle).value());
    ft.set_eval_max_seq_len(bench::DatasetSeqLen(id));
    core::FineTuneOptions ftopts = bench::BenchFineTune(id);
    ftopts.epochs = bench::EnvInt("EMX_PREFIX_EPOCHS", 5);
    std::printf("\nfine-tuning %s (%lld pairs, %lld epochs) for the "
                "accuracy ladder...\n",
                data::SpecFor(id).name,
                static_cast<long long>(dataset.train.size()),
                static_cast<long long>(ftopts.epochs));
    std::fflush(stdout);
    (void)ft.FineTune(dataset, ftopts);

    std::vector<data::RecordPair> eval_pairs = dataset.valid;
    eval_pairs.insert(eval_pairs.end(), dataset.test.begin(),
                      dataset.test.end());
    std::vector<std::string> as, bs;
    std::vector<int64_t> labels;
    for (const auto& p : eval_pairs) {
      as.push_back(dataset.SerializeA(p));
      bs.push_back(dataset.SerializeB(p));
      labels.push_back(p.label);
    }
    const std::vector<double> full_probs = EvalProbs(&ft, as, bs, -1);
    std::vector<int64_t> full_preds;
    for (double p : full_probs) full_preds.push_back(p >= 0.5 ? 1 : 0);
    const double f1_full = F1Score(full_preds, labels);

    const int64_t L = ft.classifier()->config().num_layers;
    shipped_default = serve::DefaultSplitLayer(L);
    std::printf("%-12s %9s %9s %8s %10s\n", "split_layer", "F1 full",
                "F1 split", "dF1 pt", "mean|dp|");
    for (int64_t k = 0; k < L; ++k) {
      const std::vector<double> split_probs = EvalProbs(&ft, as, bs, k);
      std::vector<int64_t> split_preds;
      double dp = 0;
      for (size_t i = 0; i < split_probs.size(); ++i) {
        split_preds.push_back(split_probs[i] >= 0.5 ? 1 : 0);
        dp += std::fabs(split_probs[i] - full_probs[i]);
      }
      const double f1_split = F1Score(split_preds, labels);
      const double delta_f1_points = std::fabs(f1_split - f1_full) * 100.0;
      const double mean_abs_dprob =
          split_probs.empty() ? 0 : dp / static_cast<double>(
                                             split_probs.size());
      std::printf("%-12lld %9.4f %9.4f %8.2f %10.5f\n",
                  static_cast<long long>(k), f1_full, f1_split,
                  delta_f1_points, mean_abs_dprob);
      accuracy_rows.push_back(bench::JsonObject()
                                  .Set("split_layer", k)
                                  .Set("f1_full", f1_full, 4)
                                  .Set("f1_split", f1_split, 4)
                                  .Set("delta_f1_points", delta_f1_points)
                                  .Set("mean_abs_dprob", mean_abs_dprob, 5));
      if (k == shipped_default) shipped_delta_f1 = delta_f1_points;
    }
  } else {
    std::printf("accuracy ladder skipped in --smoke (k=0 exactness above "
                "covers the shipped-exact configuration)\n");
  }

  bench::Report report("prefix_cache");
  report.Set("smoke", smoke)
      .Set("throughput", bench::JsonObject()
                             .Set("layers", layers)
                             .Set("hidden", hidden)
                             .Set("requests", requests)
                             .Set("catalog", catalog_size)
                             .Set("baseline_pairs_per_sec",
                                  baseline.pairs_per_sec, 1)
                             .Set("best_speedup", best_speedup)
                             .Set("speedup_gate", speedup_gate, 1)
                             .Set("ladder", ladder_rows))
      .Set("exactness", bench::JsonObject()
                            .Set("fp32_mismatches", fp32_mismatches)
                            .Set("int8_mismatches", int8_mismatches))
      .Set("accuracy", bench::JsonObject()
                           .Set("shipped_split_layer", shipped_default)
                           .Set("ladder", accuracy_rows));
  report.Gate("best speedup", best_speedup, ">=", speedup_gate);
  report.Check("k=0 bit-identical fp32+int8", exact_pass);
  if (smoke) {
    report.Skip("|dF1| at the shipped split layer",
                "no fine-tune in --smoke; k=0 exactness stands in");
  } else {
    report.Gate("|dF1| at the shipped split layer", shipped_delta_f1, "<=",
                0.1);
  }
  return report.Finish();
}
