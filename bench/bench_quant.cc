// fp32 vs int8 post-training quantization sweep over the five paper
// datasets. For each dataset the harness fine-tunes a BERT matcher, then
// measures both precisions on the same weights:
//
//   - F1 on the test split (the accuracy gate: |ΔF1| <= 0.5 points),
//   - batched grad-free throughput (MatchProbabilities, the bulk path),
//     timed after quantization in alternating fp32/int8 passes on the one
//     quantized matcher (best of 9 each),
//   - served latency percentiles through the MatcherEngine with
//     EngineOptions::precision = {fp32, int8} (p50/p95 via ServingMetrics).
//
// Results are printed and written to BENCH_quant.json. `--smoke` runs one
// dataset (iTunes-Amazon) at half scale for one epoch and gates only
// "int8 batched pairs/s >= fp32" (on builds with the VNNI kernel); the
// |dF1| and 2x gates need the full run. Environment knobs (smoke defaults
// in brackets):
//
//   EMX_QUANT_EPOCHS   fine-tuning epochs per dataset       (default 5 [1])
//   EMX_QUANT_CALIB    calibration pairs, <=0 = whole train (default 0)
//   EMX_QUANT_PAIRS    requests per engine run              (default 256 [128])
//   EMX_QUANT_SCALE    extra multiplier on dataset scale    (default 2 [0.5])
//   EMX_QUANT_PRETRAIN 1 = pre-train the backbone first     (default 0)
//   EMX_QUANT_ONLY     comma list of dataset-name substrings (default all
//                      [iTunes])
//   EMX_QUANT_OBSERVER minmax | percentile                  (default minmax)
//   EMX_CACHE_DIR      tokenizer/zoo cache                  (default /tmp/emx_zoo_bench)
//
// Pre-training stays off by default: at this repo's miniature pre-training
// scale it does not improve fine-tuned F1 (see EXPERIMENTS.md
// "pre-training scale gate"), it only adds minutes. The quantization
// comparison itself is scale-independent — both precisions share the same
// fine-tuned weights, test split and batching config.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/report.h"
#include "core/entity_matcher.h"
#include "data/generators.h"
#include "nn/layers.h"
#include "quant/int8_gemm.h"
#include "quant/quantize_matcher.h"
#include "serve/matcher_engine.h"
#include "util/timer.h"

namespace emx {
namespace {

struct PrecisionStats {
  double f1 = 0;
  double batched_pairs_per_sec = 0;
  double engine_pairs_per_sec = 0;
  double p50_us = 0;
  double p95_us = 0;
};

struct DatasetRow {
  std::string name;
  PrecisionStats fp32;
  PrecisionStats int8;
  double delta_f1_points = 0;  // |F1_int8 - F1_fp32| * 100
  double mean_abs_dprob = 0;   // mean |p_int8 - p_fp32| over eval pairs
  double max_abs_dprob = 0;
  double speedup = 0;          // batched int8 / batched fp32
  int64_t num_linears = 0;
  int64_t num_ffns = 0;
};

std::vector<std::pair<std::string, std::string>> SerializePairs(
    const data::EmDataset& dataset, const std::vector<data::RecordPair>& pool,
    int64_t n) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const auto& p = pool[static_cast<size_t>(i) % pool.size()];
    pairs.emplace_back(dataset.SerializeA(p), dataset.SerializeB(p));
  }
  return pairs;
}

/// Batched grad-free throughput (MatchProbabilities) of one quantized
/// matcher at both precisions, in alternating fp32/int8 passes under
/// nn::QuantModeGuard. Interleaving exposes both precisions to the same
/// host load, and outside interference only ever slows a pass down, so the
/// best of kPasses per precision is the least-noisy estimate of each.
void BatchedPairsPerSec(
    core::EntityMatcher* matcher,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    double* fp32_pairs_per_sec, double* int8_pairs_per_sec) {
  constexpr int kPasses = 9;
  std::vector<std::string> as, bs;
  as.reserve(pairs.size());
  bs.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    as.push_back(a);
    bs.push_back(b);
  }
  *fp32_pairs_per_sec = 0;
  *int8_pairs_per_sec = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (bool int8 : {false, true}) {
      nn::QuantModeGuard quant(int8);
      Timer timer;
      (void)matcher->MatchProbabilities(as, bs);
      double* best = int8 ? int8_pairs_per_sec : fp32_pairs_per_sec;
      *best = std::max(
          *best, static_cast<double>(pairs.size()) / timer.ElapsedSeconds());
    }
  }
}

/// One engine run at a fixed batching config; only `precision` differs
/// between the fp32 and int8 rows, so the comparison is apples-to-apples.
void RunEngine(core::EntityMatcher* matcher, serve::Precision precision,
               const std::vector<std::pair<std::string, std::string>>& pairs,
               PrecisionStats* stats) {
  serve::EngineOptions opts;
  opts.precision = precision;
  opts.max_batch_size = 16;
  opts.max_wait_us = 2000;
  opts.max_seq_len = matcher->eval_max_seq_len();
  opts.queue_capacity = static_cast<int64_t>(pairs.size()) + 16;
  serve::MatcherEngine engine(matcher, opts);

  Timer timer;
  std::vector<std::future<serve::MatchResult>> futures;
  futures.reserve(pairs.size());
  for (const auto& [a, b] : pairs) futures.push_back(engine.Submit(a, b));
  for (auto& f : futures) (void)f.get();
  const double seconds = timer.ElapsedSeconds();

  serve::MetricsSnapshot m = engine.Metrics();
  stats->engine_pairs_per_sec = static_cast<double>(pairs.size()) / seconds;
  stats->p50_us = m.p50_latency_us;
  stats->p95_us = m.p95_latency_us;
}

DatasetRow RunDataset(data::DatasetId id, const pretrain::ZooOptions& zoo,
                      bool smoke) {
  const auto& spec = data::SpecFor(id);
  DatasetRow row;
  row.name = spec.name;

  data::GeneratorOptions gen;
  gen.scale = bench::DatasetScale(id) *
              bench::EnvDouble("EMX_QUANT_SCALE", smoke ? 0.5 : 2.0);
  data::EmDataset dataset = data::GenerateDataset(id, gen);

  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return row;
  }
  core::EntityMatcher matcher(std::move(bundle).value());
  // Evaluate/calibrate at the fine-tuning sequence length: a shorter eval
  // truncation than the model was tuned on shifts activation ranges and
  // pushes predictions toward the threshold.
  matcher.set_eval_max_seq_len(bench::DatasetSeqLen(id));

  core::FineTuneOptions ft = bench::BenchFineTune(id);
  ft.epochs = bench::EnvInt("EMX_QUANT_EPOCHS", smoke ? 1 : 5);
  std::printf("%-16s fine-tuning (%lld train pairs, %lld epochs)...\n",
              spec.name, static_cast<long long>(dataset.train.size()),
              static_cast<long long>(ft.epochs));
  std::fflush(stdout);
  (void)matcher.FineTune(dataset, ft);

  const int64_t engine_pairs =
      bench::EnvInt("EMX_QUANT_PAIRS", smoke ? 128 : 256);
  auto workload = SerializePairs(dataset, dataset.test, engine_pairs);

  // The F1 gate compares both precisions on every held-out pair —
  // valid + test. Neither split touches fine-tuning (and calibration reads
  // the train split), and at toy dataset scale the wider set halves how
  // far a single borderline pair can move F1.
  std::vector<data::RecordPair> eval_pairs = dataset.valid;
  eval_pairs.insert(eval_pairs.end(), dataset.test.begin(),
                    dataset.test.end());
  std::vector<std::string> eval_a, eval_b;
  eval_a.reserve(eval_pairs.size());
  eval_b.reserve(eval_pairs.size());
  for (const auto& p : eval_pairs) {
    eval_a.push_back(dataset.SerializeA(p));
    eval_b.push_back(dataset.SerializeB(p));
  }

  // ---- fp32 reference (QuantMode pinned off so later runs with backends
  // attached would take the same path; here none are attached yet).
  std::vector<double> probs_fp32;
  {
    nn::QuantModeGuard fp32_only(false);
    row.fp32.f1 = matcher.Evaluate(dataset, eval_pairs).f1;
    probs_fp32 = matcher.MatchProbabilities(eval_a, eval_b);
  }
  RunEngine(&matcher, serve::Precision::kFp32, workload, &row.fp32);

  // ---- quantize: calibrate on the train split. The whole split by
  // default — min/max observers must see the full activation range, and an
  // under-covered slice saturates the extremes the grid never observed.
  quant::CalibrationData calib;
  const int64_t calib_env = bench::EnvInt("EMX_QUANT_CALIB", 0);
  const int64_t calib_pairs =
      calib_env <= 0 ? static_cast<int64_t>(dataset.train.size())
                     : std::min<int64_t>(calib_env,
                                         static_cast<int64_t>(
                                             dataset.train.size()));
  for (const auto& [a, b] : SerializePairs(dataset, dataset.train,
                                           calib_pairs)) {
    calib.texts_a.push_back(a);
    calib.texts_b.push_back(b);
  }
  quant::QuantizeOptions qopts;
  if (bench::EnvString("EMX_QUANT_OBSERVER", "minmax") == "percentile") {
    qopts.observer = quant::ObserverKind::kPercentile;
  }
  auto report = quant::QuantizeMatcher(&matcher, calib, qopts);
  if (!report.ok()) {
    std::printf("error: %s\n", report.status().ToString().c_str());
    return row;
  }
  row.num_linears = report.value().num_linears;
  row.num_ffns = report.value().num_ffns;

  // ---- int8 (QuantMode defaults on for grad-free forwards).
  row.int8.f1 = matcher.Evaluate(dataset, eval_pairs).f1;
  const std::vector<double> probs_int8 =
      matcher.MatchProbabilities(eval_a, eval_b);
  BatchedPairsPerSec(&matcher, workload, &row.fp32.batched_pairs_per_sec,
                     &row.int8.batched_pairs_per_sec);
  RunEngine(&matcher, serve::Precision::kInt8, workload, &row.int8);

  // Threshold-independent fidelity: how far int8 moves P(match) itself.
  // F1 only changes when a pair crosses 0.5, so on a confidently-predicting
  // model ΔF1 can be 0 while this still reports the true quantization error.
  for (size_t i = 0; i < probs_fp32.size(); ++i) {
    const double d = std::fabs(probs_int8[i] - probs_fp32[i]);
    row.mean_abs_dprob += d;
    row.max_abs_dprob = std::max(row.max_abs_dprob, d);
  }
  if (!probs_fp32.empty()) {
    row.mean_abs_dprob /= static_cast<double>(probs_fp32.size());
  }

  row.delta_f1_points = std::fabs(row.int8.f1 - row.fp32.f1) * 100.0;
  row.speedup =
      row.int8.batched_pairs_per_sec / row.fp32.batched_pairs_per_sec;
  return row;
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
  zoo.skip_pretraining = bench::EnvInt("EMX_QUANT_PRETRAIN", 0) == 0;

  const data::DatasetId ids[] = {
      data::DatasetId::kAbtBuy, data::DatasetId::kItunesAmazon,
      data::DatasetId::kWalmartAmazon, data::DatasetId::kDblpAcm,
      data::DatasetId::kDblpScholar};

  std::printf(
      "bench_quant — int8 PTQ vs fp32, BERT matcher, VNNI kernel: %s%s\n\n",
      quant::HasVnniKernel() ? "yes" : "no (scalar)", smoke ? " (--smoke)" : "");

  // EMX_QUANT_ONLY="Abt,Scholar" restricts the sweep for quick iteration:
  // a dataset runs when any comma-separated token is a substring of its name.
  const std::string only =
      bench::EnvString("EMX_QUANT_ONLY", smoke ? "iTunes" : "");
  const auto selected = [&only](const char* name) {
    if (only.empty()) return true;
    const std::string n(name);
    for (size_t start = 0; start <= only.size();) {
      size_t comma = only.find(',', start);
      if (comma == std::string::npos) comma = only.size();
      const std::string tok = only.substr(start, comma - start);
      if (!tok.empty() && n.find(tok) != std::string::npos) return true;
      start = comma + 1;
    }
    return false;
  };
  std::vector<DatasetRow> rows;
  for (data::DatasetId id : ids) {
    if (selected(data::SpecFor(id).name)) {
      rows.push_back(RunDataset(id, zoo, smoke));
    }
  }

  std::printf("\n%-16s %9s %9s %7s %8s | %12s %12s %7s | %9s %9s\n",
              "dataset", "F1 fp32", "F1 int8", "dF1 pt", "mean|dp|",
              "fp32 pair/s", "int8 pair/s", "speedup", "int8 p50",
              "int8 p95");
  bench::Report report("quant");
  report.Set("vnni_kernel", quant::HasVnniKernel());
  report.Set("smoke", smoke);
  std::vector<bench::JsonObject> dataset_rows;
  for (const DatasetRow& r : rows) {
    std::printf(
        "%-16s %9.4f %9.4f %7.2f %8.4f | %12.1f %12.1f %6.2fx | %7.0fus "
        "%7.0fus\n",
        r.name.c_str(), r.fp32.f1, r.int8.f1, r.delta_f1_points,
        r.mean_abs_dprob, r.fp32.batched_pairs_per_sec,
        r.int8.batched_pairs_per_sec, r.speedup, r.int8.p50_us, r.int8.p95_us);
    dataset_rows.push_back(
        bench::JsonObject()
            .Set("name", r.name)
            .Set("f1_fp32", r.fp32.f1, 4)
            .Set("f1_int8", r.int8.f1, 4)
            .Set("delta_f1_points", r.delta_f1_points)
            .Set("mean_abs_dprob", r.mean_abs_dprob, 5)
            .Set("max_abs_dprob", r.max_abs_dprob, 5)
            .Set("fp32_pairs_per_sec", r.fp32.batched_pairs_per_sec, 1)
            .Set("int8_pairs_per_sec", r.int8.batched_pairs_per_sec, 1)
            .Set("speedup", r.speedup)
            .Set("fp32_engine_pairs_per_sec", r.fp32.engine_pairs_per_sec, 1)
            .Set("int8_engine_pairs_per_sec", r.int8.engine_pairs_per_sec, 1)
            .Set("fp32_p50_us", r.fp32.p50_us, 1)
            .Set("fp32_p95_us", r.fp32.p95_us, 1)
            .Set("int8_p50_us", r.int8.p50_us, 1)
            .Set("int8_p95_us", r.int8.p95_us, 1)
            .Set("num_linears", r.num_linears)
            .Set("num_ffns", r.num_ffns));
    if (smoke) {
      report.Skip(r.name + " |dF1| points",
                  "full run only: one epoch at smoke scale");
      report.Skip(r.name + " int8 speedup", "full run only");
    } else {
      report.Gate(r.name + " |dF1| points", r.delta_f1_points, "<=", 0.5);
      report.Gate(r.name + " int8 speedup", r.speedup, ">=", 2.0);
    }
    // The scalar fallback is a correctness reference, not a fast path.
    if (quant::HasVnniKernel()) {
      report.Gate(r.name + " int8 pairs/s >= fp32", r.speedup, ">=", 1.0);
    } else {
      report.Skip(r.name + " int8 pairs/s >= fp32",
                  "no VNNI kernel in this build");
    }
  }
  report.Set("datasets", dataset_rows);
  return report.Finish();
}
