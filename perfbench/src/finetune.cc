// finetune: EntityMatcher::FineTune for a fixed number of epochs on a
// seeded Walmart-Amazon set, in two sessions of half the epochs each,
// evaluating on the test split after every epoch (offline bulk scoring
// through EntityMatcher::Evaluate). All the
// work is in the training path: fp32 GEMM, fused attention forward and
// backward, autograd and Adam.

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "obs/trace.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Many short epochs (about 0.2 s each, three batches), each followed by
/// an evaluation, so training and evaluation alternate over the whole run
/// and both sample every stretch of the host's speed.
constexpr int64_t kEpochs = 64;
/// Set-ups per round, about 15 ms each (rounds and setup_s as in
/// pair_stream.cc).
constexpr int kSetupsPerRound = 5;
/// Training pairs per second the set is sized for: the training set holds
/// seconds * kSizingPairsPerSecond / kEpochs pairs. A constant, so a parent
/// and a change train on the same set.
constexpr double kSizingPairsPerSecond = 120.0;
constexpr int64_t kTestPairs = 48;
constexpr int64_t kMaxSeqLen = 48;

emx::core::FineTuneOptions Options(uint64_t seed, int64_t epochs) {
  emx::core::FineTuneOptions ft;
  ft.epochs = epochs;
  ft.batch_size = 16;
  ft.max_seq_len = kMaxSeqLen;
  // Every epoch then trains on exactly the training set, so pairs/s is
  // exact without re-deriving the oversampled order.
  ft.balance_classes = false;
  ft.seed = seed;
  return ft;
}

}  // namespace

void RunFineTune(const RunConfig& cfg, RunResult* out) {
  const Artefacts a(cfg.artefacts);
  const int64_t n_train = std::max<int64_t>(
      32, std::llround(cfg.seconds * kSizingPairsPerSecond / kEpochs));
  const emx::data::EmDataset dataset =
      MakeFineTuneDataset(cfg.seed, n_train, kTestPairs);
  const double train_pairs = static_cast<double>(dataset.train.size());
  const double test_pairs = static_cast<double>(dataset.test.size());
  // peak_rss_mb is the program's rise over the inputs the harness holds.
  const double rss_inputs_mb = RssMb();

  // Set-up rounds. The last set-up of the first round is fine-tuned; every
  // other matcher is dropped as soon as it is loaded.
  std::unique_ptr<emx::core::EntityMatcher> matcher;
  std::vector<double> setup_s, open_ms;
  auto setup_round = [&](bool keep) {
    for (int r = 0; r < kSetupsPerRound; ++r) {
      const Clock::time_point t0 = Clock::now();
      auto made = NewMatcher(a);
      if (!made.ok()) {
        out->Fail("set-up failed: " + made.status().ToString());
        return false;
      }
      const Clock::time_point l0 = Clock::now();
      const emx::Status s = made.value()->Load(a.model_fp32());
      if (!s.ok()) {
        out->Fail("set-up failed: " + s.ToString());
        return false;
      }
      open_ms.push_back(MsBetween(l0, Clock::now()));
      setup_s.push_back(SecondsSince(t0));
      if (keep && r == kSetupsPerRound - 1) matcher = std::move(made).value();
    }
    return true;
  };
  if (!setup_round(/*keep=*/true)) return;

  // Two fine-tuning sessions of half the epochs each, with a set-up round
  // between them. The traced run traces the second session.
  std::vector<emx::core::EpochRecord> first, second;
  {
    emx::obs::TraceSpan span("pb.core.fine_tune");
    first = matcher->FineTune(dataset, Options(cfg.seed, kEpochs / 2),
                              /*eval_each_epoch=*/true);
  }
  if (!setup_round(/*keep=*/false)) return;
  if (cfg.trace) emx::obs::StartProfiling(TraceOptions());
  {
    emx::obs::TraceSpan span("pb.core.fine_tune");
    second = matcher->FineTune(dataset,
                               Options(cfg.seed + 1, kEpochs - kEpochs / 2),
                               /*eval_each_epoch=*/true);
  }
  out->Set("peak_rss_mb", PeakRssMb() - rss_inputs_mb);
  out->Diag("rss.inputs_mb", rss_inputs_mb);
  if (!setup_round(/*keep=*/false)) return;
  out->Set("setup_s", Median(setup_s));
  out->Set("io.model_open_ms", Median(open_ms));

  // Epoch records: [0] is the zero-shot evaluation, then one per epoch.
  auto epochs_of = [](const std::vector<emx::core::EpochRecord>& s) {
    return std::vector<emx::core::EpochRecord>(
        s.begin() + std::min<size_t>(1, s.size()), s.end());
  };
  // The untraced figures: both sessions, or the first when the second is
  // traced.
  std::vector<emx::core::EpochRecord> ep = epochs_of(first);
  const std::vector<emx::core::EpochRecord> ep_second = epochs_of(second);
  if (!cfg.trace) ep.insert(ep.end(), ep_second.begin(), ep_second.end());
  std::vector<double> epoch_ms;
  double train_s = 0, eval_s = 0;
  int64_t evals = 0;
  for (const auto& r : ep) {
    epoch_ms.push_back(1000.0 * r.seconds);
    train_s += r.seconds;
  }
  int64_t bad_epochs = 0;
  for (const auto* session : {&first, &second}) {
    for (const auto& r : *session) {
      if (r.eval_seconds > 0 && (!cfg.trace || session == &first)) {
        eval_s += r.eval_seconds;
        ++evals;
      }
      if (!std::isfinite(r.train_loss) || !std::isfinite(r.test_f1)) {
        ++bad_epochs;
      }
    }
  }
  const int64_t n_epochs =
      static_cast<int64_t>(epochs_of(first).size() + ep_second.size());
  out->attempted = n_epochs * static_cast<int64_t>(train_pairs);
  out->failed = bad_epochs * static_cast<int64_t>(train_pairs);
  if (bad_epochs > 0) {
    out->Fail(std::to_string(bad_epochs) + " epochs with a non-finite loss");
  }
  if (ep.empty()) {
    out->Fail("no epoch records");
    return;
  }
  const double ops = train_pairs * static_cast<double>(ep.size()) / train_s;
  out->Set("ops_per_s", ops);
  out->Set("p50_ms", Percentile(epoch_ms, 0.5));
  out->Set("eval_pairs_per_s",
           eval_s > 0 ? test_pairs * static_cast<double>(evals) / eval_s : 0);
  out->Diag("train.pairs", train_pairs);
  out->Diag("test.pairs", test_pairs);
  out->Diag("train.epochs", static_cast<double>(ep.size()));
  out->Diag("train.final_loss", ep.back().train_loss);

  if (cfg.trace) {
    double tokenize = 0, forward = 0, backward = 0, optimizer = 0, wall = 0,
           eval = 0, tokens = 0;
    for (const auto& r : ep_second) {
      tokenize += r.tokenize_seconds;
      forward += r.forward_seconds;
      backward += r.backward_seconds;
      optimizer += r.optimizer_seconds;
      wall += r.seconds;
      tokens += r.tokens_per_sec * r.seconds;
    }
    for (const auto& r : second) eval += r.eval_seconds;
    const double n = std::max<double>(1, static_cast<double>(ep_second.size()));
    out->Set("core.tokenize_s", tokenize / n);
    out->Set("core.forward_s", forward / n);
    out->Set("core.backward_s", backward / n);
    out->Set("core.optimizer_s", optimizer / n);
    out->Set("core.tokens_per_s", wall > 0 ? tokens / wall : 0);
    out->Set("core.eval_s",
             eval / std::max<double>(1, static_cast<double>(second.size())));
    out->Set("core.train_loss", ep_second.empty()
                                    ? 0
                                    : ep_second.back().train_loss);
    out->Set("trace.coverage",
             wall > 0 ? (tokenize + forward + backward + optimizer) / wall : 0);
    out->Set("trace.overhead_ratio",
             wall > 0 ? (train_pairs * n / wall) / ops : 0);

    std::vector<TextPair> sample;
    for (size_t i = 0; i < dataset.train.size() && i < 256; ++i) {
      sample.emplace_back(dataset.SerializeA(dataset.train[i]),
                          dataset.SerializeB(dataset.train[i]));
    }
    ProbeShape shape;
    shape.batch = 16;
    shape.seq = kMaxSeqLen;
    ProbeLayers(matcher.get(), sample, shape, /*int8=*/false, out);
    emx::obs::StopProfiling();
  }
}

}  // namespace perfbench
