// Fused tiled attention vs the unfused autograd reference chain.
//
// For each sequence length the harness times the attention core — from the
// projected [B, T, H] q/k/v through the merged context, i.e. exactly what
// autograd::FusedAttention replaces (head split, QK^T, scale, masked
// softmax, dropout, PV, head merge) — in three modes:
//
//   fwd        grad-free forward (NoGradGuard; the serving path),
//   train      forward + backward through leaf q/k/v (the training step),
//   memory     peak Tensor bytes allocated by one grad-enabled forward,
//              fused vs reference (proves the fused path never materializes
//              the [B, heads, Tq, Tk] prob tensor).
//
// Each case also reports the achieved GFLOP/s of the fused forward and
// training step, counting the matrix products only: 4 B h Tq Tk dh FLOPs
// forward (QK^T and PV) and 10 B h Tq Tk dh more backward (the recomputed
// scores, dprob, dq, dk and dv).
//
// Results are printed and written to BENCH_attention.json with three gates:
//
//   exact      fused forward bit-identical to the reference chain,
//   speedup    fused train step >= 1.5x reference at T=256 (single thread),
//   memory     fused peak forward bytes < reference peak forward bytes.
//
// The pool defaults to one thread (EMX_NUM_THREADS is set before the first
// tensor op unless the caller already exported it) so the speedup measures
// the kernel, not the parallelism. `--smoke` runs a seconds-long subset for
// CI: exactness + memory gates on small shapes, no timing gate.
//
// Environment knobs:
//   EMX_NUM_THREADS   pool size                    (default 1 here)
//   EMX_ATTN_REPS     timing reps, best-of         (default 5)
//   EMX_ATTN_BATCH    batch size                   (default 8)
//   EMX_ATTN_DROPOUT  train-mode dropout p         (default 0.1)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/report.h"
#include "tensor/autograd_ops.h"
#include "tensor/fused_attention.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace emx {
namespace {

namespace ag = autograd;

struct ShapeCase {
  int64_t batch;
  int64_t heads;
  int64_t head_dim;
  int64_t seq;    // key/value rows, Tk
  int64_t q_rows; // query rows, Tq: seq, or 1 for the [CLS]-row layer
  bool gated;     // the T=256 training-step speedup gate applies here
};

struct CaseResult {
  ShapeCase shape;
  double fwd_ref_ms = 0;
  double fwd_fused_ms = 0;
  double train_ref_ms = 0;
  double train_fused_ms = 0;
  double fwd_speedup = 0;
  double train_speedup = 0;
  int64_t peak_ref_bytes = 0;
  int64_t peak_fused_bytes = 0;
  bool exact = false;
  double fwd_gflops = 0;
  double train_gflops = 0;
};

struct Inputs {
  Variable q, k, v;
  Tensor mask;
};

Inputs MakeInputs(const ShapeCase& s, bool requires_grad, Rng* rng) {
  const int64_t hidden = s.heads * s.head_dim;
  Inputs in;
  auto make = [&](uint64_t salt, int64_t rows) {
    Rng local(1234 + salt);
    Tensor t = Tensor::Randn({s.batch, rows, hidden}, &local, 0.5f);
    return requires_grad ? Variable::Parameter(std::move(t))
                         : Variable::Constant(std::move(t));
  };
  in.q = make(1, s.q_rows);
  in.k = make(2, s.seq);
  in.v = make(3, s.seq);
  // Padding mask blocking the tail quarter of the key axis, as the matcher
  // does for short pairs: [B, 1, 1, Tk], 1 = blocked.
  in.mask = Tensor::Zeros({s.batch, 1, 1, s.seq});
  for (int64_t b = 0; b < s.batch; ++b) {
    for (int64_t j = s.seq - s.seq / 4; j < s.seq; ++j) {
      in.mask.data()[b * s.seq + j] = 1.0f;
    }
  }
  (void)rng;
  return in;
}

/// The exact unfused chain FusedAttention replaces, including head
/// split/merge (mirrors reference::AttentionReference in the tests minus
/// the projections).
Variable ReferenceCore(const Inputs& in, const ShapeCase& s, float dropout_p,
                       bool train, Rng* rng) {
  const int64_t hidden = s.heads * s.head_dim;
  auto split = [&](const Variable& x, int64_t rows) {
    Variable r = ag::Reshape(x, {s.batch, rows, s.heads, s.head_dim});
    return ag::Permute(r, {0, 2, 1, 3});
  };
  Variable q = split(in.q, s.q_rows);
  Variable k = split(in.k, s.seq);
  Variable v = split(in.v, s.seq);
  const float scale = 1.0f / std::sqrt(static_cast<float>(s.head_dim));
  Variable scores = ag::MulScalar(ag::MatMul(q, k, false, true), scale);
  Variable probs = ag::MaskedSoftmax(scores, in.mask);
  probs = ag::Dropout(probs, dropout_p, train, rng);
  Variable ctx = ag::MatMul(probs, v);
  return ag::PermuteReshape(ctx, {0, 2, 1, 3}, {s.batch, s.q_rows, hidden});
}

Variable FusedCore(const Inputs& in, const ShapeCase& s, float dropout_p,
                   bool train, Rng* rng) {
  return ag::FusedAttention(in.q, in.k, in.v, in.mask, s.heads, dropout_p,
                            train, rng);
}

template <typename Fn>
double BestOfMs(int64_t reps, Fn&& fn) {
  double best = 1e30;
  for (int64_t r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds() * 1e3);
  }
  return best;
}

CaseResult RunCase(const ShapeCase& s, bool smoke) {
  const int64_t reps = bench::EnvInt("EMX_ATTN_REPS", smoke ? 2 : 5);
  CaseResult r;
  r.shape = s;
  Rng rng(7);

  // ---- exactness: dropout off, grad-free, element-wise bit equality.
  {
    NoGradGuard no_grad;
    Inputs in = MakeInputs(s, /*requires_grad=*/false, &rng);
    Tensor ref = ReferenceCore(in, s, 0.0f, false, &rng).value();
    Tensor fused = FusedCore(in, s, 0.0f, false, &rng).value();
    r.exact = ref.size() == fused.size() &&
              std::memcmp(ref.data(), fused.data(),
                          static_cast<size_t>(ref.size()) * sizeof(float)) == 0;
  }

  // ---- peak forward memory, grad-enabled (training forward): what each
  // path materializes on top of the shared q/k/v inputs.
  {
    Inputs in = MakeInputs(s, /*requires_grad=*/true, &rng);
    ResetTensorMemPeak();
    const int64_t base = GetTensorMemStats().live_bytes;
    { Variable out = ReferenceCore(in, s, 0.0f, false, &rng); }
    r.peak_ref_bytes = GetTensorMemStats().peak_bytes - base;
    ResetTensorMemPeak();
    { Variable out = FusedCore(in, s, 0.0f, false, &rng); }
    r.peak_fused_bytes = GetTensorMemStats().peak_bytes - base;
  }

  // ---- grad-free forward throughput (serving path).
  {
    NoGradGuard no_grad;
    Inputs in = MakeInputs(s, /*requires_grad=*/false, &rng);
    r.fwd_ref_ms =
        BestOfMs(reps, [&] { (void)ReferenceCore(in, s, 0.0f, false, &rng); });
    r.fwd_fused_ms =
        BestOfMs(reps, [&] { (void)FusedCore(in, s, 0.0f, false, &rng); });
  }

  // ---- training step: forward + backward through leaf q/k/v, dropout on
  // (both paths pay their dropout cost).
  {
    const float dropout_p =
        static_cast<float>(bench::EnvDouble("EMX_ATTN_DROPOUT", 0.1));
    Inputs in = MakeInputs(s, /*requires_grad=*/true, &rng);
    r.train_ref_ms = BestOfMs(reps, [&] {
      in.q.ZeroGrad();
      in.k.ZeroGrad();
      in.v.ZeroGrad();
      Variable loss = ag::SumAll(ReferenceCore(in, s, dropout_p, true, &rng));
      Backward(loss);
    });
    r.train_fused_ms = BestOfMs(reps, [&] {
      in.q.ZeroGrad();
      in.k.ZeroGrad();
      in.v.ZeroGrad();
      Variable loss = ag::SumAll(FusedCore(in, s, dropout_p, true, &rng));
      Backward(loss);
    });
  }

  r.fwd_speedup = r.fwd_ref_ms / r.fwd_fused_ms;
  r.train_speedup = r.train_ref_ms / r.train_fused_ms;
  const double product = static_cast<double>(s.batch * s.heads * s.q_rows *
                                             s.seq * s.head_dim);
  r.fwd_gflops = 4.0 * product / (r.fwd_fused_ms * 1e6);
  r.train_gflops = 14.0 * product / (r.train_fused_ms * 1e6);
  return r;
}

}  // namespace
}  // namespace emx

int main(int argc, char** argv) {
  using namespace emx;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Single-thread by default so the gate measures the kernel, not the pool.
  // setenv before the first tensor op; an exported value wins.
  setenv("EMX_NUM_THREADS", "1", /*overwrite=*/0);

  const int64_t batch = bench::EnvInt("EMX_ATTN_BATCH", smoke ? 2 : 8);
  std::vector<ShapeCase> cases;
  if (smoke) {
    cases.push_back({batch, 4, 16, 32, 32, false});
    cases.push_back({batch, 4, 16, 64, 64, false});
    cases.push_back({batch, 2, 32, 64, 1, false});
  } else {
    for (int64_t seq : {32, 64, 128, 256}) {
      cases.push_back({batch, 4, 16, seq, seq, seq == 256});
    }
    // The paper models' serving shape: 2 heads of 32 at the dataset token
    // budgets (56 everywhere, 64 for Abt-Buy), and the classifier's last
    // layer, which attends from the [CLS] row only.
    cases.push_back({16, 2, 32, 56, 56, false});
    cases.push_back({16, 2, 32, 64, 64, false});
    cases.push_back({16, 2, 32, 64, 1, false});
  }

  const bool tiles = ops::FusedAttentionUsesTiles(16);
  std::printf("bench_attention — fused tiled attention vs reference chain "
              "(%zu threads%s; AVX-512 register tiles: %s)\n\n",
              GlobalThreadPool()->num_threads(), smoke ? ", --smoke" : "",
              tiles ? "yes" : "no");
  std::printf("%-26s %7s | %9s %9s %7s %7s | %9s %9s %7s %7s | %9s %9s\n",
              "shape", "exact", "ref fwd", "fus fwd", "fwd x", "GFLOP/s",
              "ref trn", "fus trn", "trn x", "GFLOP/s", "ref MiB", "fus MiB");

  bench::Report report("attention");
  report.Set("smoke", smoke);
  report.Set("register_tiles", tiles);
  std::vector<bench::JsonObject> rows;
  bool all_exact = true;
  bool memory_ok = true;
  double gated_train_speedup = 0;
  for (const ShapeCase& s : cases) {
    CaseResult r = RunCase(s, smoke);
    all_exact = all_exact && r.exact;
    memory_ok = memory_ok && r.peak_fused_bytes < r.peak_ref_bytes;
    if (r.shape.gated) gated_train_speedup = r.train_speedup;
    char shape[64];
    std::snprintf(shape, sizeof(shape), "B%lld h%lld dh%lld Tq%lld Tk%lld",
                  static_cast<long long>(s.batch),
                  static_cast<long long>(s.heads),
                  static_cast<long long>(s.head_dim),
                  static_cast<long long>(s.q_rows),
                  static_cast<long long>(s.seq));
    std::printf(
        "%-26s %7s | %7.3fms %7.3fms %6.2fx %7.2f | %7.3fms %7.3fms %6.2fx "
        "%7.2f | %9.2f %9.2f\n",
        shape, r.exact ? "yes" : "NO", r.fwd_ref_ms, r.fwd_fused_ms,
        r.fwd_speedup, r.fwd_gflops, r.train_ref_ms, r.train_fused_ms,
        r.train_speedup, r.train_gflops,
        static_cast<double>(r.peak_ref_bytes) / (1024.0 * 1024.0),
        static_cast<double>(r.peak_fused_bytes) / (1024.0 * 1024.0));
    rows.push_back(bench::JsonObject()
                       .Set("batch", s.batch)
                       .Set("heads", s.heads)
                       .Set("head_dim", s.head_dim)
                       .Set("seq", s.seq)
                       .Set("q_rows", s.q_rows)
                       .Set("exact", r.exact)
                       .Set("fwd_ref_ms", r.fwd_ref_ms)
                       .Set("fwd_fused_ms", r.fwd_fused_ms)
                       .Set("fwd_speedup", r.fwd_speedup)
                       .Set("fwd_fused_gflops", r.fwd_gflops)
                       .Set("train_ref_ms", r.train_ref_ms)
                       .Set("train_fused_ms", r.train_fused_ms)
                       .Set("train_speedup", r.train_speedup)
                       .Set("train_fused_gflops", r.train_gflops)
                       .Set("peak_ref_bytes", r.peak_ref_bytes)
                       .Set("peak_fused_bytes", r.peak_fused_bytes));
  }
  report.Set("cases", rows);

  report.Check("exact forward", all_exact);
  report.Check("fused peak < reference peak", memory_ok);
  if (smoke) {
    report.Skip("train speedup at T=256", "no timing gate in --smoke");
  } else {
    report.Gate("train speedup at T=256", gated_train_speedup, ">=", 1.5);
  }
  return report.Finish();
}
