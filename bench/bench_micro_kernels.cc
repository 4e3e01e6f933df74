// Micro-benchmarks (google-benchmark) for the compute kernels underlying
// the reproduction: matmul, GELU and the fp32 FFN block, dropout, softmax,
// LayerNorm, a full encoder-layer forward/backward, the three subword
// tokenizers, and the autograd tape overhead. These are the knobs that
// determine the Table 6 timings. GEMM-bound cases report achieved FLOP/s.

#include <benchmark/benchmark.h>

#include "models/encoder.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "pretrain/corpus.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "tests/reference_kernels.h"
#include "tokenizers/byte_bpe.h"
#include "tokenizers/unigram.h"
#include "tokenizers/wordpiece.h"
#include "util/rng.h"

namespace emx {
namespace {

namespace ag = autograd;

/// Reports the achieved rate of `flops_per_iter` floating-point operations
/// per iteration as the "FLOP/s" counter (printed as e.g. 24.2G/s).
void SetFlopRate(benchmark::State& state, double flops_per_iter) {
  state.counters["FLOP/s"] = benchmark::Counter(
      flops_per_iter, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::OneK::kIs1000);
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  SetFlopRate(state, 2.0 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// The pre-rewrite triple-loop kernel, kept as the test-only
/// reference::MatMulNaive; the ratio BM_MatMul/256 : BM_MatMulNaive/256 is
/// the blocked-GEMM speedup.
void BM_MatMulNaive(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::MatMulNaive(a, b));
  }
  SetFlopRate(state, 2.0 * n * n * n);
}
BENCHMARK(BM_MatMulNaive)->Arg(256);

void BM_MatMulTransB(benchmark::State& state) {
  // The attention-score shape: A [M,K] x B^T with B stored [N,K].
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b, false, true));
  }
  SetFlopRate(state, 2.0 * n * n * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(256);

// ---- fp32 FFN ----------------------------------------------------------------
// The FFN shape of the benchmark model: [2048 x 64] -> 256 -> 64.

constexpr int64_t kFfnRows = 2048;
constexpr int64_t kFfnHidden = 64;
constexpr int64_t kFfnInner = 256;

void BM_Gelu(benchmark::State& state) {
  Rng rng(9);
  Tensor x = Tensor::Randn({kFfnRows, kFfnInner}, &rng, 2.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Gelu(x));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_Gelu);

void BM_GeluGrad(benchmark::State& state) {
  Rng rng(9);
  Tensor x = Tensor::Randn({kFfnRows, kFfnInner}, &rng, 2.0f);
  Tensor dy = Tensor::Randn({kFfnRows, kFfnInner}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::GeluGrad(dy, x));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_GeluGrad);

/// The std::tanh GELU the rational tanh replaced, for the BM_Gelu ratio.
void BM_GeluStdTanh(benchmark::State& state) {
  Rng rng(9);
  Tensor x = Tensor::Randn({kFfnRows, kFfnInner}, &rng, 2.0f);
  for (auto _ : state) {
    Tensor y(x.shape());
    for (int64_t i = 0; i < x.size(); ++i) {
      y[i] = reference::GeluReference(x[i]);
    }
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_GeluStdTanh);

/// Grad-free fp32 FeedForward (fc1 with its bias + GELU epilogue, fc2).
void BM_FeedForwardBlock(benchmark::State& state) {
  Rng rng(10);
  nn::FeedForward ffn(kFfnHidden, kFfnInner, &rng);
  Variable x = Variable::Constant(Tensor::Randn({kFfnRows, kFfnHidden}, &rng));
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ffn.Forward(x, 0.0f, false, &rng));
  }
  SetFlopRate(state, 2.0 * 2.0 * kFfnRows * kFfnHidden * kFfnInner);
}
BENCHMARK(BM_FeedForwardBlock);

/// Training step of the same block: forward, then backward through both
/// fused Linear nodes (three GEMM-sized products per Linear).
void BM_FeedForwardBlockTrain(benchmark::State& state) {
  Rng rng(10);
  nn::FeedForward ffn(kFfnHidden, kFfnInner, &rng);
  Tensor xt = Tensor::Randn({kFfnRows, kFfnHidden}, &rng);
  for (auto _ : state) {
    ffn.ZeroGrad();
    Variable x = Variable::Parameter(xt);
    Backward(ag::SumAll(ffn.Forward(x, 0.0f, true, &rng)));
    benchmark::DoNotOptimize(x.grad()[0]);
  }
  SetFlopRate(state, 3.0 * 2.0 * 2.0 * kFfnRows * kFfnHidden * kFfnInner);
}
BENCHMARK(BM_FeedForwardBlockTrain);

/// Training dropout (p = 0.1) on the FFN intermediate of a 16-pair batch,
/// [720 x 256]: the forward and its backward through the tape (SumAll
/// supplies the upstream gradient).
void BM_Dropout(benchmark::State& state) {
  Rng rng(11);
  Tensor xt = Tensor::Randn({720, kFfnInner}, &rng);
  for (auto _ : state) {
    Variable x = Variable::Parameter(xt);
    Backward(ag::SumAll(ag::Dropout(x, 0.1f, /*train=*/true, &rng)));
    benchmark::DoNotOptimize(x.grad()[0]);
  }
  state.SetItemsProcessed(state.iterations() * xt.size());
}
BENCHMARK(BM_Dropout);

void BM_BatchedAttentionMatMul(benchmark::State& state) {
  // The QK^T shape of a fine-tuning batch: [16, 2, 56, 32] x transpose.
  Rng rng(2);
  Tensor q = Tensor::Randn({16, 2, 56, 32}, &rng);
  Tensor k = Tensor::Randn({16, 2, 56, 32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(q, k, false, true));
  }
}
BENCHMARK(BM_BatchedAttentionMatMul);

// ---- Fused attention micro-shapes ------------------------------------------
// T in {32, 64, 128, 256} x heads in {4, 12}; hidden follows heads at
// head_dim 16. Args: (seq, heads).

void BM_FusedAttentionForward(benchmark::State& state) {
  const int64_t t = state.range(0);
  const int64_t heads = state.range(1);
  const int64_t hidden = heads * 16;
  Rng rng(31);
  NoGradGuard no_grad;
  Variable q = Variable::Constant(Tensor::Randn({4, t, hidden}, &rng));
  Variable k = Variable::Constant(Tensor::Randn({4, t, hidden}, &rng));
  Variable v = Variable::Constant(Tensor::Randn({4, t, hidden}, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ag::FusedAttention(q, k, v, Tensor(), heads, 0.0f, false, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * 4 * heads * t * t * 16 * 4);
}
BENCHMARK(BM_FusedAttentionForward)
    ->ArgsProduct({{32, 64, 128, 256}, {4, 12}});

void BM_ReferenceAttentionForward(benchmark::State& state) {
  // The unfused chain at the same shapes: split heads, QK^T, scale,
  // softmax, PV, merge heads.
  const int64_t t = state.range(0);
  const int64_t heads = state.range(1);
  const int64_t hidden = heads * 16;
  Rng rng(31);
  NoGradGuard no_grad;
  Variable q = Variable::Constant(Tensor::Randn({4, t, hidden}, &rng));
  Variable k = Variable::Constant(Tensor::Randn({4, t, hidden}, &rng));
  Variable v = Variable::Constant(Tensor::Randn({4, t, hidden}, &rng));
  auto split = [&](const Variable& x) {
    return ag::Permute(ag::Reshape(x, {4, t, heads, 16}), {0, 2, 1, 3});
  };
  const float scale = 0.25f;  // 1/sqrt(head_dim 16)
  for (auto _ : state) {
    Variable scores =
        ag::MulScalar(ag::MatMul(split(q), split(k), false, true), scale);
    Variable ctx = ag::MatMul(ag::Softmax(scores), split(v));
    benchmark::DoNotOptimize(
        ag::PermuteReshape(ctx, {0, 2, 1, 3}, {4, t, hidden}));
  }
  state.SetItemsProcessed(state.iterations() * 4 * heads * t * t * 16 * 4);
}
BENCHMARK(BM_ReferenceAttentionForward)
    ->ArgsProduct({{32, 64, 128, 256}, {4, 12}});

void BM_FusedAttentionForwardBackward(benchmark::State& state) {
  const int64_t t = state.range(0);
  const int64_t heads = state.range(1);
  const int64_t hidden = heads * 16;
  Rng rng(32);
  Tensor qt = Tensor::Randn({4, t, hidden}, &rng);
  Tensor kt = Tensor::Randn({4, t, hidden}, &rng);
  Tensor vt = Tensor::Randn({4, t, hidden}, &rng);
  for (auto _ : state) {
    Variable q = Variable::Parameter(qt);
    Variable k = Variable::Parameter(kt);
    Variable v = Variable::Parameter(vt);
    Backward(ag::SumAll(
        ag::FusedAttention(q, k, v, Tensor(), heads, 0.0f, true, &rng)));
    benchmark::DoNotOptimize(q.grad()[0]);
  }
}
BENCHMARK(BM_FusedAttentionForwardBackward)
    ->ArgsProduct({{32, 64, 128, 256}, {4, 12}});

void BM_Softmax(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::Randn({16 * 2 * 56, 56}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Softmax(x));
  }
}
BENCHMARK(BM_Softmax);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(4);
  Tensor x = Tensor::Randn({16 * 56, 64}, &rng);
  Tensor gamma = Tensor::Ones({64});
  Tensor beta = Tensor::Zeros({64});
  Tensor mean, rstd;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops::LayerNormForward(x, gamma, beta, 1e-5f, &mean, &rstd));
  }
}
BENCHMARK(BM_LayerNorm);

void BM_EncoderLayerForward(benchmark::State& state) {
  Rng rng(5);
  nn::TransformerEncoderLayer layer(64, 2, 256, &rng);
  Tensor x = Tensor::Randn({16, 56, 64}, &rng);
  for (auto _ : state) {
    Variable v = Variable::Constant(x);
    benchmark::DoNotOptimize(layer.Forward(v, v, Tensor(), 0.0f, false, &rng));
  }
}
BENCHMARK(BM_EncoderLayerForward);

void BM_EncoderLayerForwardBackward(benchmark::State& state) {
  Rng rng(6);
  nn::TransformerEncoderLayer layer(64, 2, 256, &rng);
  Tensor x = Tensor::Randn({16, 56, 64}, &rng);
  for (auto _ : state) {
    layer.ZeroGrad();
    Variable v = Variable::Constant(x);
    Variable y = layer.Forward(v, v, Tensor(), 0.0f, true, &rng);
    Variable loss = ag::MeanAll(ag::Mul(y, y));
    Backward(loss);
    benchmark::DoNotOptimize(loss.value()[0]);
  }
}
BENCHMARK(BM_EncoderLayerForwardBackward);

/// Shared tokenizer corpus for the encode benchmarks.
const std::vector<std::string>& TokCorpus() {
  static auto* corpus = new std::vector<std::string>([] {
    pretrain::CorpusOptions copts;
    copts.num_documents = 300;
    return pretrain::FlattenCorpus(pretrain::GenerateCorpus(copts));
  }());
  return *corpus;
}

void BM_WordPieceEncode(benchmark::State& state) {
  tokenizers::WordPieceTrainerOptions opts;
  opts.vocab_size = 800;
  static auto* tok = new tokenizers::WordPieceTokenizer(
      tokenizers::WordPieceTokenizer::Train(TokCorpus(), opts));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok->Encode(TokCorpus()[i++ % TokCorpus().size()]));
  }
}
BENCHMARK(BM_WordPieceEncode);

void BM_ByteBpeEncode(benchmark::State& state) {
  tokenizers::ByteBpeTrainerOptions opts;
  opts.vocab_size = 800;
  static auto* tok = new tokenizers::ByteBpeTokenizer(
      tokenizers::ByteBpeTokenizer::Train(TokCorpus(), opts));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok->Encode(TokCorpus()[i++ % TokCorpus().size()]));
  }
}
BENCHMARK(BM_ByteBpeEncode);

void BM_UnigramEncode(benchmark::State& state) {
  tokenizers::UnigramTrainerOptions opts;
  opts.vocab_size = 800;
  opts.em_iterations = 2;
  static auto* tok = new tokenizers::UnigramTokenizer(
      tokenizers::UnigramTokenizer::Train(TokCorpus(), opts));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok->Encode(TokCorpus()[i++ % TokCorpus().size()]));
  }
}
BENCHMARK(BM_UnigramEncode);

void BM_AdamStep(benchmark::State& state) {
  // One optimizer step over a BERT-scale (for this repro) parameter set.
  Rng rng(8);
  std::vector<nn::NamedParam> params;
  std::vector<Variable> vars;
  for (int i = 0; i < 8; ++i) {
    Variable v = Variable::Parameter(Tensor::Randn({256, 64}, &rng));
    v.node()->EnsureGrad().AddInPlace(Tensor::Randn({256, 64}, &rng));
    params.push_back({"w" + std::to_string(i), v});
    vars.push_back(v);
  }
  nn::AdamOptions opts;
  nn::Adam adam(params, opts);
  for (auto _ : state) {
    adam.Step();
    benchmark::DoNotOptimize(vars[0].value()[0]);
  }
}
BENCHMARK(BM_AdamStep);

void BM_AutogradTapeOverhead(benchmark::State& state) {
  // Chain of cheap elementwise ops: measures tape bookkeeping per op.
  Rng rng(7);
  Tensor x = Tensor::Randn({64}, &rng);
  for (auto _ : state) {
    Variable v = Variable::Parameter(x);
    for (int i = 0; i < 20; ++i) v = ag::AddScalar(v, 0.1f);
    Backward(ag::SumAll(v));
    benchmark::DoNotOptimize(v.value()[0]);
  }
}
BENCHMARK(BM_AutogradTapeOverhead);

}  // namespace
}  // namespace emx

BENCHMARK_MAIN();
