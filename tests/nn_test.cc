#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "file_fuzz.h"
#include "io/emxm.h"
#include "nn/attention.h"
#include "tensor/tensor.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "reference_kernels.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace emx {
namespace nn {
namespace {

namespace ag = autograd;

// ---- Linear ---------------------------------------------------------------

TEST(LinearTest, OutputShape2DAnd3D) {
  Rng rng(1);
  Linear lin(8, 5, &rng);
  Variable x2 = Variable::Constant(Tensor::Randn({3, 8}, &rng));
  EXPECT_EQ(lin.Forward(x2).shape(), (Shape{3, 5}));
  Variable x3 = Variable::Constant(Tensor::Randn({2, 4, 8}, &rng));
  EXPECT_EQ(lin.Forward(x3).shape(), (Shape{2, 4, 5}));
}

TEST(LinearTest, ThreeDMatchesFlattened) {
  Rng rng(2);
  Linear lin(6, 4, &rng);
  Tensor x = Tensor::Randn({2, 3, 6}, &rng);
  Variable y3 = lin.Forward(Variable::Constant(x));
  Variable y2 = lin.Forward(Variable::Constant(x.Reshape({6, 6})));
  EXPECT_TRUE(ops::AllClose(y3.value().Reshape({6, 4}), y2.value(), 1e-5f));
}

TEST(LinearTest, ParametersCollected) {
  Rng rng(3);
  Linear lin(4, 2, &rng);
  std::vector<NamedParam> params;
  lin.CollectParameters("fc", &params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "fc.weight");
  EXPECT_EQ(params[1].name, "fc.bias");
  EXPECT_EQ(lin.NumParameters(), 4 * 2 + 2);
}

TEST(LinearTest, GradFlowsToWeightAndBias) {
  Rng rng(4);
  Linear lin(3, 2, &rng);
  Variable x = Variable::Constant(Tensor::Randn({5, 3}, &rng));
  Variable loss = ag::MeanAll(ag::Mul(lin.Forward(x), lin.Forward(x)));
  Backward(loss);
  float wsum = 0;
  for (auto& p : lin.Parameters()) {
    for (int64_t i = 0; i < p.var.grad().size(); ++i) {
      wsum += std::abs(p.var.grad()[i]);
    }
  }
  EXPECT_GT(wsum, 0.0f);
}

// ---- Embedding -------------------------------------------------------------

TEST(EmbeddingTest, LookupShapeAndValues) {
  Rng rng(5);
  Embedding emb(10, 4, &rng);
  Variable out = emb.Forward({1, 3, 1, 7, 0, 2}, {2, 3});
  EXPECT_EQ(out.shape(), (Shape{2, 3, 4}));
  // Row for id 1 appears at positions (0,0) and (0,2).
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(out.value().At({0, 0, j}), out.value().At({0, 2, j}));
  }
}

TEST(EmbeddingTest, GradScattersToUsedRowsOnly) {
  Rng rng(6);
  Embedding emb(6, 3, &rng);
  Variable out = emb.Forward({2, 2, 4}, {3});
  Backward(ag::SumAll(out));
  const Tensor& g = emb.Parameters()[0].var.grad();
  // Rows 2 (twice) and 4 (once) receive gradient; others zero.
  EXPECT_EQ(g.At({2, 0}), 2.0f);
  EXPECT_EQ(g.At({4, 0}), 1.0f);
  EXPECT_EQ(g.At({0, 0}), 0.0f);
  EXPECT_EQ(g.At({5, 2}), 0.0f);
}

// ---- LayerNorm ---------------------------------------------------------------

TEST(LayerNormModuleTest, InitialIdentityStats) {
  Rng rng(7);
  LayerNorm ln(8);
  Variable x = Variable::Constant(Tensor::Randn({4, 8}, &rng, 3.0f));
  Variable y = ln.Forward(x);
  // gamma=1, beta=0 -> each row has ~zero mean, unit variance.
  for (int64_t r = 0; r < 4; ++r) {
    float mu = 0;
    for (int64_t j = 0; j < 8; ++j) mu += y.value()[r * 8 + j];
    EXPECT_NEAR(mu / 8, 0.0f, 1e-4);
  }
  EXPECT_EQ(ln.NumParameters(), 16);
}

// ---- FeedForward ----------------------------------------------------------------

TEST(FeedForwardTest, ShapePreserved) {
  Rng rng(8);
  FeedForward ffn(6, 24, &rng);
  Variable x = Variable::Constant(Tensor::Randn({2, 5, 6}, &rng));
  Variable y = ffn.Forward(x, 0.0f, false, &rng);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 6}));
  EXPECT_EQ(ffn.NumParameters(), 6 * 24 + 24 + 24 * 6 + 6);
}

TEST(FeedForwardTest, ActivationVariants) {
  Rng rng(9);
  Tensor x({3}, {-2, 0, 2});
  Variable v = Variable::Constant(x);
  Variable relu = ApplyActivation(v, Activation::kRelu);
  EXPECT_EQ(relu.value()[0], 0.0f);
  EXPECT_EQ(relu.value()[2], 2.0f);
  Variable th = ApplyActivation(v, Activation::kTanh);
  EXPECT_NEAR(th.value()[2], std::tanh(2.0f), 1e-5);
  Variable ge = ApplyActivation(v, Activation::kGelu);
  EXPECT_LT(ge.value()[0], 0.0f);  // gelu(-2) ~ -0.045
  EXPECT_GT(ge.value()[0], -0.1f);
}

TEST(FeedForwardTest, AdamRunTracksReferenceChain) {
  // The fused block (bias + GELU in fc1's GEMM epilogue, one fused backward
  // node per Linear) against the MatMul -> AddBias -> Gelu -> MatMul ->
  // AddBias chain on copies of the same parameters, trained side by side.
  // Forwards are bit-identical; only the bias gradients are summed in a
  // different order, so the losses may drift apart by float rounding.
  Rng rng(10);
  FeedForward ffn(16, 64, &rng, Activation::kGelu, /*init_stddev=*/0.2f);
  const Tensor x_in = Tensor::Randn({4, 9, 16}, &rng);
  const Tensor target = Tensor::Randn({4, 9, 16}, &rng, 0.5f);
  auto param = [](const Variable& v) {
    return Variable::Parameter(v.value().Clone());
  };
  Variable w1 = param(ffn.fc1()->weight()), b1 = param(ffn.fc1()->bias());
  Variable w2 = param(ffn.fc2()->weight()), b2 = param(ffn.fc2()->bias());

  std::vector<NamedParam> fused_params;
  ffn.CollectParameters("ffn", &fused_params);
  std::vector<NamedParam> chain_params = {{"ffn.fc1.weight", w1},
                                          {"ffn.fc1.bias", b1},
                                          {"ffn.fc2.weight", w2},
                                          {"ffn.fc2.bias", b2}};
  AdamOptions options;
  options.lr = 1e-2f;
  Adam fused_opt(fused_params, options);
  Adam chain_opt(chain_params, options);

  const Variable x = Variable::Constant(x_in);
  const Variable t = Variable::Constant(target);
  auto mse = [&](const Variable& y) {
    const Variable d = ag::Sub(y, t);
    return ag::MeanAll(ag::Mul(d, d));
  };
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 25; ++step) {
    fused_opt.ZeroGrad();
    Variable fused_loss = mse(ffn.Forward(x, 0.0f, /*train=*/true, &rng));
    Backward(fused_loss);
    fused_opt.Step();

    chain_opt.ZeroGrad();
    Variable flat = ag::Reshape(x, {-1, 16});
    Variable h = ag::Gelu(ag::AddBias(ag::MatMul(flat, w1), b1));
    Variable y = ag::AddBias(ag::MatMul(h, w2), b2);
    Variable chain_loss = mse(ag::Reshape(y, {4, 9, 16}));
    Backward(chain_loss);
    chain_opt.Step();

    const float a = fused_loss.value()[0];
    const float b = chain_loss.value()[0];
    if (step == 0) {
      EXPECT_EQ(a, b);  // same parameters, bit-identical forward
      first = a;
    }
    EXPECT_NEAR(a, b, 1e-5f * b) << "step " << step;
    last = a;
  }
  EXPECT_LT(last, 0.8f * first);
}

/// Records what a calibrating (not-ready) backend is shown.
class RecordingBackend : public LinearBackend {
 public:
  void ObserveOutput(const Tensor& y2d) override { seen = y2d.Clone(); }
  bool ready() const override { return false; }
  Tensor Forward(const Tensor& x2d) const override { return x2d; }
  Tensor seen;
};

TEST(FeedForwardTest, CalibratingFc1SeesPreActivation) {
  Rng rng(11);
  FeedForward ffn(8, 12, &rng, Activation::kGelu, /*init_stddev=*/0.5f);
  auto recorder = std::make_shared<RecordingBackend>();
  ffn.fc1()->set_backend(recorder);
  const Tensor x = Tensor::Randn({2, 3, 8}, &rng);
  NoGradGuard no_grad;
  (void)ffn.Forward(Variable::Constant(x), 0.0f, false, &rng);
  const Tensor pre = ops::AddBias(
      ops::MatMul(x.Reshape({-1, 8}), ffn.fc1()->weight().value()),
      ffn.fc1()->bias().value());
  ASSERT_EQ(recorder->seen.shape(), pre.shape());
  EXPECT_EQ(ops::MaxAbsDiff(recorder->seen, pre), 0.0f);
}

// ---- Attention -------------------------------------------------------------------

TEST(AttentionTest, SelfAttentionShape) {
  Rng rng(10);
  MultiHeadAttention attn(12, 3, &rng);
  Variable x = Variable::Constant(Tensor::Randn({2, 7, 12}, &rng));
  Variable y = attn.Forward(x, x, Tensor(), 0.0f, false, &rng);
  EXPECT_EQ(y.shape(), (Shape{2, 7, 12}));
  EXPECT_EQ(attn.head_dim(), 4);
}

TEST(AttentionTest, CrossAttentionDifferentLengths) {
  Rng rng(11);
  MultiHeadAttention attn(8, 2, &rng);
  Variable q = Variable::Constant(Tensor::Randn({2, 3, 8}, &rng));
  Variable kv = Variable::Constant(Tensor::Randn({2, 6, 8}, &rng));
  Variable y = attn.Forward(q, kv, Tensor(), 0.0f, false, &rng);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 8}));
}

TEST(AttentionTest, PaddingMaskBlocksPositions) {
  // With positions 2..3 masked in batch 0, changing their content must not
  // change the output for batch 0.
  Rng rng(12);
  MultiHeadAttention attn(8, 2, &rng);
  Tensor x = Tensor::Randn({1, 4, 8}, &rng);
  Tensor mask({1, 1, 1, 4}, {0, 0, 1, 1});

  Variable y1 = attn.Forward(Variable::Constant(x), Variable::Constant(x),
                             mask, 0.0f, false, &rng);
  Tensor x2 = x.Clone();
  for (int64_t j = 0; j < 8; ++j) {
    x2.At({0, 2, j}) += 5.0f;
    x2.At({0, 3, j}) -= 3.0f;
  }
  Variable y2 = attn.Forward(Variable::Constant(x2), Variable::Constant(x2),
                             mask, 0.0f, false, &rng);
  // Outputs at the *unmasked* query positions 0..1 must agree (masked
  // positions are still queries whose own representation changed).
  for (int64_t t = 0; t < 2; ++t) {
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(y1.value().At({0, t, j}), y2.value().At({0, t, j}), 1e-5)
          << "t=" << t << " j=" << j;
    }
  }
}

TEST(AttentionTest, CausalMaskMakesOutputsPrefixDependent) {
  // With a causal [B,1,T,T] mask, output at position t must not depend on
  // positions > t.
  Rng rng(13);
  MultiHeadAttention attn(8, 2, &rng);
  const int64_t t_len = 5;
  Tensor mask({1, 1, t_len, t_len});
  for (int64_t i = 0; i < t_len; ++i) {
    for (int64_t j = 0; j < t_len; ++j) {
      mask.At({0, 0, i, j}) = j > i ? 1.0f : 0.0f;
    }
  }
  Tensor x = Tensor::Randn({1, t_len, 8}, &rng);
  Variable y1 = attn.Forward(Variable::Constant(x), Variable::Constant(x),
                             mask, 0.0f, false, &rng);
  Tensor x2 = x.Clone();
  for (int64_t j = 0; j < 8; ++j) x2.At({0, 4, j}) += 10.0f;  // change last
  Variable y2 = attn.Forward(Variable::Constant(x2), Variable::Constant(x2),
                             mask, 0.0f, false, &rng);
  for (int64_t t = 0; t < 4; ++t) {
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(y1.value().At({0, t, j}), y2.value().At({0, t, j}), 1e-5);
    }
  }
}

TEST(AttentionTest, SplitMergeHeadsRoundTrip) {
  Rng rng(14);
  Tensor x = Tensor::Randn({2, 5, 12}, &rng);
  Variable v = Variable::Constant(x);
  Variable round =
      reference::MergeHeads(reference::SplitHeads(v, /*num_heads=*/4));
  EXPECT_TRUE(ops::AllClose(round.value(), x));
}

TEST(AttentionTest, GradientFlowsThroughAllProjections) {
  Rng rng(15);
  MultiHeadAttention attn(8, 2, &rng);
  Variable x = Variable::Constant(Tensor::Randn({2, 4, 8}, &rng));
  Variable y = attn.Forward(x, x, Tensor(), 0.0f, false, &rng);
  Backward(ag::MeanAll(ag::Mul(y, y)));
  for (auto& p : attn.Parameters()) {
    float asum = 0;
    for (int64_t i = 0; i < p.var.grad().size(); ++i) {
      asum += std::abs(p.var.grad()[i]);
    }
    EXPECT_GT(asum, 0.0f) << p.name;
  }
}

// ---- Fused attention vs the unfused reference chain -----------------------

TEST(AttentionBackendTest, FusedForwardBitIdenticalToReference) {
  Rng rng(41);
  MultiHeadAttention attn(12, 4, &rng);
  Tensor x = Tensor::Randn({2, 9, 12}, &rng);
  Tensor mask = Tensor::Zeros({2, 1, 1, 9});
  for (int64_t j = 6; j < 9; ++j) mask.data()[j] = 1.0f;  // pad batch 0 tail
  Variable v = Variable::Constant(x);
  for (const Tensor& m : {Tensor(), mask}) {
    Tensor fused = attn.Forward(v, v, m, 0.0f, false, &rng).value();
    Tensor ref =
        reference::AttentionReference(attn, v, v, m, 0.0f, false, &rng)
            .value();
    ASSERT_EQ(fused.shape(), ref.shape());
    for (int64_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(fused[i], ref[i]) << "index " << i;
    }
  }
}

TEST(AttentionBackendTest, CrossAttentionBitIdenticalToReference) {
  Rng rng(42);
  MultiHeadAttention attn(8, 2, &rng);
  Variable q = Variable::Constant(Tensor::Randn({2, 4, 8}, &rng));
  Variable kv = Variable::Constant(Tensor::Randn({2, 7, 8}, &rng));
  Tensor fused = attn.Forward(q, kv, Tensor(), 0.0f, false, &rng).value();
  Tensor ref = reference::AttentionReference(attn, q, kv, Tensor(), 0.0f,
                                             false, &rng)
                   .value();
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], ref[i]) << "index " << i;
  }
}

TEST(AttentionBackendTest, FusedForwardNeverMaterializesProbTensor) {
  Rng rng(44);
  const int64_t b = 2, t = 48, heads = 4, hidden = 16;
  MultiHeadAttention attn(hidden, heads, &rng);
  Variable x = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng));
  const int64_t prob_bytes = b * heads * t * t * static_cast<int64_t>(
                                 sizeof(float));

  ResetTensorMemPeak();
  const int64_t base = GetTensorMemStats().live_bytes;
  {
    Variable out =
        reference::AttentionReference(attn, x, x, Tensor(), 0.0f, false, &rng);
  }
  const int64_t ref_peak = GetTensorMemStats().peak_bytes - base;

  ResetTensorMemPeak();
  { Variable out = attn.Forward(x, x, Tensor(), 0.0f, false, &rng); }
  const int64_t fused_peak = GetTensorMemStats().peak_bytes - base;

  // Both paths share the projection activations; the reference chain holds
  // at least one [B, heads, T, T] tensor on top of them while the fused
  // forward only adds the [B, heads, T] row stats, so the gap must cover a
  // full prob tensor.
  EXPECT_GE(ref_peak, prob_bytes);
  EXPECT_LT(fused_peak, ref_peak);
  EXPECT_GE(ref_peak - fused_peak, prob_bytes);
}

TEST(AttentionBackendTest, FusedTrainingGradsMatchReferenceWithin1e4) {
  Rng rng(45);
  const int64_t hidden = 8, heads = 2;
  MultiHeadAttention attn(hidden, heads, &rng);
  Tensor xt = Tensor::Randn({2, 6, hidden}, &rng, 0.7f);
  Tensor mask = Tensor::Zeros({2, 1, 1, 6});
  mask.data()[4] = mask.data()[5] = 1.0f;

  auto grads = [&](bool fused) {
    for (auto& p : attn.Parameters()) p.var.ZeroGrad();
    Variable x = Variable::Constant(xt);
    Variable y = fused ? attn.Forward(x, x, mask, 0.0f, false, &rng)
                       : reference::AttentionReference(attn, x, x, mask, 0.0f,
                                                     false, &rng);
    Backward(ag::MeanAll(ag::Mul(y, y)));
    std::vector<Tensor> out;
    for (auto& p : attn.Parameters()) out.push_back(p.var.grad().Clone());
    return out;
  };
  auto gf = grads(true);
  auto gr = grads(false);
  ASSERT_EQ(gf.size(), gr.size());
  for (size_t p = 0; p < gf.size(); ++p) {
    for (int64_t i = 0; i < gf[p].size(); ++i) {
      const float denom = std::max(1e-4f, std::fabs(gr[p][i]));
      EXPECT_LT(std::fabs(gf[p][i] - gr[p][i]) / denom, 1e-4f)
          << "param " << p << " index " << i;
    }
  }
}

// ---- TransformerEncoderLayer ----------------------------------------------------

TEST(EncoderLayerTest, ShapeAndParamCount) {
  Rng rng(16);
  TransformerEncoderLayer layer(16, 4, 64, &rng);
  Variable x = Variable::Constant(Tensor::Randn({2, 6, 16}, &rng));
  Variable y = layer.Forward(x, x, Tensor(), 0.0f, false, &rng);
  EXPECT_EQ(y.shape(), (Shape{2, 6, 16}));
  // 4 projections (16x16+16) + ffn (16*64+64 + 64*16+16) + 2 LN (2*16).
  const int64_t expected = 4 * (16 * 16 + 16) + (16 * 64 + 64 + 64 * 16 + 16) +
                           2 * 32;
  EXPECT_EQ(layer.NumParameters(), expected);
}

TEST(EncoderLayerTest, TrainVsEvalDropoutDiffers) {
  Rng rng(17);
  TransformerEncoderLayer layer(8, 2, 32, &rng);
  Variable xv = Variable::Constant(Tensor::Randn({1, 4, 8}, &rng));
  Rng d1(100), d2(100);
  Variable eval1 = layer.Forward(xv, xv, Tensor(), 0.5f, false, &d1);
  Variable eval2 = layer.Forward(xv, xv, Tensor(), 0.5f, false, &d2);
  EXPECT_TRUE(ops::AllClose(eval1.value(), eval2.value()));
  Variable train1 = layer.Forward(xv, xv, Tensor(), 0.5f, true, &d1);
  EXPECT_FALSE(ops::AllClose(train1.value(), eval1.value()));
}

TEST(EncoderLayerTest, ClsRowQueryReproducesFullRow) {
  // Passing only row 0 as the query gives row 0 of the self-attention
  // layer bit for bit: every op after the attention core works per row.
  Rng rng(19);
  TransformerEncoderLayer layer(16, 4, 32, &rng);
  const int64_t b = 3, t = 7;
  Variable x = Variable::Constant(Tensor::Randn({b, t, 16}, &rng));
  Tensor mask({b, 1, 1, t});
  mask[1 * t + 6] = 1.0f;  // pad the last key of row 1
  Variable full = layer.Forward(x, x, mask, 0.0f, false, &rng);
  Variable cls = ag::Reshape(ag::SelectTimeStep(x, 0), {b, 1, 16});
  Variable row = layer.Forward(cls, x, mask, 0.0f, false, &rng);
  ASSERT_EQ(row.shape(), (Shape{b, 1, 16}));
  Tensor want = ops::SelectTimeStep(full.value(), 0);
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(row.value()[i], want[i]) << "element " << i;
  }
}

// ---- Serialization ----------------------------------------------------------------

TEST(SerializationTest, SaveLoadRoundTrip) {
  Rng rng(18);
  Linear a(5, 3, &rng);
  Linear b(5, 3, &rng);
  // a and b differ initially.
  EXPECT_FALSE(ops::AllClose(a.Parameters()[0].var.value(),
                             b.Parameters()[0].var.value()));
  std::string path = "/tmp/emx_nn_test_params.bin";
  std::vector<NamedParam> pa;
  a.CollectParameters("m", &pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());
  std::vector<NamedParam> pb;
  b.CollectParameters("m", &pb);
  ASSERT_TRUE(LoadParameters(path, pb).ok());
  EXPECT_TRUE(ops::AllClose(a.Parameters()[0].var.value(),
                            b.Parameters()[0].var.value()));
  EXPECT_TRUE(ops::AllClose(a.Parameters()[1].var.value(),
                            b.Parameters()[1].var.value()));
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingParameterFails) {
  Rng rng(19);
  Linear a(2, 2, &rng);
  std::string path = "/tmp/emx_nn_test_params2.bin";
  std::vector<NamedParam> pa;
  a.CollectParameters("x", &pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());
  std::vector<NamedParam> pb;
  a.CollectParameters("y", &pb);  // different names
  Status s = LoadParameters(path, pb);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(SerializationTest, ShapeMismatchFails) {
  Rng rng(20);
  Linear a(2, 3, &rng);
  Linear b(3, 2, &rng);
  std::string path = "/tmp/emx_nn_test_params3.bin";
  std::vector<NamedParam> pa;
  a.CollectParameters("m", &pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());
  std::vector<NamedParam> pb;
  b.CollectParameters("m", &pb);
  EXPECT_FALSE(LoadParameters(path, pb).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileFails) {
  Rng rng(22);
  Linear a(6, 4, &rng);
  std::string path = "/tmp/emx_nn_test_params_trunc.bin";
  std::vector<NamedParam> pa;
  a.CollectParameters("m", &pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());

  // Chop the file mid-payload; the loader must fail cleanly, not read
  // uninitialized memory or EMX_CHECK out.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  std::vector<NamedParam> pb;
  a.CollectParameters("m", &pb);
  Status s = LoadParameters(path, pb);
  EXPECT_FALSE(s.ok());
  // The bounds checks reject a short payload before the read can fail, so
  // either code is a correct refusal.
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument ||
              s.code() == StatusCode::kIoError)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(SerializationTest, EveryTruncationBoundaryFails) {
  Rng rng(24);
  Linear a(6, 4, &rng);
  std::string path = "/tmp/emx_nn_test_params_matrix.bin";
  std::vector<NamedParam> pa;
  a.CollectParameters("m", &pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());
  emx::testing::ExpectAllTruncationsFail(
      path,
      [&](const std::string& p) { return LoadParameters(p, pa); },
      /*stride=*/1);
  std::remove(path.c_str());
}

TEST(SerializationTest, HostileDimsDoNotAllocate) {
  Rng rng(25);
  Linear a(4, 4, &rng);
  std::string path = "/tmp/emx_nn_test_params_dims.emxm";
  std::vector<NamedParam> pa;
  a.CollectParameters("m", &pa);
  ASSERT_TRUE(SaveParameters(path, pa).ok());
  // The first section entry is the [4, 4] weight "p:m.weight": its aux
  // slots (ndim, dim0, ...) sit 40 bytes into the entry, and the entry
  // table starts right after the 64-byte header.
  const size_t entry = sizeof(io::EmxmHeader);
  const size_t ndim_off = entry + offsetof(io::EmxmSectionEntry, aux);
  const size_t dim0_off = ndim_off + 8;
  const size_t payload_bytes_off =
      entry + offsetof(io::EmxmSectionEntry, payload_bytes);
  auto fails = [&](const std::string& patched) {
    Status s = LoadParameters(patched, pa);
    EXPECT_FALSE(s.ok()) << "accepted " << patched;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  };
  // Negative and zero dims.
  emx::testing::WithPatchedField<int64_t>(path, dim0_off, -4, fails);
  emx::testing::WithPatchedField<int64_t>(path, dim0_off, 0, fails);
  // Dims far beyond the model, and a dim pair whose product wraps
  // uint64 to something tiny: the model's shape, never the file's, sizes
  // the tensor, so both are refused without allocating.
  emx::testing::WithPatchedField<int64_t>(path, dim0_off,
                                          static_cast<int64_t>(1) << 62,
                                          fails);
  emx::testing::WithPatchedField<uint64_t>(path, ndim_off, 1u << 20, fails);
  // A payload size beyond the file, and an implausible section count.
  emx::testing::WithPatchedField<uint64_t>(path, payload_bytes_off,
                                           1ull << 40, fails);
  emx::testing::WithPatchedField<uint64_t>(
      path, offsetof(io::EmxmHeader, section_count), ~0ull, fails);
  std::remove(path.c_str());
}

TEST(SerializationTest, NotAParameterFileFails) {
  std::string path = "/tmp/emx_nn_test_params_magic.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const char garbage[] = "definitely not an emx parameter file";
    out.write(garbage, sizeof(garbage));
  }
  Rng rng(23);
  Linear a(2, 2, &rng);
  std::vector<NamedParam> pa;
  a.CollectParameters("m", &pa);
  Status s = LoadParameters(path, pa);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, CopyMatchingParameters) {
  Rng rng(21);
  Linear teacher(4, 4, &rng);
  Linear student(4, 4, &rng);
  std::vector<NamedParam> tp, sp;
  teacher.CollectParameters("layer", &tp);
  student.CollectParameters("layer", &sp);
  EXPECT_EQ(CopyMatchingParameters(tp, sp), 2);
  EXPECT_TRUE(ops::AllClose(teacher.Parameters()[0].var.value(),
                            student.Parameters()[0].var.value()));
}

// ---- Optimizer -----------------------------------------------------------------

TEST(ScheduleTest, LinearWarmupShape) {
  LinearWarmupSchedule sched(1.0f, 10, 110);
  EXPECT_NEAR(sched.LearningRate(0), 0.1f, 1e-6);
  EXPECT_NEAR(sched.LearningRate(9), 1.0f, 1e-6);
  EXPECT_NEAR(sched.LearningRate(10), 1.0f, 1e-6);
  EXPECT_NEAR(sched.LearningRate(60), 0.5f, 1e-6);
  EXPECT_NEAR(sched.LearningRate(110), 0.0f, 1e-6);
  EXPECT_NEAR(sched.LearningRate(500), 0.0f, 1e-6);
}

TEST(ScheduleTest, NoWarmup) {
  LinearWarmupSchedule sched(2.0f, 0, 100);
  EXPECT_NEAR(sched.LearningRate(0), 2.0f, 1e-5);
  EXPECT_NEAR(sched.LearningRate(50), 1.0f, 1e-5);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize ||w - target||^2.
  Rng rng(22);
  Variable w = Variable::Parameter(Tensor::Randn({8}, &rng));
  Tensor target = Tensor::Full({8}, 3.0f);
  AdamOptions opts;
  opts.lr = 0.1f;
  opts.clip_norm = 0.0f;
  Adam adam({{"w", w}}, opts);
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad();
    Variable diff = ag::Sub(w, Variable::Constant(target));
    Variable loss = ag::MeanAll(ag::Mul(diff, diff));
    Backward(loss);
    adam.Step();
  }
  for (int64_t i = 0; i < 8; ++i) EXPECT_NEAR(w.value()[i], 3.0f, 0.05f);
}

TEST(AdamTest, ClipGradNormScales) {
  Variable w = Variable::Parameter(Tensor::Zeros({4}));
  w.mutable_grad().Fill(3.0f);  // norm = 6
  AdamOptions opts;
  Adam adam({{"w", w}}, opts);
  float norm = adam.ClipGradNorm(1.0f);
  EXPECT_NEAR(norm, 6.0f, 1e-4);
  float clipped = 0;
  for (int64_t i = 0; i < 4; ++i) clipped += w.grad()[i] * w.grad()[i];
  EXPECT_NEAR(std::sqrt(clipped), 1.0f, 1e-3);
}

TEST(AdamTest, WeightDecaySkipsBiasAndLayerNorm) {
  Variable w = Variable::Parameter(Tensor::Full({2}, 1.0f));
  Variable b = Variable::Parameter(Tensor::Full({2}, 1.0f));
  Variable g = Variable::Parameter(Tensor::Full({2}, 1.0f));
  AdamOptions opts;
  opts.lr = 0.1f;
  opts.weight_decay = 1.0f;
  opts.clip_norm = 0.0f;
  Adam adam({{"fc.weight", w}, {"fc.bias", b}, {"ln.gamma", g}}, opts);
  // Zero gradients: only decay acts.
  adam.ZeroGrad();
  w.mutable_grad().Fill(0.0f);
  b.mutable_grad().Fill(0.0f);
  g.mutable_grad().Fill(0.0f);
  adam.Step();
  EXPECT_LT(w.value()[0], 1.0f);   // decayed
  EXPECT_EQ(b.value()[0], 1.0f);   // exempt
  EXPECT_EQ(g.value()[0], 1.0f);   // exempt
}

TEST(AdamTest, TrainsSmallTransformerLayer) {
  // One encoder layer + classifier head must fit a linearly separable toy
  // sequence task within a few dozen steps.
  Rng rng(23);
  TransformerEncoderLayer layer(8, 2, 16, &rng);
  Linear head(8, 2, &rng);
  Embedding emb(4, 8, &rng);

  std::vector<NamedParam> params;
  layer.CollectParameters("layer", &params);
  head.CollectParameters("head", &params);
  emb.CollectParameters("emb", &params);
  AdamOptions opts;
  opts.lr = 5e-3f;
  Adam adam(params, opts);

  // Class = whether token id 3 appears in the sequence.
  std::vector<std::vector<int64_t>> seqs = {
      {0, 1, 2, 0}, {3, 1, 2, 0}, {1, 1, 0, 2}, {0, 3, 2, 1},
      {2, 0, 1, 1}, {2, 3, 3, 0}};
  std::vector<int64_t> labels = {0, 1, 0, 1, 0, 1};

  float last_loss = 0;
  for (int step = 0; step < 60; ++step) {
    adam.ZeroGrad();
    std::vector<int64_t> flat;
    for (auto& s : seqs) flat.insert(flat.end(), s.begin(), s.end());
    Variable x = emb.Forward(flat, {6, 4});
    Variable h = layer.Forward(x, x, Tensor(), 0.0f, true, &rng);
    Variable cls = ag::SelectTimeStep(h, 0);
    Variable logits = head.Forward(cls);
    Variable loss = ag::CrossEntropy(logits, labels);
    last_loss = loss.value()[0];
    Backward(loss);
    adam.Step();
  }
  EXPECT_LT(last_loss, 0.2f);
}

}  // namespace
}  // namespace emx
}  // namespace nn
