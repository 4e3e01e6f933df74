#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <tuple>

#include "tensor/autograd_ops.h"
#include "tensor/fused_attention.h"
#include "tensor/kernel_math.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace emx {
namespace {

namespace ag = autograd;

// Force a multi-worker global pool even on single-core CI boxes so the
// threaded kernel paths are exercised (the pool is built lazily on the
// first ParallelFor call after main starts).
const bool kForceThreadedPool = [] {
  setenv("EMX_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

constexpr float kGradTol = 2e-2f;  // fp32 central differences

// ---- Variable basics -------------------------------------------------------

TEST(VariableTest, ConstantDoesNotRequireGrad) {
  Variable v = Variable::Constant(Tensor::Ones({2}));
  EXPECT_TRUE(v.defined());
  EXPECT_FALSE(v.requires_grad());
}

TEST(VariableTest, ParameterRequiresGrad) {
  Variable v = Variable::Parameter(Tensor::Ones({2}));
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.grad().size(), 2);
  EXPECT_EQ(v.grad()[0], 0.0f);
}

TEST(VariableTest, OpOnConstantsStaysConstant) {
  Variable a = Variable::Constant(Tensor::Ones({2}));
  Variable b = Variable::Constant(Tensor::Ones({2}));
  Variable c = ag::Add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_EQ(c.value()[0], 2.0f);
}

TEST(VariableTest, BackwardThroughSimpleChain) {
  // loss = mean(2 * w), dloss/dw = 2/n.
  Variable w = Variable::Parameter(Tensor({4}, {1, 2, 3, 4}));
  Variable loss = ag::MeanAll(ag::MulScalar(w, 2.0f));
  Backward(loss);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w.grad()[i], 0.5f, 1e-6);
}

TEST(VariableTest, GradAccumulatesWhenReused) {
  // loss = sum(w + w) => dloss/dw = 2.
  Variable w = Variable::Parameter(Tensor({3}, {1, 1, 1}));
  Variable loss = ag::SumAll(ag::Add(w, w));
  Backward(loss);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w.grad()[i], 2.0f, 1e-6);
}

TEST(VariableTest, ZeroGradClears) {
  Variable w = Variable::Parameter(Tensor({2}, {1, 1}));
  Backward(ag::SumAll(w));
  EXPECT_EQ(w.grad()[0], 1.0f);
  w.ZeroGrad();
  EXPECT_EQ(w.grad()[0], 0.0f);
}

TEST(VariableTest, StopGradientCutsGraph) {
  Variable w = Variable::Parameter(Tensor({2}, {1, 2}));
  Variable cut = ag::StopGradient(ag::MulScalar(w, 3.0f));
  EXPECT_FALSE(cut.requires_grad());
  EXPECT_EQ(cut.value()[1], 6.0f);
}

TEST(VariableTest, DiamondGraphGradient) {
  // y = w*w (via two branches sharing w): loss = sum(w ⊙ w), grad = 2w.
  Variable w = Variable::Parameter(Tensor({3}, {1, 2, 3}));
  Variable loss = ag::SumAll(ag::Mul(w, w));
  Backward(loss);
  EXPECT_NEAR(w.grad()[0], 2.0f, 1e-5);
  EXPECT_NEAR(w.grad()[2], 6.0f, 1e-5);
}

// ---- Gradient checks (parameterized over op builders) ----------------------

struct GradCase {
  std::string name;
  Shape shape;
  std::function<Variable(const Variable&)> fn;
};

class GradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  const auto& pc = GetParam();
  Rng rng(20260704);
  Tensor x = Tensor::Randn(pc.shape, &rng, 0.7f);
  float diff = GradCheck(pc.fn, x);
  EXPECT_LT(diff, kGradTol) << pc.name;
}

std::vector<GradCase> MakeGradCases() {
  Rng rng(99);
  std::vector<GradCase> cases;

  cases.push_back({"mean", {3, 4}, [](const Variable& x) {
                     return ag::MeanAll(x);
                   }});
  cases.push_back({"sum_scaled", {6}, [](const Variable& x) {
                     return ag::SumAll(ag::MulScalar(x, 0.3f));
                   }});
  cases.push_back({"relu", {4, 4}, [](const Variable& x) {
                     return ag::MeanAll(ag::Relu(x));
                   }});
  cases.push_back({"gelu", {4, 4}, [](const Variable& x) {
                     return ag::MeanAll(ag::Gelu(x));
                   }});
  cases.push_back({"tanh", {4, 4}, [](const Variable& x) {
                     return ag::MeanAll(ag::Tanh(x));
                   }});
  {
    // The fused Linear node, with a rank-3 input (rows from leading dims),
    // differentiated w.r.t. each of x, w and b under every activation.
    Tensor x_in = Tensor::Randn({2, 3, 5}, &rng, 0.7f);
    Tensor w_in = Tensor::Randn({5, 4}, &rng, 0.5f);
    Tensor b_in = Tensor::Randn({4}, &rng, 0.3f);
    const std::pair<const char*, ops::Act> acts[] = {
        {"none", ops::Act::kNone},
        {"gelu", ops::Act::kGelu},
        {"relu", ops::Act::kRelu},
        {"tanh", ops::Act::kTanh}};
    for (const auto& [act_name, act] : acts) {
      const std::string name = std::string("linear_act_") + act_name;
      auto loss = [](const Variable& y) { return ag::MeanAll(ag::Mul(y, y)); };
      cases.push_back({name + "_x", {2, 3, 5}, [=](const Variable& x) {
                         return loss(ag::LinearAct(x, Variable::Constant(w_in),
                                                   Variable::Constant(b_in),
                                                   act));
                       }});
      cases.push_back({name + "_w", {5, 4}, [=](const Variable& w) {
                         return loss(ag::LinearAct(Variable::Constant(x_in), w,
                                                   Variable::Constant(b_in),
                                                   act));
                       }});
      cases.push_back({name + "_b", {4}, [=](const Variable& b) {
                         return loss(ag::LinearAct(Variable::Constant(x_in),
                                                   Variable::Constant(w_in), b,
                                                   act));
                       }});
    }
  }
  cases.push_back({"softmax", {3, 5}, [](const Variable& x) {
                     // Weighted sum to give softmax a non-trivial gradient.
                     Variable s = ag::Softmax(x);
                     Variable w = Variable::Constant(
                         Tensor({3, 5}, {1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 1, 3, 5,
                                         2, 4}));
                     return ag::SumAll(ag::Mul(s, w));
                   }});
  cases.push_back({"log_softmax", {2, 6}, [](const Variable& x) {
                     Variable s = ag::LogSoftmax(x);
                     Variable w = Variable::Constant(
                         Tensor({2, 6},
                                {1, 0, 2, 0, 1, 0, 0, 2, 0, 1, 0, 2}));
                     return ag::SumAll(ag::Mul(s, w));
                   }});
  {
    Tensor mask({2, 1, 1, 4}, {0, 0, 1, 0, 1, 0, 0, 0});
    cases.push_back({"masked_softmax", {2, 2, 3, 4}, [mask](const Variable& x) {
                       Variable s = ag::MaskedSoftmax(x, mask);
                       return ag::MeanAll(ag::Mul(s, s));
                     }});
  }
  {
    Tensor b = Tensor::Randn({5, 3}, &rng);
    cases.push_back({"matmul_lhs", {4, 5}, [b](const Variable& x) {
                       Variable bb = Variable::Constant(b);
                       return ag::MeanAll(ag::MatMul(x, bb));
                     }});
    Tensor a = Tensor::Randn({4, 5}, &rng);
    cases.push_back({"matmul_rhs", {5, 3}, [a](const Variable& x) {
                       Variable aa = Variable::Constant(a);
                       Variable y = ag::MatMul(aa, x);
                       return ag::MeanAll(ag::Mul(y, y));
                     }});
    Tensor bt = Tensor::Randn({3, 5}, &rng);
    cases.push_back({"matmul_trans_b", {4, 5}, [bt](const Variable& x) {
                       Variable bb = Variable::Constant(bt);
                       return ag::MeanAll(ag::MatMul(x, bb, false, true));
                     }});
    Tensor rhs = Tensor::Randn({5, 3}, &rng);
    cases.push_back({"matmul_trans_a", {5, 4}, [rhs](const Variable& x) {
                       // x^T @ const, gradient w.r.t. x.
                       Variable c = Variable::Constant(rhs);
                       return ag::MeanAll(ag::MatMul(x, c, true, false));
                     }});
  }
  {
    Tensor b = Tensor::Randn({2, 4, 3}, &rng);
    cases.push_back({"batched_matmul", {2, 3, 4}, [b](const Variable& x) {
                       Variable bb = Variable::Constant(b);
                       Variable y = ag::MatMul(x, bb);
                       return ag::MeanAll(ag::Mul(y, y));
                     }});
  }
  cases.push_back({"reshape_permute", {2, 3, 4}, [](const Variable& x) {
                     Variable r = ag::Reshape(x, {6, 4});
                     Variable p = ag::Permute(ag::Reshape(r, {2, 3, 4}),
                                              {1, 0, 2});
                     return ag::MeanAll(ag::Mul(p, p));
                   }});
  {
    Tensor bias = Tensor::Randn({4}, &rng);
    cases.push_back({"add_bias_x", {3, 4}, [bias](const Variable& x) {
                       Variable b = Variable::Constant(bias);
                       Variable y = ag::AddBias(x, b);
                       return ag::MeanAll(ag::Mul(y, y));
                     }});
    Tensor xin = Tensor::Randn({3, 4}, &rng);
    cases.push_back({"add_bias_bias", {4}, [xin](const Variable& b) {
                       Variable x = Variable::Constant(xin);
                       Variable y = ag::AddBias(x, b);
                       return ag::MeanAll(ag::Mul(y, y));
                     }});
  }
  {
    Tensor gamma = Tensor::RandUniform({6}, &rng, 0.5f, 1.5f);
    Tensor beta = Tensor::Randn({6}, &rng, 0.1f);
    Tensor weight = Tensor::Randn({4, 6}, &rng);
    cases.push_back({"layernorm_x", {4, 6},
                     [gamma, beta, weight](const Variable& x) {
                       Variable g = Variable::Constant(gamma);
                       Variable b = Variable::Constant(beta);
                       Variable y = ag::LayerNorm(x, g, b);
                       Variable w = Variable::Constant(weight);
                       return ag::SumAll(ag::Mul(y, w));
                     }});
    Tensor xin = Tensor::Randn({4, 6}, &rng);
    cases.push_back({"layernorm_gamma", {6}, [xin, beta](const Variable& g) {
                       Variable x = Variable::Constant(xin);
                       Variable b = Variable::Constant(beta);
                       Variable y = ag::LayerNorm(x, g, b);
                       return ag::MeanAll(ag::Mul(y, y));
                     }});
    cases.push_back({"layernorm_beta", {6}, [xin, gamma](const Variable& b) {
                       Variable x = Variable::Constant(xin);
                       Variable g = Variable::Constant(gamma);
                       Variable y = ag::LayerNorm(x, g, b);
                       return ag::MeanAll(ag::Mul(y, y));
                     }});
  }
  cases.push_back({"select_time", {2, 3, 4}, [](const Variable& x) {
                     Variable s = ag::SelectTimeStep(x, 1);
                     return ag::MeanAll(ag::Mul(s, s));
                   }});
  cases.push_back({"embedding", {5, 3}, [](const Variable& table) {
                     Variable e =
                         ag::EmbeddingLookup(table, {0, 2, 2, 4});
                     return ag::MeanAll(ag::Mul(e, e));
                   }});
  {
    std::vector<int64_t> targets = {0, 2, 1};
    cases.push_back({"cross_entropy", {3, 4}, [targets](const Variable& x) {
                       return ag::CrossEntropy(x, targets);
                     }});
    std::vector<int64_t> with_ignored = {0, -100, 3};
    cases.push_back({"cross_entropy_ignore", {3, 4},
                     [with_ignored](const Variable& x) {
                       return ag::CrossEntropy(x, with_ignored);
                     }});
  }
  {
    Tensor soft({2, 3}, {0.7f, 0.2f, 0.1f, 0.1f, 0.1f, 0.8f});
    cases.push_back({"soft_cross_entropy", {2, 3}, [soft](const Variable& x) {
                       return ag::SoftCrossEntropy(x, soft);
                     }});
  }
  {
    Rng r2(31);
    Tensor target = Tensor::Randn({3, 5}, &r2);
    cases.push_back({"cosine_loss", {3, 5}, [target](const Variable& x) {
                       return ag::CosineEmbeddingLoss(x, target);
                     }});
  }
  cases.push_back({"concat", {2, 3}, [](const Variable& x) {
                     Variable y = ag::MulScalar(x, 2.0f);
                     Variable c = ag::Concat({x, y}, 1);
                     return ag::MeanAll(ag::Mul(c, c));
                   }});
  cases.push_back({"sub_mul_chain", {3, 3}, [](const Variable& x) {
                     Variable y = ag::Sub(ag::Mul(x, x), ag::AddScalar(x, 1.0f));
                     return ag::MeanAll(y);
                   }});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest, ::testing::ValuesIn(MakeGradCases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

// ---- Losses: value sanity ----------------------------------------------------

TEST(LossTest, CrossEntropyPerfectPrediction) {
  // Huge logit on the right class -> loss ~ 0.
  Tensor logits({2, 3}, {30, 0, 0, 0, 0, 30});
  Variable v = Variable::Parameter(logits);
  Variable loss = ag::CrossEntropy(v, {0, 2});
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-4);
}

TEST(LossTest, CrossEntropyUniformIsLogC) {
  Tensor logits = Tensor::Zeros({4, 8});
  Variable v = Variable::Parameter(logits);
  Variable loss = ag::CrossEntropy(v, {1, 2, 3, 4});
  EXPECT_NEAR(loss.value()[0], std::log(8.0f), 1e-5);
}

TEST(LossTest, CrossEntropyIgnoreIndexDropsRows) {
  Tensor logits({2, 2}, {10, 0, 0, 10});
  Variable v = Variable::Parameter(logits);
  // Second row ignored: loss is just first row (correct) ~ 0.
  Variable loss = ag::CrossEntropy(v, {0, -100});
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-3);
  Backward(loss);
  // Ignored row receives zero gradient.
  EXPECT_EQ(v.grad()[2], 0.0f);
  EXPECT_EQ(v.grad()[3], 0.0f);
}

TEST(LossTest, SoftCrossEntropyMatchesHardWhenOneHot) {
  Rng rng(41);
  Tensor logits = Tensor::Randn({3, 4}, &rng);
  Tensor onehot = Tensor::Zeros({3, 4});
  onehot.At({0, 1}) = 1.0f;
  onehot.At({1, 3}) = 1.0f;
  onehot.At({2, 0}) = 1.0f;
  Variable a = Variable::Parameter(logits.Clone());
  Variable b = Variable::Parameter(logits.Clone());
  float hard = ag::CrossEntropy(a, {1, 3, 0}).value()[0];
  float soft = ag::SoftCrossEntropy(b, onehot).value()[0];
  EXPECT_NEAR(hard, soft, 1e-5);
}

TEST(LossTest, CosineLossZeroForParallelVectors) {
  Tensor t({2, 3}, {1, 2, 3, -1, 0, 2});
  Tensor x = t.Clone();
  x.ScaleInPlace(2.5f);  // parallel => cosine = 1 => loss = 0
  Variable v = Variable::Parameter(x);
  Variable loss = ag::CosineEmbeddingLoss(v, t);
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-5);
}

TEST(LossTest, CosineLossTwoForOppositeVectors) {
  Tensor t({1, 2}, {1, 0});
  Tensor x({1, 2}, {-1, 0});
  Variable v = Variable::Parameter(x);
  EXPECT_NEAR(ag::CosineEmbeddingLoss(v, t).value()[0], 2.0f, 1e-5);
}

// ---- Dropout ------------------------------------------------------------------

TEST(DropoutTest, IdentityAtEval) {
  Rng rng(55);
  Variable x = Variable::Parameter(Tensor::Randn({10, 10}, &rng));
  Variable y = ag::Dropout(x, 0.5f, /*train=*/false, &rng);
  EXPECT_TRUE(ops::AllClose(y.value(), x.value()));
}

TEST(DropoutTest, ScalesSurvivorsAtTrain) {
  Rng rng(56);
  Variable x = Variable::Parameter(Tensor::Ones({100, 100}));
  Variable y = ag::Dropout(x, 0.25f, /*train=*/true, &rng);
  int64_t zeros = 0;
  double sum = 0;
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y.value()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.value()[i], 1.0f / 0.75f, 1e-5);
    }
    sum += y.value()[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.25, 0.02);
  EXPECT_NEAR(sum / y.size(), 1.0, 0.03);  // expectation preserved
}

TEST(DropoutTest, GradientMatchesMask) {
  Rng rng(57);
  Variable x = Variable::Parameter(Tensor::Ones({50}));
  Variable y = ag::Dropout(x, 0.5f, /*train=*/true, &rng);
  Variable loss = ag::SumAll(y);
  Backward(loss);
  for (int64_t i = 0; i < 50; ++i) {
    if (y.value()[i] == 0.0f) {
      EXPECT_EQ(x.grad()[i], 0.0f);
    } else {
      EXPECT_NEAR(x.grad()[i], 2.0f, 1e-5);
    }
  }
}

/// The dropout of (x, seed, p) computed serially from kernel_math.h's hash.
Tensor ExpectedDropout(const Tensor& x, uint64_t seed, float p) {
  Tensor want(x.shape());
  const uint64_t thresh = ops::DropoutThreshold(p);
  for (int64_t i = 0; i < x.size(); ++i) {
    want[i] = ops::DropoutHash(seed, i) < thresh ? 0.0f
                                                 : x[i] * (1.0f / (1.0f - p));
  }
  return want;
}

void ExpectBitIdentical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "index " << i;
  }
}

TEST(DropoutTest, SameSeedGivesSameMask) {
  Rng data(58);
  Variable x = Variable::Constant(Tensor::Randn({33, 17}, &data));
  Rng a(7), b(7), c(8);
  const Tensor ya = ag::Dropout(x, 0.3f, /*train=*/true, &a).value();
  const Tensor yb = ag::Dropout(x, 0.3f, /*train=*/true, &b).value();
  const Tensor yc = ag::Dropout(x, 0.3f, /*train=*/true, &c).value();
  ExpectBitIdentical(ya, yb);
  bool differs = false;
  for (int64_t i = 0; i < ya.size(); ++i) differs |= ya[i] != yc[i];
  EXPECT_TRUE(differs) << "another seed should give another mask";
}

TEST(DropoutTest, BackwardRecomputesTheForwardMask) {
  // The call draws exactly one seed, the forward is the hash's mask, and
  // the backward applies the same zeros and the same scale to an upstream
  // gradient it has never seen, with no mask tensor to read it from.
  Rng data(59);
  const float p = 0.4f;
  Variable x = Variable::Parameter(Tensor::Randn({37, 29}, &data));
  const Tensor w = Tensor::Randn({37, 29}, &data);
  Rng rng(60);
  Rng replay = rng;
  const uint64_t seed = replay.Next();
  Variable y = ag::Dropout(x, p, /*train=*/true, &rng);
  EXPECT_EQ(rng.Next(), replay.Next()) << "one draw per call";
  ExpectBitIdentical(y.value(), ExpectedDropout(x.value(), seed, p));
  Backward(ag::SumAll(ag::Mul(y, Variable::Constant(w))));
  ExpectBitIdentical(x.grad(), ExpectedDropout(w, seed, p));
}

TEST(DropoutTest, KeepRateMatchesP) {
  for (const float p : {0.1f, 0.5f}) {
    Rng rng(61);
    Variable x = Variable::Constant(Tensor::Ones({400, 500}));
    const Tensor y = ag::Dropout(x, p, /*train=*/true, &rng).value();
    int64_t kept = 0;
    for (int64_t i = 0; i < y.size(); ++i) kept += y[i] != 0.0f;
    // 200k Bernoulli draws: one standard deviation is at most 0.0011.
    EXPECT_NEAR(static_cast<double>(kept) / y.size(), 1.0 - p, 0.005)
        << "p=" << p;
  }
}

TEST(DropoutTest, MaskDoesNotDependOnThreadCount) {
  ASSERT_GE(GlobalThreadPool()->num_threads(), 4u);
  // [720 x 256], the FFN intermediate of a 16-pair batch: several
  // ParallelFor chunks on the pool, one inline chunk on a pool worker.
  Rng data(62);
  Variable x = Variable::Constant(Tensor::Randn({720, 256}, &data));
  Rng rng(63);
  Rng replay = rng;
  const Tensor pooled = ag::Dropout(x, 0.1f, /*train=*/true, &rng).value();
  Tensor inline_run;
  GlobalThreadPool()->Submit([&] {
    inline_run = ag::Dropout(x, 0.1f, /*train=*/true, &replay).value();
  });
  GlobalThreadPool()->Wait();
  ExpectBitIdentical(pooled, inline_run);
  Rng seed_rng(63);
  ExpectBitIdentical(pooled, ExpectedDropout(x.value(), seed_rng.Next(), 0.1f));
}

// ---- Two-layer MLP end-to-end gradient check ------------------------------------

TEST(EndToEndTest, MlpGradCheckAllParams) {
  Rng rng(77);
  Tensor x_in = Tensor::Randn({5, 4}, &rng);
  Tensor w1_in = Tensor::Randn({4, 6}, &rng, 0.5f);
  Tensor b1_in = Tensor::Zeros({6});
  Tensor w2_in = Tensor::Randn({6, 3}, &rng, 0.5f);
  std::vector<int64_t> targets = {0, 1, 2, 1, 0};

  auto build = [&](const Variable& w1, const Variable& b1, const Variable& w2) {
    Variable x = Variable::Constant(x_in);
    Variable h = ag::Gelu(ag::AddBias(ag::MatMul(x, w1), b1));
    Variable logits = ag::MatMul(h, w2);
    return ag::CrossEntropy(logits, targets);
  };

  // Check gradient w.r.t. w1 while treating others as constants.
  float d1 = GradCheck(
      [&](const Variable& w1) {
        return build(w1, Variable::Constant(b1_in), Variable::Constant(w2_in));
      },
      w1_in);
  EXPECT_LT(d1, kGradTol);

  float d2 = GradCheck(
      [&](const Variable& b1) {
        return build(Variable::Constant(w1_in), b1, Variable::Constant(w2_in));
      },
      b1_in);
  EXPECT_LT(d2, kGradTol);

  float d3 = GradCheck(
      [&](const Variable& w2) {
        return build(Variable::Constant(w1_in), Variable::Constant(b1_in), w2);
      },
      w2_in);
  EXPECT_LT(d3, kGradTol);
}

TEST(EndToEndTest, TrainingReducesLoss) {
  // A few SGD steps on a toy problem must reduce the loss.
  Rng rng(88);
  Tensor x_in = Tensor::Randn({8, 4}, &rng);
  std::vector<int64_t> targets = {0, 1, 0, 1, 0, 1, 0, 1};
  Variable w = Variable::Parameter(Tensor::Randn({4, 2}, &rng, 0.1f));
  float first = 0, last = 0;
  for (int step = 0; step < 30; ++step) {
    w.ZeroGrad();
    Variable loss = ag::CrossEntropy(ag::MatMul(Variable::Constant(x_in), w),
                                     targets);
    if (step == 0) first = loss.value()[0];
    last = loss.value()[0];
    Backward(loss);
    Tensor& g = w.mutable_grad();
    Tensor& v = w.mutable_value();
    for (int64_t i = 0; i < v.size(); ++i) v[i] -= 0.5f * g[i];
  }
  EXPECT_LT(last, first * 0.8f);
}

// ---- Fused Linear node --------------------------------------------------------

TEST(LinearActTest, MatchesMatMulAddBiasActivationChain) {
  // Forward values are bit-identical to the unfused chain; gradients match
  // it up to the bias-gradient summation order.
  Rng rng(31);
  const Tensor x_in = Tensor::Randn({3, 70, 48}, &rng);
  const Tensor w_in = Tensor::Randn({48, 37}, &rng, 0.3f);
  const Tensor b_in = Tensor::Randn({37}, &rng, 0.3f);
  const Tensor g_in = Tensor::Randn({3, 70, 37}, &rng);
  const std::pair<ops::Act, std::function<Variable(const Variable&)>> acts[] = {
      {ops::Act::kNone, [](const Variable& v) { return v; }},
      {ops::Act::kGelu, ag::Gelu},
      {ops::Act::kRelu, ag::Relu},
      {ops::Act::kTanh, ag::Tanh}};
  for (const auto& [act, chain_act] : acts) {
    SCOPED_TRACE(testing::Message() << "act=" << static_cast<int>(act));
    Variable x = Variable::Parameter(x_in.Clone());
    Variable w = Variable::Parameter(w_in.Clone());
    Variable b = Variable::Parameter(b_in.Clone());
    Variable fused = ag::LinearAct(x, w, b, act);
    Backward(ag::SumAll(ag::Mul(fused, Variable::Constant(g_in))));

    Variable rx = Variable::Parameter(x_in.Clone());
    Variable rw = Variable::Parameter(w_in.Clone());
    Variable rb = Variable::Parameter(b_in.Clone());
    Variable flat = ag::Reshape(rx, {-1, 48});
    Variable chain = ag::Reshape(
        chain_act(ag::AddBias(ag::MatMul(flat, rw), rb)), {3, 70, 37});
    Backward(ag::SumAll(ag::Mul(chain, Variable::Constant(g_in))));

    ASSERT_EQ(fused.value().shape(), chain.value().shape());
    for (int64_t i = 0; i < fused.value().size(); ++i) {
      ASSERT_EQ(fused.value()[i], chain.value()[i]) << "i=" << i;
    }
    // dx and dW run the same GEMMs on the same dz.
    EXPECT_EQ(ops::MaxAbsDiff(x.grad(), rx.grad()), 0.0f);
    EXPECT_EQ(ops::MaxAbsDiff(w.grad(), rw.grad()), 0.0f);
    EXPECT_TRUE(ops::AllClose(b.grad(), rb.grad(), 1e-4f, 1e-5f));
  }
}

TEST(LinearActTest, PreActivationOutputAndNoGradConstant) {
  Rng rng(32);
  const Tensor x_in = Tensor::Randn({9, 6}, &rng);
  Variable w = Variable::Parameter(Tensor::Randn({6, 5}, &rng));
  Variable b = Variable::Parameter(Tensor::Randn({5}, &rng));
  NoGradGuard no_grad;
  Tensor pre;
  Variable y =
      ag::LinearAct(Variable::Constant(x_in), w, b, ops::Act::kGelu, &pre);
  EXPECT_FALSE(y.requires_grad());
  const Tensor u = ops::AddBias(ops::MatMul(x_in, w.value()), b.value());
  EXPECT_EQ(ops::MaxAbsDiff(pre, u), 0.0f);
  EXPECT_EQ(ops::MaxAbsDiff(y.value(), ops::Gelu(u)), 0.0f);
}

// ---- Inference mode (GradMode / NoGradGuard) -------------------------------

TEST(GradModeTest, EnabledByDefault) { EXPECT_TRUE(GradMode::IsEnabled()); }

TEST(GradModeTest, OpsUnderGuardProduceConstants) {
  Variable w = Variable::Parameter(Tensor::Ones({2, 2}));
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradMode::IsEnabled());
    Variable y = ag::MulScalar(w, 3.0f);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_EQ(y.value()[0], 3.0f);
    // The leaf itself keeps its requires_grad flag.
    EXPECT_TRUE(w.requires_grad());
  }
  EXPECT_TRUE(GradMode::IsEnabled());
}

TEST(GradModeTest, GuardNestsAndRestores) {
  NoGradGuard outer;
  EXPECT_FALSE(GradMode::IsEnabled());
  {
    NoGradGuard inner;
    EXPECT_FALSE(GradMode::IsEnabled());
  }
  // The inner guard restores the *outer* guard's state, not the default.
  EXPECT_FALSE(GradMode::IsEnabled());
}

TEST(GradModeTest, ThreadLocalIsolation) {
  NoGradGuard guard;
  bool other_thread_enabled = false;
  std::thread t([&] { other_thread_enabled = GradMode::IsEnabled(); });
  t.join();
  // A fresh thread records tapes even while this thread is in a guard.
  EXPECT_TRUE(other_thread_enabled);
  EXPECT_FALSE(GradMode::IsEnabled());
}

TEST(GradModeTest, TrainingStillWorksAfterGuardScope) {
  Variable w = Variable::Parameter(Tensor({4}, {1, 2, 3, 4}));
  {
    NoGradGuard guard;
    Variable y = ag::MeanAll(ag::MulScalar(w, 2.0f));
    EXPECT_FALSE(y.requires_grad());
  }
  Variable loss = ag::MeanAll(ag::MulScalar(w, 2.0f));
  Backward(loss);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w.grad()[i], 0.5f, 1e-6);
}

TEST(GradModeTest, ForwardBitIdenticalUnderNoGrad) {
  // The grad-free fast path must not change a single output bit: same
  // kernels, same accumulation order, only the tape is skipped.
  Rng rng(7);
  Tensor x_in = Tensor::Randn({6, 8}, &rng);
  Tensor w1_in = Tensor::Randn({8, 8}, &rng);
  Tensor w2_in = Tensor::Randn({8, 4}, &rng);
  Tensor gamma_in = Tensor::Ones({8});
  Tensor beta_in = Tensor(Shape{8});

  auto forward = [&]() {
    Variable x = Variable::Constant(x_in);
    Variable w1 = Variable::Parameter(w1_in);
    Variable w2 = Variable::Parameter(w2_in);
    Variable gamma = Variable::Parameter(gamma_in);
    Variable beta = Variable::Parameter(beta_in);
    Variable h = ag::Gelu(ag::MatMul(x, w1));
    h = ag::LayerNorm(h, gamma, beta);
    h = ag::Reshape(h, {6, 8});
    return ag::Softmax(ag::MatMul(h, w2));
  };

  Variable with_tape = forward();
  EXPECT_TRUE(with_tape.requires_grad());
  Variable without_tape;
  {
    NoGradGuard guard;
    without_tape = forward();
  }
  EXPECT_FALSE(without_tape.requires_grad());
  ASSERT_EQ(with_tape.value().shape(), without_tape.value().shape());
  for (int64_t i = 0; i < with_tape.value().size(); ++i) {
    EXPECT_EQ(with_tape.value()[i], without_tape.value()[i]) << "index " << i;
  }
}

// ---- PermuteReshape --------------------------------------------------------

TEST(PermuteReshapeTest, MatchesSeparatePermuteAndReshape) {
  Rng rng(11);
  Tensor x = Tensor::Randn({2, 3, 4, 5}, &rng, 1.0f);
  Variable a = Variable::Constant(x);
  Tensor fused =
      ag::PermuteReshape(a, {0, 2, 1, 3}, Shape{2, 4, 15}).value();
  Tensor two_step =
      ag::Reshape(ag::Permute(a, {0, 2, 1, 3}), Shape{2, 4, 15}).value();
  ASSERT_EQ(fused.shape(), two_step.shape());
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], two_step[i]) << "index " << i;
  }
}

TEST(PermuteReshapeTest, GradCheck) {
  Rng rng(12);
  Tensor x = Tensor::Randn({2, 3, 4, 2}, &rng, 0.7f);
  float diff = GradCheck(
      [](const Variable& v) {
        Variable y = ag::PermuteReshape(v, {0, 2, 1, 3}, Shape{2, 4, 6});
        return ag::MeanAll(ag::Mul(y, y));
      },
      x);
  EXPECT_LT(diff, kGradTol);
}

// ---- FusedAttention --------------------------------------------------------

// The unfused chain FusedAttention replaces, built from the primitive
// autograd ops (head split / scaled QK^T / masked softmax / PV / merge).
Variable ReferenceAttention(const Variable& q, const Variable& k,
                            const Variable& v, const Tensor& mask,
                            int64_t heads) {
  const int64_t b = q.dim(0);
  const int64_t tq = q.dim(1);
  const int64_t tk = k.dim(1);
  const int64_t hidden = q.dim(2);
  const int64_t dh = hidden / heads;
  auto split = [&](const Variable& x, int64_t t) {
    return ag::Permute(ag::Reshape(x, {b, t, heads, dh}), {0, 2, 1, 3});
  };
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Variable scores = ag::MulScalar(
      ag::MatMul(split(q, tq), split(k, tk), false, true), scale);
  Variable probs =
      mask.size() > 0 ? ag::MaskedSoftmax(scores, mask) : ag::Softmax(scores);
  Variable ctx = ag::MatMul(probs, split(v, tk));
  return ag::PermuteReshape(ctx, {0, 2, 1, 3}, {b, tq, hidden});
}

Tensor PaddingMask(int64_t b, int64_t tk, int64_t blocked_tail) {
  Tensor mask = Tensor::Zeros({b, 1, 1, tk});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t j = tk - blocked_tail; j < tk; ++j) {
      mask.data()[bi * tk + j] = 1.0f;
    }
  }
  return mask;
}

TEST(FusedAttentionTest, ForwardBitIdenticalToReferenceChain) {
  Rng rng(21);
  const int64_t b = 2, t = 10, heads = 2, hidden = 8;
  Variable q = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  Variable k = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  Variable v = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  for (const Tensor& mask : {Tensor(), PaddingMask(b, t, 3)}) {
    Tensor fused =
        ag::FusedAttention(q, k, v, mask, heads, 0.0f, false, nullptr).value();
    Tensor ref = ReferenceAttention(q, k, v, mask, heads).value();
    ASSERT_EQ(fused.shape(), ref.shape());
    for (int64_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(fused[i], ref[i]) << "index " << i;
    }
  }
}

TEST(FusedAttentionTest, CrossAttentionBitIdenticalToReferenceChain) {
  Rng rng(22);
  const int64_t b = 2, tq = 5, tk = 9, heads = 4, hidden = 8;
  Variable q = Variable::Constant(Tensor::Randn({b, tq, hidden}, &rng, 0.8f));
  Variable k = Variable::Constant(Tensor::Randn({b, tk, hidden}, &rng, 0.8f));
  Variable v = Variable::Constant(Tensor::Randn({b, tk, hidden}, &rng, 0.8f));
  Tensor mask = PaddingMask(b, tk, 2);
  Tensor fused =
      ag::FusedAttention(q, k, v, mask, heads, 0.0f, false, nullptr).value();
  Tensor ref = ReferenceAttention(q, k, v, mask, heads).value();
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], ref[i]) << "index " << i;
  }
}

TEST(FusedAttentionTest, GradMatchesReferenceChain) {
  Rng rng(23);
  const int64_t b = 2, t = 7, heads = 2, hidden = 8;
  Tensor qt = Tensor::Randn({b, t, hidden}, &rng, 0.8f);
  Tensor kt = Tensor::Randn({b, t, hidden}, &rng, 0.8f);
  Tensor vt = Tensor::Randn({b, t, hidden}, &rng, 0.8f);
  Tensor mask = PaddingMask(b, t, 2);

  auto run = [&](bool fused, Variable* q, Variable* k, Variable* v) {
    *q = Variable::Parameter(qt.Clone());
    *k = Variable::Parameter(kt.Clone());
    *v = Variable::Parameter(vt.Clone());
    Variable out =
        fused ? ag::FusedAttention(*q, *k, *v, mask, heads, 0.0f, false,
                                   nullptr)
              : ReferenceAttention(*q, *k, *v, mask, heads);
    Backward(ag::MeanAll(ag::Mul(out, out)));
  };
  Variable qf, kf, vf, qr, kr, vr;
  run(true, &qf, &kf, &vf);
  run(false, &qr, &kr, &vr);

  auto compare = [](const Tensor& a, const Tensor& b, const char* name) {
    for (int64_t i = 0; i < a.size(); ++i) {
      const float denom = std::max(1e-4f, std::fabs(b[i]));
      EXPECT_LT(std::fabs(a[i] - b[i]) / denom, 1e-4f)
          << name << " index " << i << ": " << a[i] << " vs " << b[i];
    }
  };
  compare(qf.grad(), qr.grad(), "dq");
  compare(kf.grad(), kr.grad(), "dk");
  compare(vf.grad(), vr.grad(), "dv");
}

TEST(FusedAttentionTest, GradCheckUnmasked) {
  Rng rng(24);
  const int64_t b = 1, t = 5, heads = 2, hidden = 8;
  Tensor kt = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  Tensor vt = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  Tensor x = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  float diff = GradCheck(
      [&](const Variable& q) {
        Variable k = Variable::Parameter(kt.Clone());
        Variable v = Variable::Parameter(vt.Clone());
        return ag::MeanAll(
            ag::FusedAttention(q, k, v, Tensor(), heads, 0.0f, false, nullptr));
      },
      x);
  EXPECT_LT(diff, kGradTol);
}

TEST(FusedAttentionTest, GradCheckMasked) {
  Rng rng(25);
  const int64_t b = 2, t = 6, heads = 2, hidden = 8;
  Tensor kt = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  Tensor vt = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  Tensor mask = PaddingMask(b, t, 2);
  Tensor x = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  float diff = GradCheck(
      [&](const Variable& q) {
        Variable k = Variable::Parameter(kt.Clone());
        Variable v = Variable::Parameter(vt.Clone());
        return ag::MeanAll(
            ag::FusedAttention(q, k, v, mask, heads, 0.0f, false, nullptr));
      },
      x);
  EXPECT_LT(diff, kGradTol);
}

TEST(FusedAttentionTest, GradCheckWithDropoutFixedSeed) {
  // GradCheck requires f to be deterministic across calls, so rebuild the
  // rng from the same seed inside f: every forward then draws the same
  // dropout seed and replays the same mask.
  Rng rng(26);
  const int64_t b = 1, t = 6, heads = 2, hidden = 8;
  Tensor kt = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  Tensor vt = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  Tensor x = Tensor::Randn({b, t, hidden}, &rng, 0.6f);
  float diff = GradCheck(
      [&](const Variable& q) {
        Rng drop_rng(777);
        Variable k = Variable::Parameter(kt.Clone());
        Variable v = Variable::Parameter(vt.Clone());
        return ag::MeanAll(ag::FusedAttention(q, k, v, Tensor(), heads, 0.25f,
                                              true, &drop_rng));
      },
      x);
  EXPECT_LT(diff, kGradTol);
}

TEST(FusedAttentionTest, DropoutZerosAndScalesLikeInvertedDropout) {
  Rng rng(27);
  const int64_t b = 1, t = 8, heads = 2, hidden = 8;
  Variable q = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.6f));
  Variable k = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.6f));
  Variable v = Variable::Constant(Tensor::Ones({b, t, hidden}));
  // With V = 1, every context element is sum_j dropped_prob_ij. Dropout off
  // gives exactly 1 (softmax rows sum to 1); with dropout the row sums must
  // differ but keep a mean near 1 (inverted dropout is unbiased).
  Rng drop_rng(123);
  Tensor dropped = ag::FusedAttention(q, k, v, Tensor(), heads, 0.5f, true,
                                      &drop_rng)
                       .value();
  double mean = 0;
  bool any_differs = false;
  for (int64_t i = 0; i < dropped.size(); ++i) {
    mean += dropped[i];
    if (std::fabs(dropped[i] - 1.0f) > 1e-3f) any_differs = true;
  }
  mean /= static_cast<double>(dropped.size());
  EXPECT_TRUE(any_differs);
  EXPECT_NEAR(mean, 1.0, 0.35);
}

TEST(FusedAttentionTest, DropoutForwardBitIdenticalToReferenceChain) {
  // Both paths draw one seed from the Rng and drop prob element
  // (b, h, i, j) by the same hash of its flat index, so at the same Rng
  // state they drop the same elements and scale the survivors the same way.
  Rng rng(29);
  const int64_t b = 2, t = 9, heads = 2, hidden = 8;
  Variable q = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  Variable k = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  Variable v = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  const Tensor mask = PaddingMask(b, t, 2);
  Rng fused_rng(30), ref_rng(30);
  Tensor fused = ag::FusedAttention(q, k, v, mask, heads, 0.3f, true,
                                    &fused_rng)
                     .value();
  const int64_t dh = hidden / heads;
  auto split = [&](const Variable& x) {
    return ag::Permute(ag::Reshape(x, {b, t, heads, dh}), {0, 2, 1, 3});
  };
  Variable probs = ag::MaskedSoftmax(
      ag::MulScalar(ag::MatMul(split(q), split(k), false, true),
                    1.0f / std::sqrt(static_cast<float>(dh))),
      mask);
  probs = ag::Dropout(probs, 0.3f, true, &ref_rng);
  Tensor ref = ag::PermuteReshape(ag::MatMul(probs, split(v)), {0, 2, 1, 3},
                                  {b, t, hidden})
                   .value();
  ExpectBitIdentical(fused, ref);
}

TEST(FusedAttentionTest, FullyMaskedQueryRowYieldsZeroNotNaN) {
  Rng rng(28);
  const int64_t b = 1, t = 4, heads = 2, hidden = 8;
  Variable q = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  Variable k = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  Variable v = Variable::Constant(Tensor::Randn({b, t, hidden}, &rng, 0.8f));
  Tensor mask = Tensor::Ones({b, 1, 1, t});  // every key blocked
  Tensor out =
      ag::FusedAttention(q, k, v, mask, heads, 0.0f, false, nullptr).value();
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_FALSE(std::isnan(out[i])) << "index " << i;
    EXPECT_EQ(out[i], 0.0f) << "index " << i;
  }
}

TEST(FusedAttentionTest, MaskedSoftmaxFullyMaskedRowMatchesFused) {
  // The reference op itself must also produce zeros (no NaN) so the two
  // paths agree on dead rows.
  Tensor scores({1, 1, 2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor mask = Tensor::Ones({1, 1, 1, 3});
  Tensor probs =
      ag::MaskedSoftmax(Variable::Constant(scores), mask).value();
  for (int64_t i = 0; i < probs.size(); ++i) {
    EXPECT_FALSE(std::isnan(probs[i])) << "index " << i;
    EXPECT_EQ(probs[i], 0.0f) << "index " << i;
  }
}

TEST(FusedAttentionTest, BackwardDeterministicAcrossCalls) {
  Rng rng(29);
  const int64_t b = 2, t = 33, heads = 2, hidden = 8;  // spans row tiles
  Tensor qt = Tensor::Randn({b, t, hidden}, &rng, 0.7f);
  Tensor kt = Tensor::Randn({b, t, hidden}, &rng, 0.7f);
  Tensor vt = Tensor::Randn({b, t, hidden}, &rng, 0.7f);
  Tensor mask = PaddingMask(b, t, 5);
  auto grads = [&]() {
    Variable q = Variable::Parameter(qt.Clone());
    Variable k = Variable::Parameter(kt.Clone());
    Variable v = Variable::Parameter(vt.Clone());
    Backward(ag::SumAll(
        ag::FusedAttention(q, k, v, mask, heads, 0.0f, false, nullptr)));
    return std::make_tuple(q.grad().Clone(), k.grad().Clone(),
                           v.grad().Clone());
  };
  auto [dq1, dk1, dv1] = grads();
  auto [dq2, dk2, dv2] = grads();
  for (int64_t i = 0; i < dq1.size(); ++i) {
    EXPECT_EQ(dq1[i], dq2[i]);
    EXPECT_EQ(dk1[i], dk2[i]);
    EXPECT_EQ(dv1[i], dv2[i]);
  }
}


// ---- FusedAttention register tiles ------------------------------------------
//
// The tests above use hidden 8 (head_dim 2-4), which only the portable loops
// serve. These sweep head sizes the AVX-512 tiles take (head_dim % 16 == 0)
// and one they do not (24), over row and column counts on both sides of the
// 4-row, 16-lane and 64-column tile edges, every mask layout, dead rows,
// dropout, non-finite inputs and 1 vs 4 threads. The tiles must match the
// portable loops (ops::FusedAttention*Scalar) bit for bit in the output, the
// row statistics and all three gradients, and the unfused reference chain
// in the output. On builds without the tiles both sides run the same loops.

enum class MaskKind { kNone, kKeys, kRows, kHeads };

/// Bit equality, except that any NaN matches any NaN: x86 keeps the
/// payload of whichever NaN operand an instruction form lists first, so two
/// correct kernels may differ in NaN payloads but in nothing else.
void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " index " << i << ": " << got[i] << " vs " << want[i];
  }
}

struct TileCase {
  int64_t dh = 16;
  int64_t tq = 1;
  int64_t tk = 1;
  MaskKind mask = MaskKind::kNone;
  float dropout_p = 0.0f;
  bool dead_rows = false;     // block every key of some query rows
  bool non_finite = false;    // NaN and +-inf entries in q
  std::string Name() const {
    return "dh" + std::to_string(dh) + " tq" + std::to_string(tq) + " tk" +
           std::to_string(tk) + " mask" + std::to_string(static_cast<int>(mask)) +
           (dropout_p > 0 ? " dropout" : "") + (dead_rows ? " dead" : "") +
           (non_finite ? " nonfinite" : "");
  }
};

struct TileInputs {
  Tensor q, k, v, dout, mask;
  ops::FusedAttentionConfig cfg;
  uint64_t drop_rng_seed = 0;  // Rng(drop_rng_seed).Next() == cfg.dropout_seed
};

constexpr int64_t kTileBatch = 2;
constexpr int64_t kTileHeads = 2;

TileInputs MakeTileInputs(const TileCase& c, uint64_t seed) {
  Rng rng(seed);
  const int64_t b = kTileBatch, heads = kTileHeads, hidden = heads * c.dh;
  TileInputs in;
  in.q = Tensor::Randn({b, c.tq, hidden}, &rng, 0.9f);
  in.k = Tensor::Randn({b, c.tk, hidden}, &rng, 0.9f);
  in.v = Tensor::Randn({b, c.tk, hidden}, &rng, 0.9f);
  in.dout = Tensor::Randn({b, c.tq, hidden}, &rng, 0.9f);
  switch (c.mask) {
    case MaskKind::kNone: break;
    case MaskKind::kKeys: in.mask = Tensor::Zeros({b, 1, 1, c.tk}); break;
    case MaskKind::kRows: in.mask = Tensor::Zeros({b, 1, c.tq, c.tk}); break;
    case MaskKind::kHeads:
      in.mask = Tensor::Zeros({b, heads, c.tq, c.tk});
      break;
  }
  if (in.mask.size() > 0) {
    // A padding tail per batch plus scattered blocks, so rows differ.
    const int64_t rows = in.mask.size() / c.tk;
    for (int64_t r = 0; r < rows; ++r) {
      float* row = in.mask.data() + r * c.tk;
      const int64_t tail = (r % 3) * c.tk / 5;
      for (int64_t j = c.tk - tail; j < c.tk; ++j) row[j] = 1.0f;
      for (int64_t j = 0; j < c.tk; ++j) {
        if (rng.Next() % 7 == 0) row[j] = 1.0f;
      }
      if (c.dead_rows && r % 2 == 1) std::fill(row, row + c.tk, 1.0f);
    }
  }
  if (c.non_finite) {
    float* q = in.q.data();
    q[0] = std::numeric_limits<float>::quiet_NaN();
    q[in.q.size() - 1] = std::numeric_limits<float>::infinity();
    if (in.q.size() > hidden + 1) {
      q[hidden + 1] = -std::numeric_limits<float>::infinity();
    }
  }
  in.cfg.num_heads = heads;
  in.cfg.scale = 1.0f / std::sqrt(static_cast<float>(c.dh));
  if (c.dropout_p > 0.0f) {
    in.drop_rng_seed = seed * 31 + 7;
    Rng drop(in.drop_rng_seed);
    in.cfg.dropout = true;
    in.cfg.dropout_p = c.dropout_p;
    in.cfg.dropout_seed = drop.Next();
  }
  return in;
}

struct TileOutputs {
  Tensor out, row_max, row_sum, dq, dk, dv;
};

TileOutputs RunAttention(const TileInputs& in, bool scalar) {
  TileOutputs r;
  r.out = scalar ? ops::FusedAttentionForwardScalar(in.q, in.k, in.v, in.mask,
                                                     in.cfg, &r.row_max,
                                                     &r.row_sum)
                 : ops::FusedAttentionForward(in.q, in.k, in.v, in.mask,
                                               in.cfg, &r.row_max, &r.row_sum);
  r.dq = Tensor(in.q.shape());
  r.dk = Tensor(in.k.shape());
  r.dv = Tensor(in.v.shape());
  if (scalar) {
    ops::FusedAttentionBackwardScalar(in.dout, in.q, in.k, in.v, in.mask,
                                      in.cfg, r.row_max, r.row_sum, &r.dq,
                                      &r.dk, &r.dv);
  } else {
    ops::FusedAttentionBackward(in.dout, in.q, in.k, in.v, in.mask, in.cfg,
                                r.row_max, r.row_sum, &r.dq, &r.dk, &r.dv);
  }
  return r;
}

void ExpectSameOutputs(const TileOutputs& got, const TileOutputs& want,
                       const std::string& what) {
  ExpectSameBits(got.out, want.out, what + " out");
  ExpectSameBits(got.row_max, want.row_max, what + " row_max");
  ExpectSameBits(got.row_sum, want.row_sum, what + " row_sum");
  ExpectSameBits(got.dq, want.dq, what + " dq");
  ExpectSameBits(got.dk, want.dk, what + " dk");
  ExpectSameBits(got.dv, want.dv, what + " dv");
}

/// The unfused chain on the same inputs, dropout included (ag::Dropout
/// draws the seed the fused config was given).
Tensor ReferenceOutput(const TileInputs& in, const TileCase& c) {
  Variable q = Variable::Constant(in.q);
  Variable k = Variable::Constant(in.k);
  Variable v = Variable::Constant(in.v);
  if (c.dropout_p <= 0.0f) {
    return ReferenceAttention(q, k, v, in.mask, kTileHeads).value();
  }
  const int64_t b = kTileBatch, hidden = kTileHeads * c.dh;
  auto split = [&](const Variable& x, int64_t t) {
    return ag::Permute(ag::Reshape(x, {b, t, kTileHeads, c.dh}), {0, 2, 1, 3});
  };
  Variable scores = ag::MulScalar(
      ag::MatMul(split(q, c.tq), split(k, c.tk), false, true), in.cfg.scale);
  Variable probs = in.mask.size() > 0 ? ag::MaskedSoftmax(scores, in.mask)
                                      : ag::Softmax(scores);
  Rng drop(in.drop_rng_seed);
  probs = ag::Dropout(probs, c.dropout_p, true, &drop);
  return ag::PermuteReshape(ag::MatMul(probs, split(v, c.tk)), {0, 2, 1, 3},
                            {b, c.tq, hidden})
      .value();
}

/// Tiles vs portable loops (everything) and vs the reference chain (the
/// output; non-finite rows excluded, see NonFiniteInputsMatchScalar).
void CheckTileCase(const TileCase& c, uint64_t seed) {
  SCOPED_TRACE(c.Name());
  const TileInputs in = MakeTileInputs(c, seed);
  const TileOutputs tiled = RunAttention(in, /*scalar=*/false);
  const TileOutputs scalar = RunAttention(in, /*scalar=*/true);
  ExpectSameOutputs(tiled, scalar, c.Name());
  if (!c.non_finite) {
    ExpectSameBits(tiled.out, ReferenceOutput(in, c), c.Name() + " vs reference");
  }
}

TEST(FusedAttentionTileTest, TilesTakeHeadDimsOfSixteen) {
#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__FMA__)
  for (int64_t dh : {16, 32, 48, 64, 128}) {
    EXPECT_TRUE(ops::FusedAttentionUsesTiles(dh)) << dh;
  }
#endif
  for (int64_t dh : {2, 4, 8, 24, 40}) {
    EXPECT_FALSE(ops::FusedAttentionUsesTiles(dh)) << dh;
  }
}

TEST(FusedAttentionTileTest, ShapeAndMaskSweepMatchesScalarAndReference) {
  uint64_t seed = 1000;
  int64_t n = 0;
  for (int64_t dh : {16, 32, 48, 64, 24}) {
    for (int64_t tq : {1, 2, 3, 4, 5, 17, 33, 64}) {
      for (int64_t tk : {1, 15, 16, 17, 63, 64, 65, 130}) {
        for (MaskKind mask : {MaskKind::kNone, MaskKind::kKeys,
                              MaskKind::kRows, MaskKind::kHeads}) {
          TileCase c;
          c.dh = dh;
          c.tq = tq;
          c.tk = tk;
          c.mask = mask;
          // Dropout on every third case keeps the sweep's cost down while
          // still crossing every shape with it at some mask.
          c.dropout_p = (n % 3 == 0) ? 0.2f : 0.0f;
          CheckTileCase(c, ++seed);
          ++n;
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(FusedAttentionTileTest, DeadRowsMatchScalarAndReference) {
  uint64_t seed = 3000;
  for (int64_t dh : {16, 32}) {
    for (MaskKind mask : {MaskKind::kKeys, MaskKind::kRows, MaskKind::kHeads}) {
      for (float p : {0.0f, 0.3f}) {
        TileCase c;
        c.dh = dh;
        c.tq = 9;
        c.tk = 33;
        c.mask = mask;
        c.dead_rows = true;
        c.dropout_p = p;
        CheckTileCase(c, ++seed);
      }
    }
  }
}

TEST(FusedAttentionTileTest, NonFiniteInputsMatchScalar) {
  // A NaN in a query row makes every score of that row NaN: both kernels'
  // running max skips NaN (the row is then "dead" and attends to nothing),
  // where the reference chain's Softmax seeds its max with element 0 and
  // propagates the NaN. So these cases pin the tiles to the portable loops
  // only.
  uint64_t seed = 4000;
  for (int64_t dh : {16, 32, 24}) {
    for (MaskKind mask : {MaskKind::kNone, MaskKind::kKeys}) {
      for (float p : {0.0f, 0.25f}) {
        TileCase c;
        c.dh = dh;
        c.tq = 6;
        c.tk = 19;
        c.mask = mask;
        c.non_finite = true;
        c.dropout_p = p;
        CheckTileCase(c, ++seed);
      }
    }
  }
}

TEST(FusedAttentionTileTest, OneAndFourThreadsGiveTheSameBits) {
  ASSERT_GE(GlobalThreadPool()->num_threads(), 4u);
  TileCase c;
  c.dh = 32;
  c.tq = 70;  // three forward row tiles per (b, h)
  c.tk = 64;
  c.mask = MaskKind::kKeys;
  c.dropout_p = 0.1f;
  const TileInputs in = MakeTileInputs(c, 5000);
  const TileOutputs pooled = RunAttention(in, /*scalar=*/false);
  // A ParallelFor issued from a pool worker runs inline: one thread.
  TileOutputs one_thread;
  GlobalThreadPool()->Submit(
      [&] { one_thread = RunAttention(in, /*scalar=*/false); });
  GlobalThreadPool()->Wait();
  ExpectSameOutputs(one_thread, pooled, "1 vs 4 threads");
  ExpectSameOutputs(pooled, RunAttention(in, /*scalar=*/true), "vs scalar");
}

TEST(FusedAttentionTileTest, BackwardAccumulatesOntoExistingGradients) {
  // The kernels add into dq/dk/dv; both paths must start every chain from
  // the value already there.
  TileCase c;
  c.dh = 16;
  c.tq = 5;
  c.tk = 17;
  const TileInputs in = MakeTileInputs(c, 6000);
  Rng rng(6001);
  const Tensor dq0 = Tensor::Randn(in.q.shape(), &rng);
  const Tensor dk0 = Tensor::Randn(in.k.shape(), &rng);
  const Tensor dv0 = Tensor::Randn(in.v.shape(), &rng);
  Tensor m, l;
  ops::FusedAttentionForward(in.q, in.k, in.v, in.mask, in.cfg, &m, &l);
  Tensor dq = dq0.Clone(), dk = dk0.Clone(), dv = dv0.Clone();
  ops::FusedAttentionBackward(in.dout, in.q, in.k, in.v, in.mask, in.cfg, m, l,
                              &dq, &dk, &dv);
  Tensor sq = dq0.Clone(), sk = dk0.Clone(), sv = dv0.Clone();
  ops::FusedAttentionBackwardScalar(in.dout, in.q, in.k, in.v, in.mask, in.cfg,
                                    m, l, &sq, &sk, &sv);
  ExpectSameBits(dq, sq, "dq");
  ExpectSameBits(dk, sk, "dk");
  ExpectSameBits(dv, sv, "dv");
}

}  // namespace
}  // namespace emx
