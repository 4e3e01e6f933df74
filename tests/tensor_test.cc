#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "reference_kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace emx {
namespace {

using ops::AllClose;

// Force a multi-worker global pool even on single-core CI boxes so the
// threaded kernel paths are exercised. Runs before the pool is first built
// (it is created lazily on the first ParallelFor call after main starts).
const bool kForceThreadedPool = [] {
  setenv("EMX_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// ---- Tensor storage ------------------------------------------------------

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FromValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At({0, 1}), 2.0f);
  EXPECT_EQ(t.At({1, 0}), 3.0f);
}

TEST(TensorTest, CopySharesClonedDoesNot) {
  Tensor a({2}, {1, 2});
  Tensor b = a;
  Tensor c = a.Clone();
  EXPECT_TRUE(a.SharesDataWith(b));
  EXPECT_FALSE(a.SharesDataWith(c));
  b[0] = 99;
  EXPECT_EQ(a[0], 99.0f);
  EXPECT_EQ(c[0], 1.0f);
}

TEST(TensorTest, ReshapeSharesAndInfers) {
  Tensor t({2, 6});
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.dim(1), 4);
  EXPECT_TRUE(t.SharesDataWith(r));
}

TEST(TensorTest, NegativeDimIndex) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, FactoryHelpers) {
  Tensor ones = Tensor::Ones({3});
  EXPECT_EQ(ones[2], 1.0f);
  Tensor full = Tensor::Full({2}, 3.5f);
  EXPECT_EQ(full[1], 3.5f);
  Tensor ar = Tensor::Arange(5);
  EXPECT_EQ(ar[4], 4.0f);
  EXPECT_EQ(Tensor::Scalar(2.0f).size(), 1);
}

TEST(TensorTest, RandnStats) {
  Rng rng(3);
  Tensor t = Tensor::Randn({10000}, &rng, 2.0f);
  double sum = 0, sq = 0;
  for (int64_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += t[i] * t[i];
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.1);
  EXPECT_NEAR(sq / t.size(), 4.0, 0.3);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_EQ(a[2], 33.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_EQ(a[0], 5.5f);
  a.Fill(7.0f);
  EXPECT_EQ(a[1], 7.0f);
}

// ---- External (mapped) views ---------------------------------------------

TEST(TensorTest, FromExternalReadsBorrowedBuffer) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  Tensor v = Tensor::FromExternal({2, 3}, backing->data(), backing);
  EXPECT_TRUE(v.is_external());
  EXPECT_EQ(v.size(), 6);
  EXPECT_EQ(v.At({1, 2}), 6.0f);
  EXPECT_EQ(v.data(), backing->data()) << "view copied instead of aliasing";
}

TEST(TensorTest, FromExternalKeepaliveOutlivesCreatorHandle) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{42.0f, 43.0f});
  float* raw = backing->data();
  Tensor v = Tensor::FromExternal({2}, raw, backing);
  backing.reset();  // the view now holds the only reference
  EXPECT_EQ(v[0], 42.0f);
  Tensor copy = v;  // copies share the keepalive too
  EXPECT_EQ(copy[1], 43.0f);
}

TEST(TensorTest, FromExternalCloneMaterializesOwnedCopy) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{7.0f, 8.0f});
  Tensor v = Tensor::FromExternal({2}, backing->data(), backing);
  Tensor c = v.Clone();
  EXPECT_FALSE(c.is_external());
  EXPECT_FALSE(c.SharesDataWith(v));
  c.Fill(0.0f);  // a clone is mutable even when the source view is not
  EXPECT_EQ(v[0], 7.0f);
  EXPECT_EQ(c[0], 0.0f);
}

TEST(TensorTest, FromExternalReshapeStaysAView) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor v = Tensor::FromExternal({2, 3}, backing->data(), backing);
  Tensor r = v.Reshape({3, 2});
  EXPECT_TRUE(r.is_external());
  EXPECT_TRUE(r.SharesDataWith(v));
  EXPECT_EQ(r.At({2, 1}), 6.0f);
}

TEST(TensorTest, ExternalViewsDoNotCountAsHeapTensorMemory) {
  auto backing =
      std::make_shared<std::vector<float>>(std::vector<float>(1024, 1.0f));
  const int64_t before = GetTensorMemStats().live_bytes;
  Tensor v = Tensor::FromExternal({1024}, backing->data(), backing);
  EXPECT_EQ(GetTensorMemStats().live_bytes, before)
      << "mapped views must not inflate heap-tensor accounting";
}

// ---- Elementwise kernels ------------------------------------------------

TEST(TensorOpsTest, Arithmetic) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {4, 3, 2, 1});
  EXPECT_TRUE(AllClose(ops::Add(a, b), Tensor({2, 2}, {5, 5, 5, 5})));
  EXPECT_TRUE(AllClose(ops::Sub(a, b), Tensor({2, 2}, {-3, -1, 1, 3})));
  EXPECT_TRUE(AllClose(ops::Mul(a, b), Tensor({2, 2}, {4, 6, 6, 4})));
  EXPECT_TRUE(AllClose(ops::Div(a, b), Tensor({2, 2}, {0.25f, 2.f / 3, 1.5f, 4})));
  EXPECT_TRUE(AllClose(ops::AddScalar(a, 1), Tensor({2, 2}, {2, 3, 4, 5})));
  EXPECT_TRUE(AllClose(ops::MulScalar(a, 2), Tensor({2, 2}, {2, 4, 6, 8})));
}

TEST(TensorOpsTest, AddBiasBroadcastsLastDim) {
  Tensor x({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {10, 20, 30});
  Tensor y = ops::AddBias(x, bias);
  EXPECT_TRUE(AllClose(y, Tensor({2, 3}, {10, 20, 30, 11, 21, 31})));
}

TEST(TensorOpsTest, SumToBiasReducesLeadingDims) {
  Tensor g({2, 2, 3});
  g.Fill(1.0f);
  Tensor r = ops::SumToBias(g, 3);
  EXPECT_TRUE(AllClose(r, Tensor({3}, {4, 4, 4})));
}

TEST(TensorOpsTest, UnaryFunctions) {
  Tensor x({3}, {-1, 0, 1});
  EXPECT_TRUE(AllClose(ops::Relu(x), Tensor({3}, {0, 0, 1})));
  Tensor t = ops::Tanh(x);
  EXPECT_NEAR(t[0], std::tanh(-1.0f), 1e-6);
  Tensor s = ops::Sigmoid(x);
  EXPECT_NEAR(s[1], 0.5f, 1e-6);
  Tensor e = ops::Exp(Tensor({1}, {0}));
  EXPECT_NEAR(e[0], 1.0f, 1e-6);
}

TEST(TensorOpsTest, GeluValues) {
  // Known reference values for tanh-approximated GELU.
  Tensor x({3}, {-1.0f, 0.0f, 2.0f});
  Tensor y = ops::Gelu(x);
  EXPECT_NEAR(y[0], -0.1588f, 1e-3);
  EXPECT_NEAR(y[1], 0.0f, 1e-7);
  EXPECT_NEAR(y[2], 1.9546f, 1e-3);
}

// ---- Activation accuracy -----------------------------------------------------

// The fp32 activations run the rational tanh of kernel_math.h; these pin
// its error against the std::tanh formulas. The bounds hold with and
// without FMA (measured maxima: tanh 3.0e-7 / 4.2e-7, GELU 9.6e-7 both,
// GELU' 4.2e-6 / 5.9e-6).
constexpr double kTanhBound = 5e-7;
constexpr double kGeluBound = 1e-6;
constexpr double kGeluGradBound = 1e-5;

TEST(ActivationAccuracyTest, DenseSweepWithinStatedBounds) {
  // x = i * 1e-5 over [-12, 12]: 2.4M points.
  constexpr int64_t kHalf = 1200000;
  Tensor x({2 * kHalf + 1});
  for (int64_t i = -kHalf; i <= kHalf; ++i) {
    x[i + kHalf] = static_cast<float>(i) * 1e-5f;
  }
  const Tensor tanh = ops::Tanh(x);
  const Tensor gelu = ops::Gelu(x);
  const Tensor dgelu = ops::GeluGrad(Tensor::Ones(x.shape()), x);
  double max_tanh = 0, max_gelu = 0, max_dgelu = 0;
  for (int64_t i = 0; i < x.size(); ++i) {
    const float v = x[i];
    max_tanh = std::max(max_tanh, std::fabs(double{tanh[i]} - std::tanh(v)));
    max_gelu = std::max(
        max_gelu, std::fabs(double{gelu[i]} - reference::GeluReference(v)));
    max_dgelu = std::max(max_dgelu, std::fabs(double{dgelu[i]} -
                                              reference::GeluGradReference(v)));
    // The vectorized ops and the scalar functions (GEMM epilogue, int8
    // activation table) agree bit for bit.
    ASSERT_EQ(tanh[i], ops::TanhApprox(v)) << "x=" << v;
    ASSERT_EQ(gelu[i], ops::Gelu(v)) << "x=" << v;
    ASSERT_EQ(dgelu[i], ops::GeluDerivative(v)) << "x=" << v;
  }
  EXPECT_LE(max_tanh, kTanhBound);
  EXPECT_LE(max_gelu, kGeluBound);
  EXPECT_LE(max_dgelu, kGeluGradBound);
}

TEST(ActivationAccuracyTest, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x({7}, {0.0f, -0.0f, 1e4f, -1e4f, inf, -inf, nan});
  const Tensor tanh = ops::Tanh(x);
  const Tensor gelu = ops::Gelu(x);
  const Tensor dgelu = ops::GeluGrad(Tensor::Ones(x.shape()), x);
  auto check = [](float v, float got, float want, const char* what) {
    SCOPED_TRACE(testing::Message() << what << "(" << v << ")");
    if (std::isfinite(v)) {
      // Finite in, finite out, and here exactly the reference value.
      EXPECT_TRUE(std::isfinite(got)) << got;
      EXPECT_EQ(got, want);
    } else {
      // NaN propagates; +-inf gives what the reference gives (NaN where it
      // forms inf * 0).
      EXPECT_EQ(std::isnan(got), std::isnan(want)) << got << " vs " << want;
      if (!std::isnan(want)) {
        EXPECT_EQ(got, want);
      }
    }
  };
  for (int64_t i = 0; i < x.size(); ++i) {
    const float v = x[i];
    check(v, tanh[i], std::tanh(v), "tanh");
    check(v, gelu[i], reference::GeluReference(v), "gelu");
    check(v, dgelu[i], reference::GeluGradReference(v), "gelu'");
  }
  EXPECT_TRUE(std::signbit(tanh[1]));  // tanh(-0) = -0
  EXPECT_EQ(tanh[2], 1.0f);            // saturates exactly
  EXPECT_EQ(tanh[3], -1.0f);
}

// ---- Exp and the softmax sum -------------------------------------------------

// ExpApprox is the exp of every softmax (ops::Softmax, ops::LogSoftmax and
// the fused attention kernels). Measured max relative error against
// std::exp on [-87, 88]: 8.0e-8 with FMA, 1.04e-7 without.
constexpr double kExpRelBound = 1.5e-7;

TEST(ExpApproxTest, DenseSweepWithinStatedBound) {
  // x = -87 + i * 1e-4 over [-87, 88]: 1.75M points.
  constexpr int64_t kSteps = 1750000;
  double max_rel = 0;
  for (int64_t i = 0; i <= kSteps; ++i) {
    const float v = -87.0f + static_cast<float>(i) * 1e-4f;
    const double want = std::exp(double{v});
    const double got = ops::ExpApprox(v);
    max_rel = std::max(max_rel, std::fabs(got - want) / want);
  }
  EXPECT_LE(max_rel, kExpRelBound);
}

TEST(ExpApproxTest, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(ops::ExpApprox(0.0f), 1.0f);
  EXPECT_EQ(ops::ExpApprox(-0.0f), 1.0f);
  // A masked score (-1e9 penalty) minus its row max lands far below -88:
  // it must contribute exactly nothing to the softmax sum.
  EXPECT_EQ(ops::ExpApprox(-88.0f), 0.0f);
  EXPECT_EQ(ops::ExpApprox(-1e4f), 0.0f);
  EXPECT_EQ(ops::ExpApprox(-1e9f), 0.0f);
  EXPECT_EQ(ops::ExpApprox(-inf), 0.0f);
  EXPECT_EQ(ops::ExpApprox(89.0f), inf);
  EXPECT_EQ(ops::ExpApprox(inf), inf);
  EXPECT_TRUE(std::isnan(
      ops::ExpApprox(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isfinite(ops::ExpApprox(88.7f)));
  EXPECT_GE(ops::ExpApprox(-87.3f), std::numeric_limits<float>::min());
}

TEST(ExpApproxTest, NoNaNForFiniteInputs) {
  // A stride through every bit pattern: all signs and exponents.
  int64_t checked = 0;
  for (uint64_t bits = 0; bits <= 0xFFFFFFFFull; bits += 4099) {
    const float v = std::bit_cast<float>(static_cast<uint32_t>(bits));
    if (!std::isfinite(v)) continue;
    const float e = ops::ExpApprox(v);
    ASSERT_FALSE(std::isnan(e)) << "x=" << v;
    ASSERT_GE(e, 0.0f) << "x=" << v;
    ++checked;
  }
  EXPECT_GT(checked, 1000000);
}

TEST(LaneSumTest, SumsEveryElementInFixedOrder) {
  Rng rng(12);
  const Tensor x = Tensor::Randn({70}, &rng);
  EXPECT_EQ(ops::LaneSum(x.data(), 0), 0.0f);
  for (int64_t n = 1; n <= x.size(); ++n) {
    double want = 0;
    for (int64_t j = 0; j < n; ++j) want += x[j];
    EXPECT_NEAR(ops::LaneSum(x.data(), n), want, 1e-5) << "n=" << n;
  }
  // Lane l holds elements l, l + 8, ...; lanes l and l + 4 combine first,
  // so the 1e8 pair cancels before it can absorb the ones (a sequential
  // sum returns 0 here).
  const float v[8] = {1e8f, 1, 1, 1, -1e8f, 0, 0, 0};
  EXPECT_EQ(ops::LaneSum(v, 8), 3.0f);
}

// ---- MatMul ----------------------------------------------------------------

TEST(MatMulTest, Basic2D) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(MatMulTest, TransposeFlagsAgree) {
  Rng rng(5);
  Tensor a = Tensor::Randn({4, 6}, &rng);
  Tensor b = Tensor::Randn({6, 5}, &rng);
  Tensor ref = ops::MatMul(a, b);
  Tensor at = ops::TransposeLast2(a);  // [6, 4]
  Tensor bt = ops::TransposeLast2(b);  // [5, 6]
  EXPECT_TRUE(AllClose(ops::MatMul(at, b, true, false), ref, 1e-4f));
  EXPECT_TRUE(AllClose(ops::MatMul(a, bt, false, true), ref, 1e-4f));
  EXPECT_TRUE(AllClose(ops::MatMul(at, bt, true, true), ref, 1e-4f));
}

TEST(MatMulTest, BatchedMatchesPerSlice) {
  Rng rng(6);
  Tensor a = Tensor::Randn({3, 2, 4}, &rng);
  Tensor b = Tensor::Randn({3, 4, 5}, &rng);
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  for (int64_t i = 0; i < 3; ++i) {
    Tensor as({2, 4});
    Tensor bs({4, 5});
    std::copy(a.data() + i * 8, a.data() + (i + 1) * 8, as.data());
    std::copy(b.data() + i * 20, b.data() + (i + 1) * 20, bs.data());
    Tensor cs = ops::MatMul(as, bs);
    for (int64_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(c[i * 10 + j], cs[j], 1e-5);
    }
  }
}

TEST(MatMulTest, BroadcastRank2Rhs) {
  Rng rng(7);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor w = Tensor::Randn({4, 6}, &rng);
  Tensor c = ops::MatMul(a, w);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 6}));
  // Compare against flattening the batch.
  Tensor flat = a.Reshape({6, 4});
  Tensor ref = ops::MatMul(flat, w);
  EXPECT_TRUE(AllClose(c.Reshape({6, 6}), ref, 1e-5f));
}

TEST(MatMulTest, LargeSingleMatrixParallelPathMatchesSmall) {
  Rng rng(8);
  Tensor a = Tensor::Randn({130, 17}, &rng);
  Tensor b = Tensor::Randn({17, 19}, &rng);
  Tensor c = ops::MatMul(a, b);  // goes through the blocked parallel path
  // Reference: row-by-row dot products.
  for (int64_t i = 0; i < 130; i += 37) {
    for (int64_t j = 0; j < 19; j += 7) {
      float acc = 0;
      for (int64_t k = 0; k < 17; ++k) acc += a[i * 17 + k] * b[k * 19 + j];
      EXPECT_NEAR(c[i * 19 + j], acc, 1e-4);
    }
  }
}

// Golden tests: the blocked GEMM must agree with the naive triple-loop
// reference *bitwise*. Both accumulate each output in ascending-k order, so
// the match must be exact for every trans flag combination, odd/prime
// sizes that exercise the tile-edge kernels, and any thread count (the
// global pool is forced to 4 workers above).

void ExpectBitIdentical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           static_cast<size_t>(got.size()) * sizeof(float)));
}

TEST(MatMulGoldenTest, BlockedMatchesNaiveAllTransCombos) {
  Rng rng(42);
  // (m, k, n) triples: tiny, prime, tile-edge-straddling, and block-sized.
  const int64_t sizes[][3] = {{1, 1, 1},   {2, 3, 1},    {7, 13, 17},
                              {31, 61, 29}, {67, 129, 65}, {64, 256, 128},
                              {70, 257, 130}};
  for (const auto& s : sizes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        Tensor a = trans_a ? Tensor::Randn({k, m}, &rng)
                           : Tensor::Randn({m, k}, &rng);
        Tensor b = trans_b ? Tensor::Randn({n, k}, &rng)
                           : Tensor::Randn({k, n}, &rng);
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " k=" << k << " n=" << n
                     << " trans_a=" << trans_a << " trans_b=" << trans_b);
        ExpectBitIdentical(ops::MatMul(a, b, trans_a, trans_b),
                           reference::MatMulNaive(a, b, trans_a, trans_b));
      }
    }
  }
}

TEST(MatMulGoldenTest, BatchedMatchesNaive) {
  Rng rng(43);
  Tensor a = Tensor::Randn({5, 23, 31}, &rng);
  Tensor b = Tensor::Randn({5, 31, 19}, &rng);
  ExpectBitIdentical(ops::MatMul(a, b), reference::MatMulNaive(a, b));
  Tensor bt = Tensor::Randn({5, 19, 31}, &rng);
  ExpectBitIdentical(ops::MatMul(a, bt, false, true),
                     reference::MatMulNaive(a, bt, false, true));
}

TEST(MatMulGoldenTest, BroadcastMatchesNaive) {
  Rng rng(44);
  // Rank-2 rhs broadcast across lhs batch, and the reverse.
  Tensor a = Tensor::Randn({4, 3, 37, 41}, &rng);
  Tensor w = Tensor::Randn({41, 13}, &rng);
  ExpectBitIdentical(ops::MatMul(a, w), reference::MatMulNaive(a, w));
  Tensor lhs = Tensor::Randn({9, 41}, &rng);
  Tensor rhs = Tensor::Randn({6, 41, 11}, &rng);
  ExpectBitIdentical(ops::MatMul(lhs, rhs), reference::MatMulNaive(lhs, rhs));
}

// ---- Fused bias + activation epilogue ---------------------------------------

/// Runs `fn` on a worker of the global pool. A ParallelFor issued from a
/// pool worker runs its whole range inline, so this is the one-thread path
/// of every kernel `fn` calls.
void RunOnPoolWorker(const std::function<void()>& fn) {
  GlobalThreadPool()->Submit(fn);
  GlobalThreadPool()->Wait();
}

constexpr ops::Act kAllActs[] = {ops::Act::kNone, ops::Act::kGelu,
                                 ops::Act::kRelu, ops::Act::kTanh};

TEST(MatMulBiasActTest, BitIdenticalToUnfusedChainEveryAct) {
  ASSERT_GE(GlobalThreadPool()->num_threads(), 4u);
  Rng rng(45);
  // (m, k, n): m % 4 != 0 and n % 16 != 0 reach the edge micro-kernel;
  // k > 256 spans several KC panels, so the epilogue must wait for the
  // last one; n > 128 spans two NC panels; m > 64 splits rows across
  // workers; k == 0 leaves the epilogue alone on a zero product.
  const int64_t sizes[][3] = {{1, 1, 1},     {7, 13, 17},   {67, 300, 37},
                              {130, 257, 130}, {5, 513, 19}, {6, 0, 5}};
  for (const auto& s : sizes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    const Tensor x = Tensor::Randn({m, k}, &rng);
    const Tensor w = Tensor::Randn({k, n}, &rng, 0.2f);
    const Tensor b = Tensor::Randn({n}, &rng);
    const Tensor u = ops::AddBias(ops::MatMul(x, w), b);
    for (const ops::Act act : kAllActs) {
      const Tensor want = ops::Activate(u, act);
      for (const bool one_thread : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " k=" << k << " n=" << n
                     << " act=" << static_cast<int>(act)
                     << " one_thread=" << one_thread);
        Tensor got, got_pre, pre;
        auto run = [&] {
          got = ops::MatMulBiasAct(x, w, b, act);
          got_pre = ops::MatMulBiasAct(x, w, b, act, &pre);
        };
        if (one_thread) {
          RunOnPoolWorker(run);
        } else {
          run();
        }
        ExpectBitIdentical(got, want);
        ExpectBitIdentical(got_pre, want);
        ExpectBitIdentical(pre, u);
      }
    }
  }
}

TEST(MatMulBiasActTest, LeadingDimsAreRows) {
  Rng rng(46);
  const Tensor x = Tensor::Randn({3, 7, 300}, &rng);
  const Tensor w = Tensor::Randn({300, 21}, &rng, 0.1f);
  const Tensor b = Tensor::Randn({21}, &rng);
  const Tensor y = ops::MatMulBiasAct(x, w, b, ops::Act::kGelu);
  EXPECT_EQ(y.shape(), (Shape{3, 7, 21}));
  ExpectBitIdentical(y, ops::Gelu(ops::AddBias(ops::MatMul(x, w), b)));
}

// ---- Permute / reshape ------------------------------------------------------

TEST(PermuteTest, TransposeLast2) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::TransposeLast2(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_TRUE(AllClose(t, Tensor({3, 2}, {1, 4, 2, 5, 3, 6})));
}

TEST(PermuteTest, HeadSplitRoundTrip) {
  // [B, T, nh, dh] -> [B, nh, T, dh] -> back.
  Rng rng(9);
  Tensor x = Tensor::Randn({2, 5, 3, 4}, &rng);
  Tensor p = ops::Permute(x, {0, 2, 1, 3});
  EXPECT_EQ(p.shape(), (Shape{2, 3, 5, 4}));
  Tensor back = ops::Permute(p, {0, 2, 1, 3});
  EXPECT_TRUE(AllClose(back, x));
}

TEST(PermuteTest, ExplicitSmallCase) {
  Tensor x({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor p = ops::Permute(x, {2, 0, 1});
  // p[i,j,k] = x[j,k,i].
  EXPECT_EQ(p.At({0, 1, 1}), x.At({1, 1, 0}));
  EXPECT_EQ(p.At({1, 0, 1}), x.At({0, 1, 1}));
}

// ---- Reductions -------------------------------------------------------------

TEST(ReductionTest, SumMeanAll) {
  Tensor x({2, 2}, {1, 2, 3, 4});
  EXPECT_NEAR(ops::SumAll(x)[0], 10.0f, 1e-6);
  EXPECT_NEAR(ops::MeanAll(x)[0], 2.5f, 1e-6);
}

TEST(ReductionTest, SumLastAxis) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = ops::SumLastAxis(x);
  EXPECT_TRUE(AllClose(s, Tensor({2}, {6, 15})));
}

TEST(ReductionTest, ArgMaxLastAxis) {
  Tensor x({2, 3}, {0.1f, 0.9f, 0.3f, 5, 4, 6});
  auto idx = ops::ArgMaxLastAxis(x);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 2);
}

// ---- Softmax family ----------------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(10);
  Tensor x = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor y = ops::Softmax(x);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t j = 0; j < 7; ++j) {
      float v = y[r * 7 + j];
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(SoftmaxTest, NumericallyStableForLargeInputs) {
  Tensor x({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor y = ops::Softmax(x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y[i], 1.0f / 3, 1e-6);
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(11);
  Tensor x = Tensor::Randn({3, 5}, &rng);
  Tensor a = ops::LogSoftmax(x);
  Tensor b = ops::Log(ops::Softmax(x));
  EXPECT_TRUE(AllClose(a, b, 1e-5f));
}

TEST(SoftmaxTest, IsExpApproxOverLaneSum) {
  // The fused attention kernel computes its probs with exactly these
  // operations; the two agree bit for bit only while this holds.
  Rng rng(13);
  const int64_t n = 37;
  Tensor x = Tensor::Randn({3, n}, &rng, 3.0f);
  x[5] = -1e9f;  // a masked score
  const Tensor y = ops::Softmax(x);
  for (int64_t r = 0; r < 3; ++r) {
    const float* row = x.data() + r * n;
    const float mx = *std::max_element(row, row + n);
    std::vector<float> e(n);
    for (int64_t j = 0; j < n; ++j) e[j] = ops::ExpApprox(row[j] - mx);
    const float inv = 1.0f / ops::LaneSum(e.data(), n);
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(y[r * n + j], e[j] * inv) << "row " << r << " col " << j;
    }
  }
  EXPECT_EQ(y[5], 0.0f);
}

TEST(SoftmaxTest, MaskedAddExactShape) {
  Tensor x({1, 1, 1, 3}, {1, 2, 3});
  Tensor mask({1, 1, 1, 3}, {0, 1, 0});
  Tensor y = ops::MaskedAdd(x, mask, -100.0f);
  EXPECT_EQ(y[1], -98.0f);
  EXPECT_EQ(y[0], 1.0f);
}

TEST(SoftmaxTest, MaskedAddBroadcast) {
  // x: [2, 2, 2, 3], mask: [2, 1, 1, 3].
  Tensor x = Tensor::Zeros({2, 2, 2, 3});
  Tensor mask({2, 1, 1, 3}, {0, 0, 1, 1, 0, 0});
  Tensor y = ops::MaskedAdd(x, mask, -9.0f);
  // Batch 0 masks position 2 everywhere.
  EXPECT_EQ(y.At({0, 0, 0, 2}), -9.0f);
  EXPECT_EQ(y.At({0, 1, 1, 2}), -9.0f);
  EXPECT_EQ(y.At({0, 0, 0, 0}), 0.0f);
  // Batch 1 masks position 0 everywhere.
  EXPECT_EQ(y.At({1, 1, 0, 0}), -9.0f);
  EXPECT_EQ(y.At({1, 0, 1, 1}), 0.0f);
}

// ---- Gather / scatter ---------------------------------------------------------

TEST(GatherTest, GatherRows) {
  Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = ops::GatherRows(table, {2, 0, 2});
  EXPECT_TRUE(AllClose(out, Tensor({3, 2}, {5, 6, 1, 2, 5, 6})));
}

TEST(GatherTest, ScatterAddAccumulatesDuplicates) {
  Tensor grad({3, 2}, {1, 1, 2, 2, 4, 4});
  Tensor table_grad = Tensor::Zeros({3, 2});
  ops::ScatterAddRows(grad, {2, 0, 2}, &table_grad);
  EXPECT_TRUE(AllClose(table_grad, Tensor({3, 2}, {2, 2, 0, 0, 5, 5})));
}

TEST(GatherTest, SelectAndAddTimeStep) {
  Tensor x({2, 3, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor s = ops::SelectTimeStep(x, 1);
  EXPECT_TRUE(AllClose(s, Tensor({2, 2}, {2, 3, 8, 9})));
  Tensor grad = Tensor::Zeros({2, 3, 2});
  ops::AddToTimeStep(s, 2, &grad);
  EXPECT_EQ(grad.At({0, 2, 0}), 2.0f);
  EXPECT_EQ(grad.At({1, 2, 1}), 9.0f);
  EXPECT_EQ(grad.At({0, 0, 0}), 0.0f);
}

// ---- Concat / split --------------------------------------------------------

TEST(ConcatTest, LastAxis) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 1}, {9, 8});
  Tensor c = ops::Concat({a, b}, 1);
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {1, 2, 9, 3, 4, 8})));
}

TEST(ConcatTest, FirstAxis) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  Tensor c = ops::Concat({a, b}, 0);
  EXPECT_TRUE(AllClose(c, Tensor({3, 2}, {1, 2, 3, 4, 5, 6})));
}

TEST(ConcatTest, SplitInvertsConcat) {
  Rng rng(12);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor b = Tensor::Randn({2, 2, 4}, &rng);
  Tensor c = ops::Concat({a, b}, 1);
  auto parts = ops::SplitAxis(c, 1, {3, 2});
  EXPECT_TRUE(AllClose(parts[0], a));
  EXPECT_TRUE(AllClose(parts[1], b));
}

// ---- LayerNorm -----------------------------------------------------------

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(13);
  Tensor x = Tensor::Randn({4, 8}, &rng, 5.0f);
  Tensor gamma = Tensor::Ones({8});
  Tensor beta = Tensor::Zeros({8});
  Tensor mean, rstd;
  Tensor y = ops::LayerNormForward(x, gamma, beta, 1e-5f, &mean, &rstd);
  for (int64_t r = 0; r < 4; ++r) {
    float mu = 0, var = 0;
    for (int64_t j = 0; j < 8; ++j) mu += y[r * 8 + j];
    mu /= 8;
    for (int64_t j = 0; j < 8; ++j) {
      var += (y[r * 8 + j] - mu) * (y[r * 8 + j] - mu);
    }
    var /= 8;
    EXPECT_NEAR(mu, 0.0f, 1e-4);
    EXPECT_NEAR(var, 1.0f, 1e-2);
  }
}

TEST(LayerNormTest, AffineApplied) {
  Tensor x({1, 2}, {1, 3});
  Tensor gamma({2}, {2, 2});
  Tensor beta({2}, {10, 10});
  Tensor mean, rstd;
  Tensor y = ops::LayerNormForward(x, gamma, beta, 1e-5f, &mean, &rstd);
  // Normalized values are -1 and +1 (up to eps), so outputs ~ 8 and 12.
  EXPECT_NEAR(y[0], 8.0f, 1e-2);
  EXPECT_NEAR(y[1], 12.0f, 1e-2);
}

// ---- AllClose helpers ------------------------------------------------------

TEST(AllCloseTest, DetectsDifference) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {1, 2.1f});
  EXPECT_FALSE(ops::AllClose(a, b, 1e-3f, 1e-3f));
  EXPECT_TRUE(ops::AllClose(a, b, 0.2f, 0.0f));
  EXPECT_NEAR(ops::MaxAbsDiff(a, b), 0.1f, 1e-6);
}

TEST(AllCloseTest, ShapeMismatchNotClose) {
  EXPECT_FALSE(ops::AllClose(Tensor({2}), Tensor({3})));
}

// ---- Memory accounting -----------------------------------------------------

TEST(TensorMemStatsTest, TracksLiveAndPeakBytes) {
  const int64_t base = GetTensorMemStats().live_bytes;
  ResetTensorMemPeak();
  {
    Tensor a({64, 64});  // 16 KiB
    EXPECT_EQ(GetTensorMemStats().live_bytes - base, 64 * 64 * 4);
    {
      Tensor b = a.Clone();  // +16 KiB
      EXPECT_EQ(GetTensorMemStats().live_bytes - base, 2 * 64 * 64 * 4);
    }
    // b released: live drops, peak remembers both.
    EXPECT_EQ(GetTensorMemStats().live_bytes - base, 64 * 64 * 4);
    EXPECT_GE(GetTensorMemStats().peak_bytes - base, 2 * 64 * 64 * 4);
  }
  EXPECT_EQ(GetTensorMemStats().live_bytes, base);
  ResetTensorMemPeak();
  EXPECT_EQ(GetTensorMemStats().peak_bytes, GetTensorMemStats().live_bytes);
}

TEST(TensorMemStatsTest, SharedViewsCountBufferOnce) {
  const int64_t base = GetTensorMemStats().live_bytes;
  Tensor a({8, 8});
  Tensor view = a.Reshape({64});  // shares the buffer
  Tensor copy = a;                // shares the buffer
  EXPECT_EQ(view.data(), a.data());
  EXPECT_EQ(copy.data(), a.data());
  EXPECT_EQ(GetTensorMemStats().live_bytes - base, 8 * 8 * 4);
}

}  // namespace
}  // namespace emx
