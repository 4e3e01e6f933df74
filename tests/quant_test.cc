#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/entity_matcher.h"
#include "data/generators.h"
#include "file_fuzz.h"
#include "io/emxm.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "pretrain/model_zoo.h"
#include "quant/int8_gemm.h"
#include "quant/model_file.h"
#include "quant/observer.h"
#include "quant/quantize_matcher.h"
#include "quant/quantized_linear.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"
#include "util/rng.h"
#include "util/status.h"

namespace emx {
namespace quant {
namespace {

// ---- Quantization parameters ----------------------------------------------

TEST(ObserverTest, ChooseQuantParamsCoversRangeAndZero) {
  QuantParams p = ChooseQuantParams(-1.0f, 3.0f);
  EXPECT_NEAR(p.scale, 4.0f / 255.0f, 1e-7);
  // Zero is exactly representable: dequant(zero_point) == 0.
  EXPECT_EQ(p.scale * (p.zero_point - p.zero_point), 0.0f);
  // Both endpoints land within one step of the grid.
  EXPECT_NEAR(p.scale * (0 - p.zero_point), -1.0f, p.scale);
  EXPECT_NEAR(p.scale * (255 - p.zero_point), 3.0f, p.scale);
}

TEST(ObserverTest, ChooseQuantParamsWidensOneSidedRanges) {
  // Positive-only data: the grid is anchored at 0.
  QuantParams pos = ChooseQuantParams(2.0f, 6.0f);
  EXPECT_EQ(pos.zero_point, 0);
  EXPECT_NEAR(pos.scale, 6.0f / 255.0f, 1e-7);
  // Negative-only data: 0 becomes the top code.
  QuantParams neg = ChooseQuantParams(-4.0f, -1.0f);
  EXPECT_EQ(neg.zero_point, 255);
  EXPECT_NEAR(neg.scale, 4.0f / 255.0f, 1e-7);
}

TEST(ObserverTest, ChooseQuantParamsDegenerateRange) {
  QuantParams p = ChooseQuantParams(0.0f, 0.0f);
  EXPECT_EQ(p.scale, 1.0f);
  EXPECT_EQ(p.zero_point, 0);
}

TEST(ObserverTest, MinMaxObserverTracksExtremes) {
  MinMaxObserver obs;
  EXPECT_FALSE(obs.seen());
  const float a[] = {0.5f, -2.0f, 1.0f};
  obs.Observe(a, 3);
  const float b[] = {3.5f, 0.0f};
  obs.Observe(b, 2);
  EXPECT_TRUE(obs.seen());
  EXPECT_EQ(obs.min(), -2.0f);
  EXPECT_EQ(obs.max(), 3.5f);
  QuantParams p = obs.ComputeQuantParams();
  EXPECT_NEAR(p.scale, 5.5f / 255.0f, 1e-7);
}

TEST(ObserverTest, HistogramObserverClipsOutliers) {
  Rng rng(7);
  HistogramObserver obs(/*clip_fraction=*/1e-3);
  Tensor bulk = Tensor::RandUniform({10000}, &rng, -1.0f, 1.0f);
  obs.Observe(bulk.data(), bulk.size());
  const float outlier = 100.0f;
  obs.Observe(&outlier, 1);

  EXPECT_EQ(obs.total(), 10001);
  EXPECT_EQ(obs.max(), 100.0f);  // true extrema are still tracked
  float lo = 0, hi = 0;
  obs.ClippedRange(&lo, &hi);
  // The single outlier is far below the 1e-3 tail mass, so the clipped
  // range stays near the bulk instead of stretching the grid 100x.
  EXPECT_LT(hi, 5.0f);
  EXPECT_GT(lo, -5.0f);
  QuantParams p = obs.ComputeQuantParams();
  EXPECT_LT(p.scale, 10.0f / 255.0f);
}

TEST(ObserverTest, HistogramObserverGrowsToCoverNewData) {
  HistogramObserver obs;
  const float small[] = {-0.5f, 0.5f};
  obs.Observe(small, 2);
  const float wide[] = {-8.0f, 16.0f};
  obs.Observe(wide, 2);
  EXPECT_EQ(obs.min(), -8.0f);
  EXPECT_EQ(obs.max(), 16.0f);
  // No mass lost in the rebinnings.
  EXPECT_EQ(obs.total(), 4);
}

// ---- Packing ----------------------------------------------------------------

/// Reads logical weight [k][j] out of the packed layout documented on
/// PackedWeights.
int8_t PackedAt(const PackedWeights& w, int64_t k, int64_t j) {
  const int64_t tile = (j / kColBlock) * (w.k_padded / kKGroup) + k / kKGroup;
  const int64_t lane = (j % kColBlock) * kKGroup + k % kKGroup;
  return w.packed_data()[tile * kColBlock * kKGroup + lane];
}

TEST(Int8GemmTest, PerChannelScalesBoundQuantizationError) {
  Rng rng(12);
  Tensor w = Tensor::Randn({20, 9}, &rng, 0.1f);
  Tensor b = Tensor::Zeros({9});
  PackedWeights packed = PackWeights(w, b, ChooseQuantParams(-1.0f, 1.0f));
  EXPECT_EQ(packed.k_padded, 20);
  EXPECT_EQ(packed.n_padded, 16);
  for (int64_t k = 0; k < 20; ++k) {
    for (int64_t j = 0; j < 9; ++j) {
      const float orig = w.data()[k * 9 + j];
      const float deq = packed.w_scales[static_cast<size_t>(j)] *
                        static_cast<float>(PackedAt(packed, k, j));
      // Symmetric rounding error is at most half a step per channel.
      EXPECT_LE(std::fabs(orig - deq),
                0.5f * packed.w_scales[static_cast<size_t>(j)] + 1e-7f)
          << "k=" << k << " j=" << j;
    }
  }
}

// ---- Kernel exactness -------------------------------------------------------

// Ragged shapes for the vector stages: k remainders 0, 1 and 2 against the
// 4-byte k-group, n tails of 2, 1 and 8 lanes, row counts off the 4-row
// unroll and the 16-row block, and widths that reach the
// 4-tile VNNI blocking (n_padded >= 64) with and without a column tail.
constexpr int64_t kRaggedMs[] = {1, 3, 5, 9, 64, 1023};
constexpr int64_t kRaggedIns[] = {37, 50, 64, 256};
constexpr int64_t kRaggedOuts[] = {2, 33, 64, 200, 256};

/// The activation grid of the ragged tests: narrower than the N(0, 2)
/// inputs, so codes hit both the 0 and the 255 clamp.
QuantParams NarrowGrid() { return ChooseQuantParams(-1.5f, 2.0f); }

std::vector<uint32_t> Bits(const std::vector<float>& v) {
  std::vector<uint32_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

/// Inputs, packed weights, codes and accumulators of one ragged shape.
struct RaggedCase {
  RaggedCase(int64_t m_, int64_t in, int64_t out, Rng* rng)
      : m(m_), x(Tensor::Randn({m_, in}, rng, 2.0f)) {
    packed = PackWeights(Tensor::Randn({in, out}, rng, 0.1f),
                         Tensor::Randn({out}, rng, 0.5f), NarrowGrid());
    qa.resize(static_cast<size_t>(m * packed.k_padded));
    QuantizeActivationsScalar(x.data(), m, in, packed.k_padded, packed.act,
                              qa.data());
    acc.resize(static_cast<size_t>(m * packed.n_padded));
    Int8GemmRowRangeScalar(qa.data(), 0, m, packed, acc.data());
  }

  int64_t m;
  Tensor x;
  PackedWeights packed;
  std::vector<uint8_t> qa;
  std::vector<int32_t> acc;
};

TEST(Int8GemmTest, QuantizeActivationsMatchesScalarReference) {
  Rng rng(13);
  bool saw_zero = false, saw_max = false;
  for (int64_t m : kRaggedMs) {
    for (int64_t in : kRaggedIns) {
      Tensor x = Tensor::Randn({m, in}, &rng, 2.0f);
      const int64_t k_padded = (in + kKGroup - 1) / kKGroup * kKGroup;
      std::vector<uint8_t> fast(static_cast<size_t>(m * k_padded), 1);
      std::vector<uint8_t> ref(static_cast<size_t>(m * k_padded), 2);
      QuantizeActivations(x.data(), m, in, k_padded, NarrowGrid(),
                          fast.data());
      QuantizeActivationsScalar(x.data(), m, in, k_padded, NarrowGrid(),
                                ref.data());
      ASSERT_EQ(fast, ref) << "m=" << m << " in=" << in;
      for (uint8_t q : ref) {
        saw_zero |= q == 0;
        saw_max |= q == 255;
      }
    }
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(Int8GemmTest, VectorizedKernelMatchesScalarReference) {
  Rng rng(13);
  for (int64_t m : kRaggedMs) {
    for (int64_t in : kRaggedIns) {
      for (int64_t out : kRaggedOuts) {
        RaggedCase c(m, in, out, &rng);
        std::vector<int32_t> fast(c.acc.size(), -1);
        Int8GemmRowRange(c.qa.data(), 0, m, c.packed, fast.data());
        // Integer accumulation is exact: every accumulator must agree,
        // whichever kernel (VNNI or scalar) the build compiled in.
        ASSERT_EQ(fast, c.acc) << "m=" << m << " in=" << in << " out=" << out;
        // A row range that starts off the 4-row unroll writes only its
        // own rows.
        if (m >= 5) {
          std::vector<int32_t> part(c.acc.size(), -1);
          Int8GemmRowRange(c.qa.data(), 1, m - 1, c.packed, part.data());
          const size_t n = static_cast<size_t>(c.packed.n_padded);
          for (size_t i = 0; i < static_cast<size_t>(m); ++i) {
            const bool inside = i >= 1 && i + 1 < static_cast<size_t>(m);
            for (size_t j = 0; j < n; ++j) {
              ASSERT_EQ(part[i * n + j], inside ? c.acc[i * n + j] : -1)
                  << "m=" << m << " in=" << in << " out=" << out
                  << " i=" << i << " j=" << j;
            }
          }
        }
      }
    }
  }
}

TEST(Int8GemmTest, Int8LinearForwardMatchesScalarPipeline) {
  Rng rng(19);
  for (int64_t m : kRaggedMs) {
    for (int64_t in : kRaggedIns) {
      for (int64_t out : kRaggedOuts) {
        RaggedCase c(m, in, out, &rng);
        std::vector<float> ref(static_cast<size_t>(m * out), -2.0f);
        DequantEpilogue(c.acc.data(), m, c.packed, ref.data());
        // The fused, parallel Int8LinearForward is the same three stages
        // as the scalar quantize and GEMM plus the epilogue.
        std::vector<float> fused(ref.size(), -3.0f);
        Int8LinearForward(c.x.data(), m, c.packed, fused.data());
        ASSERT_EQ(Bits(fused), Bits(ref))
            << "m=" << m << " in=" << in << " out=" << out;
      }
    }
  }
}

/// A LUT whose 256 entries are all distinct, so a lookup of the wrong
/// code can never read the right byte.
std::array<uint8_t, 256> PermutationLut(Rng* rng) {
  std::array<uint8_t, 256> lut;
  for (size_t i = 0; i < lut.size(); ++i) lut[i] = static_cast<uint8_t>(i);
  for (size_t i = lut.size() - 1; i > 0; --i) {
    std::swap(lut[i], lut[rng->NextUint64(i + 1)]);
  }
  return lut;
}

TEST(Int8GemmTest, RequantizeLutMatchesScalarReference) {
  Rng rng(21);
  const std::array<uint8_t, 256> lut = PermutationLut(&rng);
  std::array<uint8_t, 256> code_of;  // inverse of lut
  for (size_t i = 0; i < lut.size(); ++i) {
    code_of[lut[i]] = static_cast<uint8_t>(i);
  }
  bool saw_zero = false, saw_max = false;
  for (int64_t m : kRaggedMs) {
    for (int64_t in : kRaggedIns) {
      for (int64_t out : kRaggedOuts) {
        RaggedCase c(m, in, out, &rng);
        // A pre-activation grid over ~60% of the fc1 output's range, so
        // codes clamp at both ends; rows are 3 bytes wider than `out` to
        // cover the padding.
        std::vector<float> y(static_cast<size_t>(m * out));
        DequantEpilogue(c.acc.data(), m, c.packed, y.data());
        const auto [lo, hi] = std::minmax_element(y.begin(), y.end());
        const QuantParams mid = ChooseQuantParams(0.6f * *lo, 0.6f * *hi);
        const int64_t ld_q = out + 3;
        std::vector<uint8_t> fast(static_cast<size_t>(m * ld_q), 1);
        std::vector<uint8_t> ref(static_cast<size_t>(m * ld_q), 2);
        RequantizeLut(c.acc.data(), m, c.packed, mid, lut, ld_q, 7,
                      fast.data());
        RequantizeLutScalar(c.acc.data(), m, c.packed, mid, lut, ld_q, 7,
                            ref.data());
        ASSERT_EQ(fast, ref) << "m=" << m << " in=" << in << " out=" << out;
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < ld_q; ++j) {
            const uint8_t q = ref[static_cast<size_t>(i * ld_q + j)];
            if (j >= out) {
              ASSERT_EQ(q, 7);
              continue;
            }
            saw_zero |= code_of[q] == 0;
            saw_max |= code_of[q] == 255;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(Int8GemmTest, NanQuantizesToCodeZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(QuantizeCode(nan, 128.0f), 0);
  EXPECT_EQ(QuantizeCode(inf, 0.0f), 255);
  EXPECT_EQ(QuantizeCode(-inf, 255.0f), 0);

  // 20 values put a NaN in a full vector and in the masked tail.
  std::vector<float> x(20, 0.25f);
  x[3] = nan;
  x[17] = nan;
  x[5] = inf;
  x[18] = -inf;
  const QuantParams grid = ChooseQuantParams(-1.0f, 1.0f);
  std::vector<uint8_t> fast(x.size()), ref(x.size());
  QuantizeActivations(x.data(), 1, 20, 20, grid, fast.data());
  QuantizeActivationsScalar(x.data(), 1, 20, 20, grid, ref.data());
  EXPECT_EQ(fast, ref);
  EXPECT_EQ(ref[3], 0);
  EXPECT_EQ(ref[17], 0);
  EXPECT_EQ(ref[5], 255);
  EXPECT_EQ(ref[18], 0);
  EXPECT_NE(ref[0], 0);

  // A NaN fc1 output (here a NaN bias) looks up lut[0] in the requantize
  // stage.
  Rng rng(23);
  PackedWeights w = PackWeights(Tensor::Randn({8, 20}, &rng, 0.1f),
                                Tensor::Zeros({20}), grid);
  w.bias[2] = nan;
  w.bias[19] = nan;
  std::vector<uint8_t> qa(static_cast<size_t>(w.k_padded), 140);
  std::vector<int32_t> acc(static_cast<size_t>(w.n_padded));
  Int8GemmRowRangeScalar(qa.data(), 0, 1, w, acc.data());
  const std::array<uint8_t, 256> lut = PermutationLut(&rng);
  std::vector<uint8_t> qf(20), qr(20);
  RequantizeLut(acc.data(), 1, w, grid, lut, 20, 0, qf.data());
  RequantizeLutScalar(acc.data(), 1, w, grid, lut, 20, 0, qr.data());
  EXPECT_EQ(qf, qr);
  EXPECT_EQ(qr[2], lut[0]);
  EXPECT_EQ(qr[19], lut[0]);
}

TEST(Int8GemmTest, ViewPackedWeightsRejectsCorruptEpilogueArrays) {
  // The mapped load folds zero_point * col_sums in int32; values no
  // quantizer writes are rejected instead of overflowing.
  Rng rng(25);
  PackedWeights good = PackWeights(Tensor::Randn({8, 20}, &rng, 0.1f),
                                   Tensor::Zeros({20}), NarrowGrid());
  const auto view = [&good](QuantParams act, std::vector<int32_t> col_sums) {
    return ViewPackedWeights(
        good.in, good.out, good.packed_data(),
        static_cast<uint64_t>(good.data.size()), nullptr, good.w_scales,
        good.bias, std::move(col_sums), act);
  };
  ASSERT_TRUE(view(good.act, good.col_sums).ok());
  QuantParams bad_zp = good.act;
  bad_zp.zero_point = 1 << 24;
  EXPECT_FALSE(view(bad_zp, good.col_sums).ok());
  bad_zp.zero_point = -1;
  EXPECT_FALSE(view(bad_zp, good.col_sums).ok());
  std::vector<int32_t> bad_sums = good.col_sums;
  bad_sums[7] = 127 * 8 + 1;
  EXPECT_FALSE(view(good.act, bad_sums).ok());
}

TEST(Int8GemmTest, EpilogueFoldsZeroPointExactly) {
  // An all-zero fp32 input quantizes to rows of zero_point; the epilogue's
  // zp * col_sums correction must cancel them exactly, leaving just bias.
  Rng rng(14);
  const int64_t m = 3, in = 12, out = 5;
  Tensor x = Tensor::Zeros({m, in});
  Tensor w = Tensor::Randn({in, out}, &rng, 0.1f);
  Tensor b = Tensor::Randn({out}, &rng);
  PackedWeights packed = PackWeights(w, b, ChooseQuantParams(-2.0f, 2.0f));

  std::vector<float> y(static_cast<size_t>(m * out));
  Int8LinearForward(x.data(), m, packed, y.data());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < out; ++j) {
      EXPECT_EQ(y[static_cast<size_t>(i * out + j)],
                b[static_cast<size_t>(j)])
          << "i=" << i << " j=" << j;
    }
  }
}

// ---- Int8LinearBackend golden ----------------------------------------------

TEST(Int8LinearBackendTest, MatchesFp32LinearWithinTolerance) {
  Rng rng(15);
  nn::Linear lin(24, 17, &rng, /*init_stddev=*/0.1f);
  Tensor x = Tensor::Randn({10, 24}, &rng);
  float lo = x[0], hi = x[0];
  for (int64_t i = 0; i < x.size(); ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }

  Int8LinearBackend backend;
  backend.FreezeFromPacked(PackWeights(lin.weight().value(),
                                       lin.bias().value(),
                                       ChooseQuantParams(lo, hi)));
  EXPECT_EQ(backend.packed().in, 24);
  EXPECT_EQ(backend.packed().out, 17);

  NoGradGuard no_grad;
  nn::QuantModeGuard fp32_only(false);  // reference path, no backend routing
  Tensor ref = lin.Forward(Variable::Constant(x)).value();
  Tensor got = backend.Forward(x);
  ASSERT_EQ(ref.shape(), got.shape());
  // Documented tolerance: with u8 activations over the observed range and
  // s8 per-channel weights, the error budget is a few quantization steps —
  // far below 0.08 at this layer size.
  float max_err = 0, mean_err = 0;
  for (int64_t i = 0; i < ref.size(); ++i) {
    const float e = std::fabs(ref[i] - got[i]);
    max_err = std::max(max_err, e);
    mean_err += e;
  }
  mean_err /= static_cast<float>(ref.size());
  EXPECT_LT(max_err, 0.08f);
  EXPECT_LT(mean_err, 0.02f);
}

TEST(Int8LinearBackendTest, AttachedLinearPreservesLeadingDims) {
  Rng rng(16);
  nn::Linear lin(8, 6, &rng);
  auto backend = std::make_shared<Int8LinearBackend>();
  backend->FreezeFromPacked(PackWeights(lin.weight().value(),
                                        lin.bias().value(),
                                        ChooseQuantParams(-3.0f, 3.0f)));
  lin.set_backend(backend);
  NoGradGuard no_grad;
  Tensor x = Tensor::Randn({2, 5, 8}, &rng);
  Variable y = lin.Forward(Variable::Constant(x));
  EXPECT_EQ(y.value().shape(), (Shape{2, 5, 6}));
  EXPECT_FALSE(y.requires_grad());
  // The layer routed through the backend: same values as the 2-D call.
  Tensor flat = backend->Forward(x.Reshape({10, 8}));
  for (int64_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(y.value().data()[i], flat[i]) << i;
  }
}

// ---- Activation LUT / fused FFN ---------------------------------------------

TEST(QuantizedFfnTest, ActivationScalarMatchesFp32Ops) {
  // The LUT's scalar activation and the vectorized fp32 ops share one
  // definition (tensor/kernel_math.h): equal bit for bit, x = i * 1e-4
  // over [-12, 12].
  constexpr int64_t kHalf = 120000;
  Tensor x({2 * kHalf + 1});
  for (int64_t i = -kHalf; i <= kHalf; ++i) {
    x[i + kHalf] = static_cast<float>(i) * 1e-4f;
  }
  for (nn::Activation act :
       {nn::Activation::kGelu, nn::Activation::kRelu, nn::Activation::kTanh}) {
    Tensor ref = nn::ApplyActivation(Variable::Constant(x), act).value();
    for (int64_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(ActivationScalar(x[i], act), ref[i])
          << "activation " << static_cast<int>(act) << " x=" << x[i];
    }
  }
}

TEST(QuantizedFfnTest, FusedPipelineMatchesFp32FfnWithinTolerance) {
  Rng rng(17);
  nn::FeedForward ffn(16, 32, &rng, nn::Activation::kGelu,
                      /*init_stddev=*/0.1f);
  Tensor x = Tensor::Randn({8, 16}, &rng);

  // Calibrate the inner Linears on the evaluation input itself (min/max
  // observers, so the grid covers everything the test feeds in).
  auto fc1_be = std::make_shared<Int8LinearBackend>(ObserverKind::kMinMax);
  auto fc2_be = std::make_shared<Int8LinearBackend>(ObserverKind::kMinMax);
  ffn.fc1()->set_backend(fc1_be);
  ffn.fc2()->set_backend(fc2_be);
  NoGradGuard no_grad;
  Tensor ref =
      ffn.Forward(Variable::Constant(x), /*dropout_p=*/0.0f, /*train=*/false,
                  &rng)
          .value();
  ASSERT_TRUE(fc1_be->observed());
  ASSERT_TRUE(fc2_be->observed());
  ASSERT_TRUE(fc1_be->Freeze(*ffn.fc1()).ok());
  ASSERT_TRUE(fc2_be->Freeze(*ffn.fc2()).ok());
  ffn.set_backend(std::make_shared<Int8FfnBackend>(
      fc1_be->packed(), fc2_be->packed(), fc1_be->ObservedOutputParams(),
      ffn.activation()));

  Tensor got =
      ffn.Forward(Variable::Constant(x), 0.0f, false, &rng).value();
  ASSERT_EQ(ref.shape(), got.shape());
  float max_err = 0;
  for (int64_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err, std::fabs(ref[i] - got[i]));
  }
  // Two GEMM quantizations plus the 256-entry GELU LUT; each contributes
  // on the order of one grid step.
  EXPECT_LT(max_err, 0.08f);

  // Disabling QuantMode falls back to the exact fp32 result.
  nn::QuantModeGuard fp32_only(false);
  Tensor fp32 = ffn.Forward(Variable::Constant(x), 0.0f, false, &rng).value();
  for (int64_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(fp32[i], ref[i]);
  }
}

TEST(QuantizedFfnTest, ForwardMatchesScalarPipeline) {
  // Int8FfnBackend::Forward (fused per row block, vector stages, VNNI
  // kernel, pool-parallel) against the scalar reference stages run one
  // after the other over the whole batch: the same bits.
  Rng rng(29);
  for (int64_t m : {1, 5, 1023}) {
    for (const auto& [hidden, ffn_dim] :
         {std::pair<int64_t, int64_t>{64, 256}, {37, 200}}) {
      const QuantParams in_grid = NarrowGrid();
      const QuantParams mid = ChooseQuantParams(-2.0f, 3.0f);
      const QuantParams fc2_grid = ChooseQuantParams(-0.2f, 3.0f);
      Int8FfnBackend backend(
          PackWeights(Tensor::Randn({hidden, ffn_dim}, &rng, 0.1f),
                      Tensor::Randn({ffn_dim}, &rng, 0.5f), in_grid),
          PackWeights(Tensor::Randn({ffn_dim, hidden}, &rng, 0.1f),
                      Tensor::Randn({hidden}, &rng, 0.5f), fc2_grid),
          mid, nn::Activation::kGelu);
      const PackedWeights& fc1 = backend.fc1();
      const PackedWeights& fc2 = backend.fc2();
      Tensor x = Tensor::Randn({m, hidden}, &rng, 2.0f);

      std::vector<uint8_t> qa(static_cast<size_t>(m * fc1.k_padded));
      std::vector<int32_t> acc(static_cast<size_t>(m * fc1.n_padded));
      std::vector<uint8_t> qh(static_cast<size_t>(m * fc2.k_padded));
      std::vector<int32_t> acc2(static_cast<size_t>(m * fc2.n_padded));
      std::vector<float> ref(static_cast<size_t>(m * hidden));
      QuantizeActivationsScalar(x.data(), m, hidden, fc1.k_padded, fc1.act,
                                qa.data());
      Int8GemmRowRangeScalar(qa.data(), 0, m, fc1, acc.data());
      RequantizeLutScalar(acc.data(), m, fc1, mid, backend.lut(),
                          fc2.k_padded,
                          static_cast<uint8_t>(fc2.act.zero_point),
                          qh.data());
      Int8GemmRowRangeScalar(qh.data(), 0, m, fc2, acc2.data());
      DequantEpilogue(acc2.data(), m, fc2, ref.data());

      Tensor got = backend.Forward(x);
      ASSERT_EQ(got.size(), static_cast<int64_t>(ref.size()));
      ASSERT_EQ(Bits(got.ToVector()), Bits(ref))
          << "m=" << m << " hidden=" << hidden << " ffn=" << ffn_dim;
    }
  }
}

TEST(Int8LinearBackendTest, FreezeWithoutCalibrationFails) {
  Rng rng(18);
  nn::Linear lin(4, 4, &rng);
  Int8LinearBackend backend;
  Status s = backend.Freeze(lin);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---- End-to-end matcher quantization ---------------------------------------

class QuantMatcherTest : public ::testing::Test {
 protected:
  static constexpr const char* kCacheDir = "/tmp/emx_zoo_quant_test";
  static constexpr int64_t kSeqLen = 32;

  static pretrain::ZooOptions Zoo() {
    pretrain::ZooOptions zoo;
    zoo.cache_dir = kCacheDir;
    zoo.vocab_size = 500;
    zoo.corpus.num_documents = 150;
    zoo.skip_pretraining = true;
    return zoo;
  }

  static std::unique_ptr<core::EntityMatcher> MakeMatcher() {
    auto bundle = pretrain::GetPretrained(models::Architecture::kBert, Zoo());
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    auto m = std::make_unique<core::EntityMatcher>(std::move(bundle).value());
    m->set_eval_max_seq_len(kSeqLen);
    return m;
  }

  static CalibrationData Calib() {
    CalibrationData calib;
    for (int i = 0; i < 12; ++i) {
      calib.texts_a.push_back("canon powershot camera model " +
                              std::to_string(i));
      calib.texts_b.push_back("canon power shot digital camera " +
                              std::to_string(i % 4));
    }
    calib.batch_size = 4;
    return calib;
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(kCacheDir); }
};

TEST_F(QuantMatcherTest, QuantizeMatcherEndToEnd) {
  auto matcher = MakeMatcher();
  const std::vector<std::string> as = {"apple iphone 12 mini",
                                       "sony wh-1000xm4 headphones",
                                       "generic usb c cable"};
  const std::vector<std::string> bs = {"iphone 12 mini by apple",
                                       "bose quietcomfort 45",
                                       "usb-c charging cable 1m"};
  std::vector<double> fp32 = matcher->MatchProbabilities(as, bs);
  EXPECT_FALSE(IsQuantized(matcher.get()));

  auto report = QuantizeMatcher(matcher.get(), Calib());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(IsQuantized(matcher.get()));

  nn::QuantTargets targets;
  matcher->classifier()->CollectQuantTargets("", &targets);
  EXPECT_EQ(report.value().num_linears,
            static_cast<int64_t>(targets.linears.size()));
  EXPECT_EQ(report.value().num_ffns,
            static_cast<int64_t>(targets.ffns.size()));
  EXPECT_GT(report.value().num_ffns, 0);
  EXPECT_EQ(report.value().calibration_pairs, 12);

  // Grad-free prediction now runs int8 (QuantMode defaults on) and stays
  // close to the fp32 answer.
  std::vector<double> int8 = matcher->MatchProbabilities(as, bs);
  ASSERT_EQ(int8.size(), fp32.size());
  for (size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_GE(int8[i], 0.0);
    EXPECT_LE(int8[i], 1.0);
    EXPECT_NEAR(int8[i], fp32[i], 0.15) << "pair " << i;
  }

  // With QuantMode off the attached backends are bypassed entirely.
  {
    nn::QuantModeGuard fp32_only(false);
    std::vector<double> again = matcher->MatchProbabilities(as, bs);
    for (size_t i = 0; i < fp32.size(); ++i) {
      EXPECT_EQ(again[i], fp32[i]) << "pair " << i;
    }
  }

  // Detaching restores pure fp32 behavior bit for bit.
  ClearQuantization(matcher.get());
  EXPECT_FALSE(IsQuantized(matcher.get()));
  std::vector<double> cleared = matcher->MatchProbabilities(as, bs);
  for (size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_EQ(cleared[i], fp32[i]) << "pair " << i;
  }
}

// ---- EMXM1 model container --------------------------------------------------

TEST_F(QuantMatcherTest, ModelFileFp32RoundTripIsBitIdentical) {
  const std::string path = "/tmp/emx_quant_test_fp32.emxm";
  const std::vector<std::string> as = {"lenovo thinkpad x1 carbon",
                                       "kitchenaid stand mixer"};
  const std::vector<std::string> bs = {"thinkpad x1 carbon gen 9",
                                       "kitchen aid artisan mixer"};
  auto original = MakeMatcher();
  std::vector<double> expected = original->MatchProbabilities(as, bs);
  ASSERT_TRUE(SaveModelFile(original.get(), path).ok());

  auto mapped = MakeMatcher();
  auto info = LoadModelFileMapped(mapped.get(), path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info.value().has_int8);
  EXPECT_GT(info.value().fp32_params, 0);
  EXPECT_FALSE(IsQuantized(mapped.get()));

  std::vector<double> got = mapped->MatchProbabilities(as, bs);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "pair " << i;
  }
  std::filesystem::remove(path);
}

TEST_F(QuantMatcherTest, ModelFileInt8RoundTripIsBitIdentical) {
  const std::string path = "/tmp/emx_quant_test_int8.emxm";
  const std::vector<std::string> as = {"lenovo thinkpad x1 carbon",
                                       "kitchenaid stand mixer"};
  const std::vector<std::string> bs = {"thinkpad x1 carbon gen 9",
                                       "kitchen aid artisan mixer"};
  auto original = MakeMatcher();
  auto report = QuantizeMatcher(original.get(), Calib());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::vector<double> expected = original->MatchProbabilities(as, bs);
  ASSERT_TRUE(SaveModelFile(original.get(), path).ok());

  // One container, no calibration, int8 kernels reading straight from the
  // mapping: logits must match the freshly quantized model bit for bit.
  auto mapped = MakeMatcher();
  auto info = LoadModelFileMapped(mapped.get(), path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info.value().has_int8);
  EXPECT_GT(info.value().int8_linears, 0);
  EXPECT_TRUE(IsQuantized(mapped.get()));

  std::vector<double> got = mapped->MatchProbabilities(as, bs);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "pair " << i;
  }
  std::filesystem::remove(path);
}

TEST_F(QuantMatcherTest, SavedCheckpointServesMapped) {
  const std::string saved = "/tmp/emx_quant_test_saved.emxm";
  const std::string model_file = "/tmp/emx_quant_test_model_file.emxm";
  const std::vector<std::string> as = {"lenovo thinkpad x1 carbon",
                                       "kitchenaid stand mixer"};
  const std::vector<std::string> bs = {"thinkpad x1 carbon gen 9",
                                       "kitchen aid artisan mixer"};
  auto original = MakeMatcher();
  ASSERT_TRUE(original->Save(saved).ok());
  // One writer: an unquantized matcher's model file is its checkpoint.
  ASSERT_TRUE(SaveModelFile(original.get(), model_file).ok());
  EXPECT_EQ(emx::testing::ReadFileBytes(saved),
            emx::testing::ReadFileBytes(model_file));

  auto mapped = MakeMatcher();
  auto info = LoadModelFileMapped(mapped.get(), saved);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info.value().has_int8);
  for (size_t i = 0; i < as.size(); ++i) {
    EXPECT_EQ(mapped->MatchProbability(as[i], bs[i]),
              original->MatchProbability(as[i], bs[i]))
        << "pair " << i;
  }
  std::filesystem::remove(saved);
  std::filesystem::remove(model_file);
}

TEST_F(QuantMatcherTest, QuantizedModelFileLoadsOwnedAndTrains) {
  const std::string path = "/tmp/emx_quant_test_owned.emxm";
  const std::vector<std::string> as = {"lenovo thinkpad x1 carbon",
                                       "kitchenaid stand mixer"};
  const std::vector<std::string> bs = {"thinkpad x1 carbon gen 9",
                                       "kitchen aid artisan mixer"};
  auto original = MakeMatcher();
  ASSERT_TRUE(QuantizeMatcher(original.get(), Calib()).ok());
  ASSERT_TRUE(SaveModelFile(original.get(), path).ok());

  // Mapped first, so the owned load has read-only views to replace.
  auto owned = MakeMatcher();
  ASSERT_TRUE(LoadModelFileMapped(owned.get(), path).ok());
  ClearQuantization(owned.get());
  Status load = owned->Load(path);
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_FALSE(IsQuantized(owned.get())) << "Load copies fp32 only";
  {
    nn::QuantModeGuard fp32_only(false);
    for (size_t i = 0; i < as.size(); ++i) {
      EXPECT_EQ(owned->MatchProbability(as[i], bs[i]),
                original->MatchProbability(as[i], bs[i]))
          << "pair " << i;
    }
  }

  // The parameters are heap tensors again: one epoch of training writes
  // them.
  data::GeneratorOptions gopts;
  gopts.scale = 0.01;
  auto ds = data::GenerateDataset(data::DatasetId::kWalmartAmazon, gopts);
  core::FineTuneOptions ft;
  ft.epochs = 1;
  ft.max_seq_len = kSeqLen;
  const std::vector<nn::NamedParam> params = owned->classifier()->Parameters();
  const std::vector<float> before = params.back().var.value().ToVector();
  EXPECT_EQ(owned->FineTune(ds, ft).size(), 1u);
  EXPECT_NE(params.back().var.value().ToVector(), before);
  std::filesystem::remove(path);
}

TEST_F(QuantMatcherTest, ModelFileEveryTruncationFailsCleanly) {
  const std::string path = "/tmp/emx_quant_test_trunc.emxm";
  auto original = MakeMatcher();
  auto report = QuantizeMatcher(original.get(), Calib());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(SaveModelFile(original.get(), path).ok());

  auto fresh = MakeMatcher();
  const size_t bytes = emx::testing::ReadFileBytes(path).size();
  emx::testing::ExpectAllTruncationsFail(
      path,
      [&](const std::string& p) {
        return LoadModelFileMapped(fresh.get(), p).status();
      },
      /*stride=*/std::max<size_t>(1, bytes / 97),
      /*boundaries=*/{8, 12, 16, 24, 32, 40, 48, 56, 63, 64, 65});
  EXPECT_FALSE(IsQuantized(fresh.get())) << "failed load mutated the matcher";
  std::filesystem::remove(path);
}

TEST_F(QuantMatcherTest, ModelFileRejectsForeignArchitecture) {
  const std::string path = "/tmp/emx_quant_test_arch.emxm";
  auto original = MakeMatcher();
  ASSERT_TRUE(SaveModelFile(original.get(), path).ok());

  // Flip one byte of the manifest's architecture string in place.
  size_t arch_off = 0;
  {
    auto r = io::EmxmReader::Open(path);
    ASSERT_TRUE(r.ok());
    const io::Section* m = r.value()->Find("emxm:manifest");
    ASSERT_NE(m, nullptr);
    ASSERT_GT(m->bytes, 0u);
    arch_off = static_cast<size_t>(m->data - r.value()->mapping().data());
  }
  auto fresh = MakeMatcher();
  emx::testing::WithPatchedField<uint8_t>(
      path, arch_off, static_cast<uint8_t>('x'),
      [&](const std::string& patched) {
        auto info = LoadModelFileMapped(fresh.get(), patched);
        EXPECT_FALSE(info.ok());
        EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
      });
  std::filesystem::remove(path);
}

TEST_F(QuantMatcherTest, ModelFileMissingSectionLeavesMatcherUntouched) {
  const std::string path = "/tmp/emx_quant_test_missing.emxm";
  auto original = MakeMatcher();
  auto report = QuantizeMatcher(original.get(), Calib());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(SaveModelFile(original.get(), path).ok());

  // Rename the first fp32 parameter section by flipping its leading 'p'
  // in the string table: every int8 section still validates, but the
  // fp32 attach must fail NotFound *before* any backend is installed.
  std::vector<uint8_t> bytes = emx::testing::ReadFileBytes(path);
  uint64_t strtab_off = 0;
  std::memcpy(&strtab_off, bytes.data() + 32, sizeof(strtab_off));
  ASSERT_EQ(bytes[strtab_off], 'p') << "expected a p:<param> name first";
  auto fresh = MakeMatcher();
  emx::testing::WithPatchedField<uint8_t>(
      path, static_cast<size_t>(strtab_off), static_cast<uint8_t>('x'),
      [&](const std::string& patched) {
        auto info = LoadModelFileMapped(fresh.get(), patched);
        EXPECT_FALSE(info.ok());
        EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
        EXPECT_FALSE(IsQuantized(fresh.get()));
      });
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace quant
}  // namespace emx
