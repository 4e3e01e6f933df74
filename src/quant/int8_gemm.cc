#include "quant/int8_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"
#include "util/thread_pool.h"

#if defined(__AVX512F__) && defined(__AVX512VNNI__)
#include <immintrin.h>
#define EMX_INT8_VNNI 1
#endif

namespace emx {
namespace quant {

namespace {

int64_t RoundUp(int64_t v, int64_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

/// Flat index of logical qw[k][j] in the interleaved packed layout.
int64_t PackedIndex(int64_t k_padded, int64_t k, int64_t j) {
  const int64_t nb = j / kColBlock;
  const int64_t jc = j % kColBlock;
  const int64_t kg = k / kKGroup;
  const int64_t kk = k % kKGroup;
  const int64_t kg_count = k_padded / kKGroup;
  return ((nb * kg_count + kg) * kColBlock + jc) * kKGroup + kk;
}

/// Fills col_sums and fused_scale from the packed data (shared by the
/// fresh-quantize and checkpoint-load constructors, so both produce the
/// same derived state bit for bit).
void FinalizeDerived(PackedWeights* w) {
  const int8_t* packed = w->packed_data();
  w->col_sums.assign(static_cast<size_t>(w->out), 0);
  for (int64_t j = 0; j < w->out; ++j) {
    int32_t s = 0;
    for (int64_t k = 0; k < w->in; ++k) {
      s += packed[PackedIndex(w->k_padded, k, j)];
    }
    w->col_sums[static_cast<size_t>(j)] = s;
  }
  w->fused_scale.resize(static_cast<size_t>(w->out));
  for (int64_t j = 0; j < w->out; ++j) {
    w->fused_scale[static_cast<size_t>(j)] =
        w->act.scale * w->w_scales[static_cast<size_t>(j)];
  }
}

}  // namespace

PackedWeights PackWeights(const Tensor& weight, const Tensor& bias,
                          const QuantParams& act) {
  EMX_CHECK_EQ(weight.ndim(), 2);
  PackedWeights w;
  w.in = weight.dim(0);
  w.out = weight.dim(1);
  w.k_padded = RoundUp(w.in, kKGroup);
  w.n_padded = RoundUp(w.out, kColBlock);
  w.act = act;
  w.bias = bias.ToVector();
  EMX_CHECK_EQ(static_cast<int64_t>(w.bias.size()), w.out);

  // Symmetric per-output-channel scales over [-127, 127]. Avoiding -128
  // keeps the grid symmetric and costs 0.4% of range.
  w.w_scales.resize(static_cast<size_t>(w.out));
  const float* src = weight.data();
  for (int64_t j = 0; j < w.out; ++j) {
    float max_abs = 0;
    for (int64_t k = 0; k < w.in; ++k) {
      max_abs = std::max(max_abs, std::fabs(src[k * w.out + j]));
    }
    w.w_scales[static_cast<size_t>(j)] =
        max_abs > 0 ? max_abs / 127.0f : 1.0f;
  }

  w.data.assign(static_cast<size_t>(w.n_padded * w.k_padded), 0);
  for (int64_t j = 0; j < w.out; ++j) {
    const float inv = 1.0f / w.w_scales[static_cast<size_t>(j)];
    for (int64_t k = 0; k < w.in; ++k) {
      const float q = std::nearbyint(src[k * w.out + j] * inv);
      w.data[static_cast<size_t>(PackedIndex(w.k_padded, k, j))] =
          static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
    }
  }
  FinalizeDerived(&w);
  return w;
}

Result<PackedWeights> ViewPackedWeights(int64_t in, int64_t out,
                                        const int8_t* packed,
                                        uint64_t packed_bytes,
                                        std::shared_ptr<const void> owner,
                                        std::vector<float> w_scales,
                                        std::vector<float> bias,
                                        std::vector<int32_t> col_sums,
                                        const QuantParams& act) {
  if (in <= 0 || out <= 0) {
    return Status::InvalidArgument("packed weights need in > 0 and out > 0");
  }
  PackedWeights w;
  w.in = in;
  w.out = out;
  w.k_padded = RoundUp(in, kKGroup);
  w.n_padded = RoundUp(out, kColBlock);
  if (packed_bytes !=
      static_cast<uint64_t>(w.k_padded) * static_cast<uint64_t>(w.n_padded)) {
    return Status::InvalidArgument(
        "packed image is " + std::to_string(packed_bytes) + " bytes; " +
        std::to_string(in) + "x" + std::to_string(out) + " packs to " +
        std::to_string(w.k_padded * w.n_padded));
  }
  if (static_cast<int64_t>(w_scales.size()) != out ||
      static_cast<int64_t>(bias.size()) != out ||
      static_cast<int64_t>(col_sums.size()) != out) {
    return Status::InvalidArgument(
        "per-channel arrays do not match out=" + std::to_string(out));
  }
  w.view = packed;
  w.owner = std::move(owner);
  w.act = act;
  w.w_scales = std::move(w_scales);
  w.bias = std::move(bias);
  // col_sums come from the container rather than FinalizeDerived: summing
  // them here would touch every weight byte and reintroduce the
  // O(model-size) cold start the mapping exists to avoid.
  w.col_sums = std::move(col_sums);
  w.fused_scale.resize(static_cast<size_t>(w.out));
  for (int64_t j = 0; j < w.out; ++j) {
    w.fused_scale[static_cast<size_t>(j)] =
        w.act.scale * w.w_scales[static_cast<size_t>(j)];
  }
  return w;
}

void QuantizeActivations(const float* x, int64_t m, int64_t k,
                         int64_t k_padded, const QuantParams& p, uint8_t* qa) {
  const float inv = 1.0f / p.scale;
  const float zp = static_cast<float>(p.zero_point);
  for (int64_t i = 0; i < m; ++i) {
    const float* row = x + i * k;
    uint8_t* q = qa + i * k_padded;
    for (int64_t c = 0; c < k; ++c) {
      const float v = std::nearbyint(row[c] * inv) + zp;
      q[c] = static_cast<uint8_t>(std::clamp(v, 0.0f, 255.0f));
    }
    for (int64_t c = k; c < k_padded; ++c) {
      q[c] = static_cast<uint8_t>(p.zero_point);
    }
  }
}

void Int8GemmRowRangeScalar(const uint8_t* qa, int64_t i0, int64_t i1,
                            const PackedWeights& w, int32_t* acc) {
  const int64_t kg_count = w.k_padded / kKGroup;
  const int64_t nb_count = w.n_padded / kColBlock;
  for (int64_t i = i0; i < i1; ++i) {
    const uint8_t* a_row = qa + i * w.k_padded;
    int32_t* acc_row = acc + i * w.n_padded;
    for (int64_t nb = 0; nb < nb_count; ++nb) {
      const int8_t* tile =
          w.packed_data() + nb * kg_count * kColBlock * kKGroup;
      int32_t sums[kColBlock] = {0};
      for (int64_t kg = 0; kg < kg_count; ++kg) {
        const int8_t* wrow = tile + kg * kColBlock * kKGroup;
        const uint8_t* a4 = a_row + kg * kKGroup;
        for (int64_t c = 0; c < kColBlock; ++c) {
          int32_t dot = 0;
          for (int64_t kk = 0; kk < kKGroup; ++kk) {
            dot += static_cast<int32_t>(a4[kk]) *
                   static_cast<int32_t>(wrow[c * kKGroup + kk]);
          }
          sums[c] += dot;
        }
      }
      for (int64_t c = 0; c < kColBlock; ++c) {
        acc_row[nb * kColBlock + c] = sums[c];
      }
    }
  }
}

#ifdef EMX_INT8_VNNI

namespace {

/// 4 rows x 16 output channels per step: each weight tile row is loaded
/// once and contracted against 4 activation broadcasts, the int8 analogue
/// of the fp32 micro-kernel's kMR = 4 unroll. Integer accumulation is
/// exact, so any loop order gives the scalar kernel's accumulators.
void Int8GemmRowRangeVnni(const uint8_t* qa, int64_t i0, int64_t i1,
                          const PackedWeights& w, int32_t* acc) {
  const int64_t kg_count = w.k_padded / kKGroup;
  const int64_t nb_count = w.n_padded / kColBlock;
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const uint8_t* a0 = qa + (i + 0) * w.k_padded;
    const uint8_t* a1 = qa + (i + 1) * w.k_padded;
    const uint8_t* a2 = qa + (i + 2) * w.k_padded;
    const uint8_t* a3 = qa + (i + 3) * w.k_padded;
    for (int64_t nb = 0; nb < nb_count; ++nb) {
      const int8_t* tile =
          w.packed_data() + nb * kg_count * kColBlock * kKGroup;
      __m512i s0 = _mm512_setzero_si512();
      __m512i s1 = _mm512_setzero_si512();
      __m512i s2 = _mm512_setzero_si512();
      __m512i s3 = _mm512_setzero_si512();
      for (int64_t kg = 0; kg < kg_count; ++kg) {
        const __m512i wv = _mm512_loadu_si512(
            reinterpret_cast<const void*>(tile + kg * kColBlock * kKGroup));
        uint32_t b;
        std::memcpy(&b, a0 + kg * kKGroup, sizeof(b));
        s0 = _mm512_dpbusd_epi32(s0, _mm512_set1_epi32(static_cast<int>(b)),
                                 wv);
        std::memcpy(&b, a1 + kg * kKGroup, sizeof(b));
        s1 = _mm512_dpbusd_epi32(s1, _mm512_set1_epi32(static_cast<int>(b)),
                                 wv);
        std::memcpy(&b, a2 + kg * kKGroup, sizeof(b));
        s2 = _mm512_dpbusd_epi32(s2, _mm512_set1_epi32(static_cast<int>(b)),
                                 wv);
        std::memcpy(&b, a3 + kg * kKGroup, sizeof(b));
        s3 = _mm512_dpbusd_epi32(s3, _mm512_set1_epi32(static_cast<int>(b)),
                                 wv);
      }
      const int64_t col = nb * kColBlock;
      _mm512_storeu_si512(
          reinterpret_cast<void*>(acc + (i + 0) * w.n_padded + col), s0);
      _mm512_storeu_si512(
          reinterpret_cast<void*>(acc + (i + 1) * w.n_padded + col), s1);
      _mm512_storeu_si512(
          reinterpret_cast<void*>(acc + (i + 2) * w.n_padded + col), s2);
      _mm512_storeu_si512(
          reinterpret_cast<void*>(acc + (i + 3) * w.n_padded + col), s3);
    }
  }
  if (i < i1) Int8GemmRowRangeScalar(qa, i, i1, w, acc);
}

}  // namespace

bool HasVnniKernel() { return true; }

#else

bool HasVnniKernel() { return false; }

#endif  // EMX_INT8_VNNI

void Int8GemmAccumulate(const uint8_t* qa, int64_t m, const PackedWeights& w,
                        int32_t* acc) {
  // One work item = one 64-row block, same shape as the fp32 GEMM's
  // partitioning; the grain targets ~256K int ops per chunk.
  constexpr int64_t kRowBlock = 64;
  const int64_t blocks = (m + kRowBlock - 1) / kRowBlock;
  const int64_t item_ops = std::max<int64_t>(
      1, 2 * std::min(kRowBlock, m) * w.k_padded * w.n_padded);
  const int64_t grain = std::max<int64_t>(1, (1 << 18) / item_ops);
  ParallelFor(blocks, grain, [&](int64_t begin, int64_t end) {
    for (int64_t blk = begin; blk < end; ++blk) {
      const int64_t i0 = blk * kRowBlock;
      const int64_t i1 = std::min(i0 + kRowBlock, m);
#ifdef EMX_INT8_VNNI
      Int8GemmRowRangeVnni(qa, i0, i1, w, acc);
#else
      Int8GemmRowRangeScalar(qa, i0, i1, w, acc);
#endif
    }
  });
}

void DequantEpilogue(const int32_t* acc, int64_t m, const PackedWeights& w,
                     float* y) {
  const int32_t zp = w.act.zero_point;
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + i * w.n_padded;
    float* y_row = y + i * w.out;
    for (int64_t j = 0; j < w.out; ++j) {
      const int32_t centered =
          acc_row[j] - zp * w.col_sums[static_cast<size_t>(j)];
      y_row[j] = w.fused_scale[static_cast<size_t>(j)] *
                     static_cast<float>(centered) +
                 w.bias[static_cast<size_t>(j)];
    }
  }
}

void Int8LinearForward(const float* x, int64_t m, const PackedWeights& w,
                       float* y) {
  // Thread-local scratch: these buffers reach ~1MB at serving batch sizes,
  // which a per-call std::vector would mmap, kernel-zero and unmap every
  // forward. Reuse keeps the hot path allocation-free (serving workers are
  // separate threads, so nothing is shared).
  thread_local std::vector<uint8_t> qa;
  thread_local std::vector<int32_t> acc;
  qa.resize(static_cast<size_t>(m * w.k_padded));
  acc.resize(static_cast<size_t>(m * w.n_padded));
  QuantizeActivations(x, m, w.in, w.k_padded, w.act, qa.data());
  Int8GemmAccumulate(qa.data(), m, w, acc.data());
  DequantEpilogue(acc.data(), m, w, y);
}

}  // namespace quant
}  // namespace emx
