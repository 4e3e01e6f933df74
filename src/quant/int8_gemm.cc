#include "quant/int8_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernel_math.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__FMA__)
// GCC 12's AVX-512 intrinsics seed their unmasked forms from a
// self-initialized "undefined" vector, which -Wmaybe-uninitialized reports
// at every inlined use; the warning is about the header, not this file.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define EMX_INT8_AVX512 1
#if defined(__AVX512VNNI__)
#define EMX_INT8_VNNI 1
#endif
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

/// Fills the epilogue's per-column constants from act, w_scales and
/// col_sums (shared by the fresh-quantize and mapped-load constructors, so
/// both produce the same derived state bit for bit).
void FinalizeEpilogue(PackedWeights* w) {
  w->fused_scale.resize(static_cast<size_t>(w->out));
  w->zp_col_sums.resize(static_cast<size_t>(w->out));
  for (size_t j = 0; j < static_cast<size_t>(w->out); ++j) {
    w->fused_scale[j] = w->act.scale * w->w_scales[j];
    w->zp_col_sums[j] = w->act.zero_point * w->col_sums[j];
  }
}

/// Fills col_sums from the packed data, then the epilogue constants.
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
  FinalizeEpilogue(w);
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
  // The epilogue folds zero_point * col_sums[j] in int32: a grid off the
  // u8 range or a column sum no [-127, 127] column can reach would
  // overflow it, so such a container is corrupt.
  if (act.zero_point < 0 || act.zero_point > 255) {
    return Status::InvalidArgument("activation zero point " +
                                   std::to_string(act.zero_point) +
                                   " is outside [0, 255]");
  }
  const int64_t max_sum = 127 * in;
  for (int32_t sum : col_sums) {
    if (sum < -max_sum || sum > max_sum) {
      return Status::InvalidArgument("column sum " + std::to_string(sum) +
                                     " exceeds 127 * in");
    }
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
  FinalizeEpilogue(&w);
  return w;
}

namespace {

/// DequantEpilogue's value for column j of one accumulator row.
float DequantValue(const int32_t* acc_row, const PackedWeights& w, size_t j) {
  return ops::MulAdd(w.fused_scale[j],
                     static_cast<float>(acc_row[j] - w.zp_col_sums[j]),
                     w.bias[j]);
}

}  // namespace

void QuantizeActivationsScalar(const float* x, int64_t m, int64_t k,
                               int64_t k_padded, const QuantParams& p,
                               uint8_t* qa) {
  const float inv = 1.0f / p.scale;
  const float zp = static_cast<float>(p.zero_point);
  for (int64_t i = 0; i < m; ++i) {
    const float* row = x + i * k;
    uint8_t* q = qa + i * k_padded;
    for (int64_t c = 0; c < k; ++c) q[c] = QuantizeCode(row[c] * inv, zp);
    std::fill(q + k, q + k_padded, static_cast<uint8_t>(p.zero_point));
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

void DequantEpilogue(const int32_t* acc, int64_t m, const PackedWeights& w,
                     float* y) {
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + i * w.n_padded;
    float* y_row = y + i * w.out;
    for (size_t j = 0; j < static_cast<size_t>(w.out); ++j) {
      y_row[j] = DequantValue(acc_row, w, j);
    }
  }
}

void RequantizeLutScalar(const int32_t* acc, int64_t m, const PackedWeights& w,
                         const QuantParams& mid,
                         const std::array<uint8_t, 256>& lut, int64_t ld_q,
                         uint8_t pad, uint8_t* q) {
  const float inv_mid = 1.0f / mid.scale;
  const float mid_zp = static_cast<float>(mid.zero_point);
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + i * w.n_padded;
    uint8_t* q_row = q + i * ld_q;
    for (size_t j = 0; j < static_cast<size_t>(w.out); ++j) {
      q_row[j] = lut[QuantizeCode(DequantValue(acc_row, w, j) * inv_mid,
                                  mid_zp)];
    }
    std::fill(q_row + w.out, q_row + ld_q, pad);
  }
}

#ifdef EMX_INT8_AVX512

namespace {

/// Lanes below `n` of a 16-lane mask (all 16 when n >= 16).
__mmask16 TailMask16(int64_t n) {
  return n >= 16 ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << n) - 1);
}

/// QuantizeCode on 16 lanes, as int32. roundscale with imm 0 rounds half
/// to even like std::nearbyint; vmaxps returns its second operand when
/// either is NaN, so NaN lanes clamp to 0.
__m512i QuantizeCodes(__m512 scaled, __m512 zero_point) {
  __m512 code = _mm512_add_ps(
      _mm512_roundscale_ps(scaled, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC),
      zero_point);
  code = _mm512_min_ps(_mm512_max_ps(code, _mm512_setzero_ps()),
                       _mm512_set1_ps(255.0f));
  return _mm512_cvttps_epi32(code);
}

/// DequantValue for the 16 columns [j, j + 16) of one accumulator row (one
/// fused multiply-add, as ops::MulAdd in an FMA build); lanes outside
/// `mask` are don't-care.
__m512 DequantLanes(const int32_t* acc_row, const PackedWeights& w, int64_t j,
                    __mmask16 mask) {
  const __m512i acc = _mm512_maskz_loadu_epi32(mask, acc_row + j);
  const __m512i zp_sums =
      _mm512_maskz_loadu_epi32(mask, w.zp_col_sums.data() + j);
  const __m512 scale = _mm512_maskz_loadu_ps(mask, w.fused_scale.data() + j);
  const __m512 bias = _mm512_maskz_loadu_ps(mask, w.bias.data() + j);
  return _mm512_fmadd_ps(
      scale, _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, zp_sums)), bias);
}

}  // namespace

void QuantizeActivations(const float* x, int64_t m, int64_t k,
                         int64_t k_padded, const QuantParams& p, uint8_t* qa) {
  const __m512 inv = _mm512_set1_ps(1.0f / p.scale);
  const __m512 zp = _mm512_set1_ps(static_cast<float>(p.zero_point));
  for (int64_t i = 0; i < m; ++i) {
    const float* row = x + i * k;
    uint8_t* q = qa + i * k_padded;
    for (int64_t c = 0; c < k; c += 16) {
      const __mmask16 mask = TailMask16(k - c);
      const __m512 scaled =
          _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, row + c), inv);
      _mm512_mask_cvtepi32_storeu_epi8(q + c, mask, QuantizeCodes(scaled, zp));
    }
    std::fill(q + k, q + k_padded, static_cast<uint8_t>(p.zero_point));
  }
}

void RequantizeLut(const int32_t* acc, int64_t m, const PackedWeights& w,
                   const QuantParams& mid,
                   const std::array<uint8_t, 256>& lut, int64_t ld_q,
                   uint8_t pad, uint8_t* q) {
  const __m512 inv_mid = _mm512_set1_ps(1.0f / mid.scale);
  const __m512 mid_zp = _mm512_set1_ps(static_cast<float>(mid.zero_point));
#ifdef __AVX512VBMI__
  // The table as four 64-byte registers: vpermi2b indexes 128 bytes by the
  // code's low 7 bits, so {t0, t1} serve codes < 128 and {t2, t3} the rest.
  const __m512i t0 = _mm512_loadu_si512(lut.data());
  const __m512i t1 = _mm512_loadu_si512(lut.data() + 64);
  const __m512i t2 = _mm512_loadu_si512(lut.data() + 128);
  const __m512i t3 = _mm512_loadu_si512(lut.data() + 192);
#endif
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* acc_row = acc + i * w.n_padded;
    uint8_t* q_row = q + i * ld_q;
    // 64 columns per step: four 16-lane code vectors narrowed into one
    // 64-byte vector of codes, then looked up at once.
    for (int64_t j = 0; j < w.out; j += 64) {
      __m128i part[4];
      for (int64_t t = 0; t < 4; ++t) {
        const int64_t jt = j + 16 * t;
        if (jt >= w.out) {
          part[t] = _mm_setzero_si128();
          continue;
        }
        const __m512 v =
            DequantLanes(acc_row, w, jt, TailMask16(w.out - jt));
        part[t] = _mm512_cvtepi32_epi8(
            QuantizeCodes(_mm512_mul_ps(v, inv_mid), mid_zp));
      }
      __m512i codes = _mm512_castsi128_si512(part[0]);
      codes = _mm512_inserti32x4(codes, part[1], 1);
      codes = _mm512_inserti32x4(codes, part[2], 2);
      codes = _mm512_inserti32x4(codes, part[3], 3);
      const int64_t n = std::min<int64_t>(64, w.out - j);
#ifdef __AVX512VBMI__
      const __mmask64 store =
          n == 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
      const __m512i lo = _mm512_permutex2var_epi8(t0, codes, t1);
      const __m512i hi = _mm512_permutex2var_epi8(t2, codes, t3);
      _mm512_mask_storeu_epi8(
          q_row + j, store,
          _mm512_mask_blend_epi8(_mm512_movepi8_mask(codes), lo, hi));
#else
      alignas(64) uint8_t code_bytes[64];
      _mm512_store_si512(code_bytes, codes);
      for (int64_t c = 0; c < n; ++c) q_row[j + c] = lut[code_bytes[c]];
#endif
    }
    std::fill(q_row + w.out, q_row + ld_q, pad);
  }
}

#else

void QuantizeActivations(const float* x, int64_t m, int64_t k,
                         int64_t k_padded, const QuantParams& p, uint8_t* qa) {
  QuantizeActivationsScalar(x, m, k, k_padded, p, qa);
}

void RequantizeLut(const int32_t* acc, int64_t m, const PackedWeights& w,
                   const QuantParams& mid,
                   const std::array<uint8_t, 256>& lut, int64_t ld_q,
                   uint8_t pad, uint8_t* q) {
  RequantizeLutScalar(acc, m, w, mid, lut, ld_q, pad, q);
}

#endif  // EMX_INT8_AVX512

#ifdef EMX_INT8_VNNI

namespace {

/// kRows rows x kTiles column tiles of 16 starting at row i, tile nb:
/// kRows * kTiles independent vpdpbusd chains. Each k-group loads one
/// 64-byte weight row per tile and contracts it against kRows activation
/// broadcasts. Integer accumulation is exact, so any shape gives the
/// scalar kernel's accumulators.
template <int kRows, int kTiles>
void VnniBlock(const uint8_t* qa, int64_t i, int64_t nb,
               const PackedWeights& w, int32_t* acc) {
  const int64_t kg_count = w.k_padded / kKGroup;
  const int64_t tile_bytes = kg_count * kColBlock * kKGroup;
  const int8_t* tile = w.packed_data() + nb * tile_bytes;
  const uint8_t* a = qa + i * w.k_padded;
  __m512i s[kRows][kTiles];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < kTiles; ++t) s[r][t] = _mm512_setzero_si512();
  }
  for (int64_t kg = 0; kg < kg_count; ++kg) {
    __m512i wv[kTiles];
#pragma GCC unroll 4
    for (int t = 0; t < kTiles; ++t) {
      wv[t] = _mm512_loadu_si512(tile + t * tile_bytes +
                                 kg * kColBlock * kKGroup);
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      uint32_t b;
      std::memcpy(&b, a + r * w.k_padded + kg * kKGroup, sizeof(b));
      const __m512i av = _mm512_set1_epi32(static_cast<int>(b));
#pragma GCC unroll 4
      for (int t = 0; t < kTiles; ++t) {
        s[r][t] = _mm512_dpbusd_epi32(s[r][t], av, wv[t]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < kTiles; ++t) {
      _mm512_storeu_si512(acc + (i + r) * w.n_padded + (nb + t) * kColBlock,
                          s[r][t]);
    }
  }
}

template <int kRows>
void VnniRows(const uint8_t* qa, int64_t i, const PackedWeights& w,
              int32_t* acc) {
  const int64_t nb_count = w.n_padded / kColBlock;
  int64_t nb = 0;
  for (; nb + 4 <= nb_count; nb += 4) VnniBlock<kRows, 4>(qa, i, nb, w, acc);
  for (; nb < nb_count; ++nb) VnniBlock<kRows, 1>(qa, i, nb, w, acc);
}

}  // namespace

void Int8GemmRowRange(const uint8_t* qa, int64_t i0, int64_t i1,
                      const PackedWeights& w, int32_t* acc) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) VnniRows<4>(qa, i, w, acc);
  for (; i < i1; ++i) VnniRows<1>(qa, i, w, acc);
}

bool HasVnniKernel() { return true; }

#else

void Int8GemmRowRange(const uint8_t* qa, int64_t i0, int64_t i1,
                      const PackedWeights& w, int32_t* acc) {
  Int8GemmRowRangeScalar(qa, i0, i1, w, acc);
}

bool HasVnniKernel() { return false; }

#endif  // EMX_INT8_VNNI

namespace {

/// Rows per block of the fused pipelines (the fp32 GEMM's row block);
/// 16- and 32-row blocks measured no faster at m = 64..1024.
constexpr int64_t kRowBlock = 64;

/// Runs fn(i0, i1) over [0, m) in blocks of kRowBlock rows, spread over the
/// global pool with the fp32 GEMM's grain discipline (~256K int ops per
/// chunk); `ops_per_row` is the int ops one row costs.
template <typename Fn>
void ForEachRowBlock(int64_t m, int64_t ops_per_row, const Fn& fn) {
  const int64_t blocks = (m + kRowBlock - 1) / kRowBlock;
  const int64_t item_ops =
      std::max<int64_t>(1, std::min(kRowBlock, m) * ops_per_row);
  const int64_t grain = std::max<int64_t>(1, (1 << 18) / item_ops);
  ParallelFor(blocks, grain, [&](int64_t begin, int64_t end) {
    for (int64_t blk = begin; blk < end; ++blk) {
      const int64_t i0 = blk * kRowBlock;
      fn(i0, std::min(i0 + kRowBlock, m));
    }
  });
}

/// One row block's codes and accumulators, per thread. Sized by the layer
/// widths, never by the batch: every block of every call reuses the same
/// ~100 KB (at serving width), which stays in cache from one stage to the
/// next, and no forward allocates or faults in batch-sized buffers.
struct BlockScratch {
  std::vector<uint8_t> qa, qh;
  std::vector<int32_t> acc, acc2;
};

BlockScratch& ThreadScratch() {
  thread_local BlockScratch scratch;
  return scratch;
}

/// `v` with at least `n` elements (grows only; contents are scratch).
template <typename T>
T* Ensure(std::vector<T>* v, int64_t n) {
  if (static_cast<int64_t>(v->size()) < n) v->resize(static_cast<size_t>(n));
  return v->data();
}

}  // namespace

void Int8LinearForward(const float* x, int64_t m, const PackedWeights& w,
                       float* y) {
  ForEachRowBlock(m, 2 * w.k_padded * w.n_padded, [&](int64_t i0, int64_t i1) {
    const int64_t rows = i1 - i0;
    BlockScratch& s = ThreadScratch();
    uint8_t* qa = Ensure(&s.qa, kRowBlock * w.k_padded);
    int32_t* acc = Ensure(&s.acc, kRowBlock * w.n_padded);
    QuantizeActivations(x + i0 * w.in, rows, w.in, w.k_padded, w.act, qa);
    Int8GemmRowRange(qa, 0, rows, w, acc);
    DequantEpilogue(acc, rows, w, y + i0 * w.out);
  });
}

void Int8FfnForward(const float* x, int64_t m, const PackedWeights& fc1,
                    const QuantParams& mid,
                    const std::array<uint8_t, 256>& lut,
                    const PackedWeights& fc2, float* y) {
  EMX_CHECK_EQ(fc1.out, fc2.in) << "FFN fc1/fc2 dims do not chain";
  // fc2's input rows are padded with its zero-point: padded k meets zero
  // weight rows, so any code works.
  const uint8_t pad = static_cast<uint8_t>(fc2.act.zero_point);
  const int64_t ops_per_row =
      2 * (fc1.k_padded * fc1.n_padded + fc2.k_padded * fc2.n_padded);
  ForEachRowBlock(m, ops_per_row, [&](int64_t i0, int64_t i1) {
    const int64_t rows = i1 - i0;
    BlockScratch& s = ThreadScratch();
    uint8_t* qa = Ensure(&s.qa, kRowBlock * fc1.k_padded);
    int32_t* acc = Ensure(&s.acc, kRowBlock * fc1.n_padded);
    uint8_t* qh = Ensure(&s.qh, kRowBlock * fc2.k_padded);
    int32_t* acc2 = Ensure(&s.acc2, kRowBlock * fc2.n_padded);
    QuantizeActivations(x + i0 * fc1.in, rows, fc1.in, fc1.k_padded, fc1.act,
                        qa);
    Int8GemmRowRange(qa, 0, rows, fc1, acc);
    RequantizeLut(acc, rows, fc1, mid, lut, fc2.k_padded, pad, qh);
    Int8GemmRowRange(qh, 0, rows, fc2, acc2);
    DequantEpilogue(acc2, rows, fc2, y + i0 * fc2.out);
  });
}

}  // namespace quant
}  // namespace emx
