#ifndef EMX_QUANT_INT8_GEMM_H_
#define EMX_QUANT_INT8_GEMM_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "quant/observer.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace emx {
namespace quant {

/// Output-channel tile width of the packed weight layout. 16 int32 lanes
/// fill one 512-bit accumulator, so a single VNNI instruction advances 16
/// output channels by 4 k-steps.
constexpr int64_t kColBlock = 16;
/// k-values consumed per VNNI step (vpdpbusd contracts groups of 4 bytes).
constexpr int64_t kKGroup = 4;

/// An nn::Linear's weights quantized per output channel (symmetric int8)
/// and packed for the u8 x s8 -> i32 kernel, together with everything the
/// fused dequant+bias epilogue needs. Immutable after construction, so
/// concurrent Forward calls from serving workers are safe.
///
/// Layout: weights W [in, out] are stored as
///   data[(nb * kg_count + kg) * (kColBlock * kKGroup)
///        + col_in_block * kKGroup + kk] = qw[kg*4 + kk][nb*16 + col]
/// i.e. [out/16 tiles][k/4 groups][16 cols][4 ks]. One 64-byte row of a
/// tile is exactly the operand vpdpbusd wants against a 4-byte activation
/// broadcast. k is zero-padded to a multiple of 4 (zero weight rows add
/// nothing) and out to a multiple of 16 (padded columns are computed but
/// never stored).
struct PackedWeights {
  int64_t in = 0;        // logical K
  int64_t out = 0;       // logical N
  int64_t k_padded = 0;  // in rounded up to kKGroup
  int64_t n_padded = 0;  // out rounded up to kColBlock

  /// Packed bytes live in exactly one of two places: `data` when the
  /// weights were quantized in this process, or `view` when
  /// they are served zero-copy out of a read-only EMXM mapping. `owner`
  /// keeps whatever backs `view` (the mapped container) alive for as long
  /// as this struct exists; kernels always go through packed_data().
  std::vector<int8_t> data;          // n_padded * k_padded, interleaved
  const int8_t* view = nullptr;      // borrowed packed image (mapped mode)
  std::shared_ptr<const void> owner; // keepalive for `view`

  std::vector<int32_t> col_sums;   // [out]; sum_k qw[k][j]
  std::vector<float> w_scales;     // [out]; per-channel symmetric scales
  std::vector<float> bias;         // [out]; fp32 bias, applied in epilogue
  std::vector<float> fused_scale;  // [out]; act.scale * w_scales[j]
  std::vector<int32_t> zp_col_sums;  // [out]; act.zero_point * col_sums[j]
  QuantParams act;                 // input-activation grid (u8 affine)

  const int8_t* packed_data() const {
    return view != nullptr ? view : data.data();
  }
};

/// Quantizes fp32 weights [in, out] per output channel and packs them.
/// `act` is the calibrated grid of the activations this layer will see.
PackedWeights PackWeights(const Tensor& weight, const Tensor& bias,
                          const QuantParams& act);

/// Builds a PackedWeights that serves the kernel directly from an
/// already-packed weight image (an EMXM section still inside its mmap) —
/// the zero-copy load path. Nothing is repacked or summed: `packed` is
/// aliased, and the derived arrays come from the container verbatim, with
/// only fused_scale recomputed exactly as FinalizeDerived does, so mapped
/// and freshly quantized models produce bit-identical logits. `owner` must keep
/// `packed` valid for the lifetime of the returned struct.
Result<PackedWeights> ViewPackedWeights(int64_t in, int64_t out,
                                        const int8_t* packed,
                                        uint64_t packed_bytes,
                                        std::shared_ptr<const void> owner,
                                        std::vector<float> w_scales,
                                        std::vector<float> bias,
                                        std::vector<int32_t> col_sums,
                                        const QuantParams& act);

/// The u8 code of an already-scaled value: clamp(round(x) + zero_point,
/// 0, 255), rounding half to even (std::nearbyint in the default rounding
/// mode). NaN maps to code 0 — a NaN cast to an integer is undefined, and
/// the vector kernels give 0 too.
inline uint8_t QuantizeCode(float scaled, float zero_point) {
  const float code = std::nearbyint(scaled) + zero_point;
  if (!(code > 0.0f)) return 0;
  return code >= 255.0f ? 255 : static_cast<uint8_t>(code);
}

// QuantizeActivations, the GEMM and RequantizeLut run in AVX-512 when the
// build targets it and in plain scalar loops otherwise; which one is a
// build-arch question, as for the GEMM kernel. The vector stages do the
// scalar float operations in the same order, and the dequant multiply-add
// is explicit (ops::MulAdd, one rounding with FMA and two without; the
// AVX-512 path requires FMA and uses _mm512_fmadd_ps) rather than left to
// the compiler's contraction, so both produce the same bits.
// Each `...Scalar` function is the reference the tests pin the vector stage
// against. DequantEpilogue is scalar only: an AVX-512 version measured no
// faster (13 vs 12 us at m = 1024, out = 64).

/// Quantizes a row-major fp32 matrix [m, k] to u8 rows padded to
/// k_padded: q = QuantizeCode(x * (1/scale), zero_point). Padding bytes are
/// zero_point (they meet zero weight rows, so any value works).
void QuantizeActivations(const float* x, int64_t m, int64_t k,
                         int64_t k_padded, const QuantParams& p, uint8_t* qa);
void QuantizeActivationsScalar(const float* x, int64_t m, int64_t k,
                               int64_t k_padded, const QuantParams& p,
                               uint8_t* qa);

/// acc rows [i0, i1) (int32, row-major, n_padded wide) = qa rows (u8,
/// k_padded wide) x packed weights, with the build's kernel. Integer
/// accumulation is exact, so the AVX-512 VNNI kernel and the portable
/// scalar reference produce identical accumulators. The VNNI kernel runs
/// 4 rows x 4 column tiles (16 independent vpdpbusd chains, each weight row
/// loaded once per k-group for 4 activation broadcasts) over the packed
/// layout above; the 4 x 1-tile and 1-row shapes of the same kernel take
/// the column and row tails.
void Int8GemmRowRange(const uint8_t* qa, int64_t i0, int64_t i1,
                      const PackedWeights& w, int32_t* acc);
void Int8GemmRowRangeScalar(const uint8_t* qa, int64_t i0, int64_t i1,
                            const PackedWeights& w, int32_t* acc);

/// y[m, out] fp32 from the raw accumulators [m, n_padded]:
///   y[i][j] = MulAdd(fused_scale[j], acc[i][j] - zp_col_sums[j], bias[j])
/// The zp_a * col_sums term folds the activation zero-point out of the
/// unsigned accumulation, making the affine u8 grid exact.
void DequantEpilogue(const int32_t* acc, int64_t m, const PackedWeights& w,
                     float* y);

/// The fused FFN's middle stage: each of fc1's dequantized outputs
/// (DequantEpilogue's value v) is requantized onto the pre-activation grid
/// `mid` and mapped through the 256-entry activation LUT,
///   q[i][j] = lut[QuantizeCode(v * (1/mid.scale), mid.zero_point)],
/// for j < w.out; q rows are `ld_q` wide and columns [w.out, ld_q) get
/// `pad`. The AVX-512 path looks up 64 codes at once with two vpermi2b
/// (one per 128-entry half of the table) and a blend on bit 7 of the code
/// when the build has AVX-512 VBMI, and reads the table per byte otherwise.
void RequantizeLut(const int32_t* acc, int64_t m, const PackedWeights& w,
                   const QuantParams& mid,
                   const std::array<uint8_t, 256>& lut, int64_t ld_q,
                   uint8_t pad, uint8_t* q);
void RequantizeLutScalar(const int32_t* acc, int64_t m, const PackedWeights& w,
                         const QuantParams& mid,
                         const std::array<uint8_t, 256>& lut, int64_t ld_q,
                         uint8_t pad, uint8_t* q);

/// Quantize + GEMM + epilogue, x [m, in] -> y [m, out]. The stages run
/// fused per block of rows, so each block's codes and accumulators are
/// still in cache when the next stage reads them, and one ParallelFor
/// spreads the blocks over the global pool.
void Int8LinearForward(const float* x, int64_t m, const PackedWeights& w,
                       float* y);

/// The whole int8 FFN, x [m, fc1.in] -> y [m, fc2.out]: quantize, fc1 GEMM,
/// RequantizeLut onto fc2's input grid, fc2 GEMM, DequantEpilogue — fused
/// per block of rows like Int8LinearForward.
void Int8FfnForward(const float* x, int64_t m, const PackedWeights& fc1,
                    const QuantParams& mid,
                    const std::array<uint8_t, 256>& lut,
                    const PackedWeights& fc2, float* y);

/// True when this build carries the AVX-512 VNNI kernel (informational;
/// results are identical either way).
bool HasVnniKernel();

}  // namespace quant
}  // namespace emx

#endif  // EMX_QUANT_INT8_GEMM_H_
