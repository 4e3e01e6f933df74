#ifndef EMX_QUANT_INT8_GEMM_H_
#define EMX_QUANT_INT8_GEMM_H_

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

/// Quantizes a row-major fp32 matrix [m, k] to u8 rows padded to
/// k_padded: q = clamp(round(x/scale) + zero_point, 0, 255). Padding
/// bytes are zero_point (they meet zero weight rows, so any value works).
void QuantizeActivations(const float* x, int64_t m, int64_t k,
                         int64_t k_padded, const QuantParams& p, uint8_t* qa);

/// acc[m, n_padded] (int32, row-major) = qa[m, k_padded] (u8) x packed
/// weights. Integer accumulation is exact, so the AVX-512 VNNI kernel and
/// the portable scalar fallback produce identical accumulators; which one
/// runs is a pure build-arch question. Parallelized over row blocks with
/// the same ParallelFor/grain discipline as the fp32 GEMM.
void Int8GemmAccumulate(const uint8_t* qa, int64_t m, const PackedWeights& w,
                        int32_t* acc);

/// Reference row range used by tests to pin the vectorized kernel:
/// computes rows [i0, i1) of the accumulator with plain scalar loops.
void Int8GemmRowRangeScalar(const uint8_t* qa, int64_t i0, int64_t i1,
                            const PackedWeights& w, int32_t* acc);

/// y[m, out] fp32 from the raw accumulators:
///   y[i][j] = fused_scale[j] * (acc[i][j] - zp_a * col_sums[j]) + bias[j]
/// The zp_a * col_sums term folds the activation zero-point out of the
/// unsigned accumulation, making the affine u8 grid exact. Scalar by
/// design: it is O(m*out) against the kernel's O(m*k*out), and one code
/// path keeps results bit-identical across builds.
void DequantEpilogue(const int32_t* acc, int64_t m, const PackedWeights& w,
                     float* y);

/// Convenience: quantize + GEMM + epilogue, x [m, in] -> y [m, out].
void Int8LinearForward(const float* x, int64_t m, const PackedWeights& w,
                       float* y);

/// True when this build carries the AVX-512 VNNI kernel (informational;
/// results are identical either way).
bool HasVnniKernel();

}  // namespace quant
}  // namespace emx

#endif  // EMX_QUANT_INT8_GEMM_H_
