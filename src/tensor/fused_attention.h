#ifndef EMX_TENSOR_FUSED_ATTENTION_H_
#define EMX_TENSOR_FUSED_ATTENTION_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace emx {
namespace ops {

/// Configuration shared by the fused attention forward and backward
/// kernels. `q`/`k`/`v` are the outputs of the input projections in their
/// natural [B, T, H] layout with heads interleaved in the last dimension
/// (H = num_heads * head_dim); the kernel addresses head h at column offset
/// h * head_dim, so the Permute copies of the unfused path never happen.
struct FusedAttentionConfig {
  int64_t num_heads = 1;
  /// Score scale, typically 1/sqrt(head_dim).
  float scale = 1.0f;
  /// Additive penalty for blocked positions (reference: MaskedSoftmax).
  float penalty = -1e9f;
  /// Inverted-dropout on the attention probabilities. When `dropout` is
  /// set, element (b, h, i, j) of the prob tensor is dropped by the one
  /// dropout decision of kernel_math.h, DropoutHash(dropout_seed, flat
  /// index) < DropoutThreshold(dropout_p); survivors scale by 1/(1-p). The
  /// mask is a pure function of (seed, index) — order-free,
  /// thread-count-free and recomputable — so neither forward nor backward
  /// ever stores it.
  bool dropout = false;
  float dropout_p = 0.0f;
  uint64_t dropout_seed = 0;
};

/// Tiled attention forward with an online row max and per-thread scratch:
///
///   out[b, i, h*dh + d] = sum_j softmax_j(scale * q_bhi . k_bhj + mask)
///                               * dropout * v[b, j, h*dh + d]
///
/// q: [B, Tq, H]; k, v: [B, Tk, H]; mask empty, [B, 1, 1, Tk],
/// [B, 1, Tq, Tk] or [B, num_heads, Tq, Tk] (nonzero = blocked, as in
/// MaskedSoftmax). Returns [B, Tq, H].
///
/// The kernel parallelizes over B x heads x row tiles, streams K/V tiles
/// through thread-local scratch and never materializes the [B, h, Tq, Tk]
/// score or prob tensors. Accumulation per output element is a single
/// ascending-index MulAdd chain (kernel_math.h), and softmax uses the same
/// global-row-max formulation, ExpApprox and LaneSum as ops::Softmax, so
/// outputs are bit-identical to the unfused MatMul -> MulScalar ->
/// MaskedSoftmax -> MatMul chain at any thread count. Rows whose positions
/// are all blocked produce zeros (matching autograd::MaskedSoftmax), never
/// NaNs.
///
/// When `row_max`/`row_sum` are non-null they receive the per-row softmax
/// statistics m_i (masked row max) and l_i (sum of exp(s - m_i)), each
/// shaped [B, num_heads, Tq]; the backward pass recomputes per-tile probs
/// from them, bit-identical to the forward probs.
Tensor FusedAttentionForward(const Tensor& q, const Tensor& k,
                             const Tensor& v, const Tensor& mask,
                             const FusedAttentionConfig& cfg, Tensor* row_max,
                             Tensor* row_sum);

/// Backward of FusedAttentionForward: given upstream dout [B, Tq, H] and
/// the saved row statistics, recomputes the probs from the scores and
/// accumulates dq/dk/dv into pre-allocated tensors shaped like q/k/v
/// (normally zero). Parallel over B x heads; each task owns its (b, h)
/// slice of all three gradients, so no atomics are needed and results are
/// deterministic at any thread count. The [B, h, Tq, Tk] tensors are never
/// materialized; the AVX-512 tiles keep one (b, h) slice of them, [Tq, Tk],
/// in per-thread scratch.
void FusedAttentionBackward(const Tensor& dout, const Tensor& q,
                            const Tensor& k, const Tensor& v,
                            const Tensor& mask,
                            const FusedAttentionConfig& cfg,
                            const Tensor& row_max, const Tensor& row_sum,
                            Tensor* dq, Tensor* dk, Tensor* dv);

/// Builds with AVX-512F, AVX-512DQ and FMA run both kernels as register
/// tiles when head_dim is a multiple of 16: 4 query rows x 4 sixteen-lane
/// score vectors against a packed K^T, then 4 rows x head_dim/16 output
/// vectors streaming V (and the same two shapes for dprob, dq, dk and dv).
/// Every element keeps the portable loops' operation chain, so the tiles
/// are bit-identical to them. The `...Scalar` entry points always run the
/// portable loops, the only path elsewhere; the tests pin the tiles to
/// them.
Tensor FusedAttentionForwardScalar(const Tensor& q, const Tensor& k,
                                   const Tensor& v, const Tensor& mask,
                                   const FusedAttentionConfig& cfg,
                                   Tensor* row_max, Tensor* row_sum);
void FusedAttentionBackwardScalar(const Tensor& dout, const Tensor& q,
                                  const Tensor& k, const Tensor& v,
                                  const Tensor& mask,
                                  const FusedAttentionConfig& cfg,
                                  const Tensor& row_max,
                                  const Tensor& row_sum, Tensor* dq,
                                  Tensor* dk, Tensor* dv);

/// Whether FusedAttentionForward/Backward run the AVX-512 tiles for this
/// head_dim in this build.
bool FusedAttentionUsesTiles(int64_t head_dim);

}  // namespace ops
}  // namespace emx

#endif  // EMX_TENSOR_FUSED_ATTENTION_H_
