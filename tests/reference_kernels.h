#ifndef EMX_TESTS_REFERENCE_KERNELS_H_
#define EMX_TESTS_REFERENCE_KERNELS_H_

#include "nn/attention.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace emx {
namespace reference {

// Golden references for the tensor kernels and the fused attention layer,
// used by the tests and the baseline side of the kernel micro-benchmarks.
// Nothing in src/ calls them.

/// Single-threaded triple-loop GEMM with ops::MatMul's shape, transpose and
/// broadcast rules. Every output is one ascending-k MulAdd chain from zero,
/// so the blocked GEMM must match it bit for bit.
Tensor MatMulNaive(const Tensor& a, const Tensor& b, bool trans_a = false,
                   bool trans_b = false);

/// Tanh-approximated GELU evaluated with std::tanh, the formula ops::Gelu
/// computed before it moved onto the rational tanh of kernel_math.h.
float GeluReference(float x);

/// d/dx of GeluReference, with std::tanh.
float GeluGradReference(float x);

/// Splits [B, T, H] into [B, heads, T, H/heads].
Variable SplitHeads(const Variable& x, int64_t num_heads);
/// Merges [B, heads, T, dh] back into [B, T, heads * dh].
Variable MergeHeads(const Variable& x);

/// MultiHeadAttention::Forward as the unfused autograd chain (MatMul ->
/// MulScalar -> MaskedSoftmax -> Dropout -> MatMul over split heads) on
/// `attn`'s projections: the oracle the fused layer is tested bit-identical
/// (forward) and gradient-close against.
Variable AttentionReference(const nn::MultiHeadAttention& attn,
                            const Variable& query, const Variable& kv,
                            const Tensor& mask, float dropout_p, bool train,
                            Rng* rng);

}  // namespace reference
}  // namespace emx

#endif  // EMX_TESTS_REFERENCE_KERNELS_H_
