#ifndef EMX_TENSOR_AUTOGRAD_OPS_H_
#define EMX_TENSOR_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/kernel_math.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace emx {
namespace autograd {

// Differentiable operations on Variables. Each builds the forward value via
// the kernels in tensor_ops.h and records a backward closure. All ops are
// pure: they never mutate their inputs.
//
// Inference mode: inside a NoGradGuard scope (variable.h) every op here
// degrades to its forward kernel alone — no parents retained, no backward
// closure allocated — while producing bit-identical values, because the
// value path is shared with the training forward.

// ---- Arithmetic ------------------------------------------------------

/// c = a + b (same shape).
Variable Add(const Variable& a, const Variable& b);
/// c = a - b.
Variable Sub(const Variable& a, const Variable& b);
/// c = a * b (Hadamard).
Variable Mul(const Variable& a, const Variable& b);
/// c = a * s.
Variable MulScalar(const Variable& a, float s);
/// c = a + s.
Variable AddScalar(const Variable& a, float s);
/// y = x + bias, bias shape [H] broadcast over leading dims.
Variable AddBias(const Variable& x, const Variable& bias);

// ---- Linear algebra --------------------------------------------------

/// Batched matmul with optional logical transposes of the last two dims.
/// Batch dims of both operands must be identical (no broadcast here; the
/// non-batched Linear path reshapes to rank-2 first).
Variable MatMul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);

/// y = act(x @ w + b) in one node, on ops::MatMulBiasAct: x [..., K],
/// w [K, N], b [N], y [..., N]. Leading dims of x are rows, so no reshape
/// nodes are needed. Values are bit-identical to the MatMul -> AddBias ->
/// activation chain. With a tape it saves the pre-activation u (act !=
/// kNone); the backward makes one pass for dz = g * act'(u) and the bias
/// gradient, then runs the two GEMMs. When `pre_act` is non-null it also
/// receives u (int8 calibration observes the pre-activation).
Variable LinearAct(const Variable& x, const Variable& w, const Variable& b,
                   ops::Act act, Tensor* pre_act = nullptr);

/// Shares storage; backward reshapes the gradient back.
Variable Reshape(const Variable& x, Shape shape);

/// Axis permutation; backward applies the inverse permutation.
Variable Permute(const Variable& x, const std::vector<int64_t>& perm);

/// Permute immediately followed by Reshape, in one node. The permutation
/// materializes a fresh buffer which the reshaped result shares, so the
/// separate Reshape clone of the Permute -> Reshape pair disappears (one
/// materialization instead of two); backward reshapes the gradient back and
/// applies the inverse permutation. `shape` must be fully specified (no -1).
Variable PermuteReshape(const Variable& x, const std::vector<int64_t>& perm,
                        Shape shape);

/// Fused scaled-dot-product multi-head attention over projected q/k/v in
/// [B, T, H] layout with heads interleaved in the last dimension (see
/// tensor/fused_attention.h). Replaces the
/// MatMul -> MulScalar -> MaskedSoftmax -> Dropout -> MatMul chain with one
/// custom-VJP node: the forward streams K/V tiles and never materializes
/// the [B, heads, Tq, Tk] prob tensor; the backward recomputes per-tile
/// probs from saved row max/sum statistics. Forward values are
/// bit-identical to the unfused chain (dropout off); with `train` and
/// dropout_p > 0 a counter-seeded mask (one rng->Next() draw per call)
/// preserves inverted-dropout semantics without storing the mask.
Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, const Tensor& mask,
                        int64_t num_heads, float dropout_p, bool train,
                        Rng* rng, float penalty = -1e9f);

// ---- Activations -----------------------------------------------------

Variable Relu(const Variable& x);
Variable Gelu(const Variable& x);
Variable Tanh(const Variable& x);
Variable Sigmoid(const Variable& x);

/// Softmax over the last axis.
Variable Softmax(const Variable& x);

/// Softmax over the last axis after adding `penalty` (typically -1e9) at
/// positions where `mask` != 0. The mask is a plain tensor (no gradient)
/// broadcastable as [B, 1, 1, S] against x = [B, H, T, S].
Variable MaskedSoftmax(const Variable& x, const Tensor& mask,
                       float penalty = -1e9f);

/// Log-softmax over the last axis.
Variable LogSoftmax(const Variable& x);

// ---- Normalization / regularization -----------------------------------

/// LayerNorm over the last axis with affine gamma/beta (both shape [H]).
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);

/// Inverted dropout: scales survivors by 1/(1-p) at train time; identity
/// when `train` is false or p == 0. Draws one rng->Next() per call as the
/// seed of ops::Dropout's hashed mask; no mask tensor is stored.
Variable Dropout(const Variable& x, float p, bool train, Rng* rng);

// ---- Embedding / selection ---------------------------------------------

/// Rows of `table` ([V, H]) at `ids`; result [ids.size(), H]. The backward
/// pass scatter-adds into the table gradient.
Variable EmbeddingLookup(const Variable& table, const std::vector<int64_t>& ids);

/// x[:, t, :] of a [B, T, H] tensor -> [B, H].
Variable SelectTimeStep(const Variable& x, int64_t t);

/// Concatenation along `axis`.
Variable Concat(const std::vector<Variable>& parts, int64_t axis);

// ---- Reductions / losses ------------------------------------------------

/// Mean over all elements -> scalar.
Variable MeanAll(const Variable& x);
/// Sum over all elements -> scalar.
Variable SumAll(const Variable& x);

/// Mean cross-entropy of logits [N, C] against integer targets (size N).
/// Rows whose target is `ignore_index` contribute nothing.
Variable CrossEntropy(const Variable& logits, const std::vector<int64_t>& targets,
                      int64_t ignore_index = -100);

/// Mean soft-target cross-entropy: -sum_j t[n,j] * log_softmax(s)[n,j],
/// averaged over rows. `soft_targets` is a probability tensor (constant).
/// Used as the distillation loss (caller applies temperature).
Variable SoftCrossEntropy(const Variable& logits, const Tensor& soft_targets);

/// Mean (1 - cosine similarity) between rows of `x` ([N, H]) and rows of
/// the constant `target` ([N, H]). DistilBERT's hidden-state alignment loss.
Variable CosineEmbeddingLoss(const Variable& x, const Tensor& target);

/// Cuts the graph: result has the same value but no parents.
Variable StopGradient(const Variable& x);

}  // namespace autograd
}  // namespace emx

#endif  // EMX_TENSOR_AUTOGRAD_OPS_H_
