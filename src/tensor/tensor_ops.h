#ifndef EMX_TENSOR_TENSOR_OPS_H_
#define EMX_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/kernel_math.h"
#include "tensor/tensor.h"

namespace emx {
namespace ops {

// Raw (non-differentiable) kernels on dense tensors. The autograd layer in
// tensor/variable.h composes these into differentiable operations; baseline
// models and backward passes call them directly.

// ---- Elementwise -----------------------------------------------------

/// c = a + b. Shapes must match exactly.
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a * b (Hadamard).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a / b.
Tensor Div(const Tensor& a, const Tensor& b);
/// c = a + s.
Tensor AddScalar(const Tensor& a, float s);
/// c = a * s.
Tensor MulScalar(const Tensor& a, float s);

/// y = x + bias where bias has shape [H] and x has shape [..., H].
Tensor AddBias(const Tensor& x, const Tensor& bias);
/// Reduces grad of shape [..., H] to bias grad of shape [H].
Tensor SumToBias(const Tensor& grad, int64_t h);

Tensor Exp(const Tensor& x);
Tensor Log(const Tensor& x);
Tensor Sqrt(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Relu(const Tensor& x);
/// dx = dy * 1[x > 0].
Tensor ReluGrad(const Tensor& dy, const Tensor& x);
/// Gaussian error linear unit (tanh approximation, as in BERT).
Tensor Gelu(const Tensor& x);
/// dx = dy * gelu'(x).
Tensor GeluGrad(const Tensor& dy, const Tensor& x);
/// dx = dy * (1 - tanh(x)^2) given y = tanh(x).
Tensor TanhGradFromOutput(const Tensor& dy, const Tensor& y);
/// Inverted dropout with the mask of kernel_math.h: element i is 0 when
/// DropoutHash(seed, i) < DropoutThreshold(p) and x[i] / (1 - p)
/// otherwise. The mask is a function of (seed, i) alone, so the backward
/// of dropout is this same call on the upstream gradient. 0 <= p < 1.
Tensor Dropout(const Tensor& x, uint64_t seed, float p);

// Tanh, Gelu, GeluGrad and Relu evaluate the scalar functions of
// kernel_math.h (TanhApprox, Gelu, GeluDerivative, Relu), in loops GCC
// vectorizes; MatMulBiasAct's epilogue and the int8 activation table use
// the same functions, so all three agree bit for bit.

/// act(x) elementwise. For Act::kNone it returns x itself (shared storage).
Tensor Activate(const Tensor& x, Act act);

/// Backward of act and bias in one pass: returns dz = dy * act'(u) for the
/// pre-activation u ([..., N]) and writes sum over rows of dz to `dbias`
/// ([N]). Rows are summed in fixed 64-row blocks, so dbias does not depend
/// on the thread count. For Act::kNone, u is not read and dz is dy itself.
Tensor ActGradWithBiasGrad(const Tensor& dy, const Tensor& u, Act act,
                           Tensor* dbias);

// ---- Linear algebra --------------------------------------------------

/// Batched matrix multiply: a has shape [..., M, K] (or [K, M] when
/// trans_a), b has shape [..., K, N] (or [N, K] when trans_b). Leading
/// batch dims must match exactly, or either operand may be rank-2 and is
/// broadcast across the other's batch. Cache-blocked (MC/KC/NC tiling with
/// packed panels) and parallelized across batch x row blocks; per-output
/// accumulation is a single ascending-k MulAdd chain from zero, so results
/// are bit-identical to a naive triple loop at any thread count.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// y = act(x @ w + bias): the affine map plus activation of a Linear layer,
/// with x [..., K] (leading dims flattened to rows, no copy), w [K, N],
/// bias [N] and y [..., N]. The blocked GEMM adds the bias and applies
/// `act` to each output block right after its last K panel, while the
/// block is still in cache. The bias is added after the whole ascending-k
/// chain, so y is bit-identical to Activate(AddBias(MatMul(x, w), bias)).
/// When `pre_act` is non-null it receives u = x @ w + bias, which the
/// backward pass and int8 calibration need.
Tensor MatMulBiasAct(const Tensor& x, const Tensor& w, const Tensor& bias,
                     Act act, Tensor* pre_act = nullptr);

/// Generic axis permutation (materializes the result).
/// `perm` must be a permutation of [0, ndim).
Tensor Permute(const Tensor& x, const std::vector<int64_t>& perm);

/// Swaps the last two axes.
Tensor TransposeLast2(const Tensor& x);

// ---- Reductions ------------------------------------------------------

/// Sum of all elements (returns shape {1}).
Tensor SumAll(const Tensor& x);
/// Mean of all elements (returns shape {1}).
Tensor MeanAll(const Tensor& x);
/// Sums over the last axis: [..., N] -> [...].
Tensor SumLastAxis(const Tensor& x);
/// Row-wise argmax over the last axis: [..., N] -> indices (flattened rows).
std::vector<int64_t> ArgMaxLastAxis(const Tensor& x);

// ---- Softmax family --------------------------------------------------

/// Numerically stable softmax over the last axis: ExpApprox(x - row max),
/// summed with LaneSum (kernel_math.h), the fused attention kernel's exact
/// sequence of operations.
Tensor Softmax(const Tensor& x);
/// dx given y = softmax(x) and upstream dy: dx = y * (dy - sum(dy*y)).
Tensor SoftmaxGradFromOutput(const Tensor& dy, const Tensor& y);
/// Numerically stable log-softmax over the last axis; its exps and sum are
/// Softmax's.
Tensor LogSoftmax(const Tensor& x);

/// Adds `value` at positions where mask != 0. `mask` must be broadcastable
/// against x in the sense that x.shape = [B, H, T, S] and mask.shape is
/// [B, 1, 1, S] or [B, 1, T, S] or exactly x.shape.
Tensor MaskedAdd(const Tensor& x, const Tensor& mask, float value);

// ---- Gather / scatter ------------------------------------------------

/// Embedding lookup: rows of `table` ([V, H]) selected by `ids`;
/// result has shape [ids.size(), H].
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids);
/// Accumulates `grad` rows ([n, H]) into `table_grad` ([V, H]) at `ids`.
void ScatterAddRows(const Tensor& grad, const std::vector<int64_t>& ids,
                    Tensor* table_grad);

/// Selects one time step from [B, T, H] -> [B, H].
Tensor SelectTimeStep(const Tensor& x, int64_t t);
/// Scatter for SelectTimeStep's gradient: adds [B, H] into step t of [B, T, H].
void AddToTimeStep(const Tensor& grad_bh, int64_t t, Tensor* grad_bth);

// ---- Shape manipulation ----------------------------------------------

/// Concatenates along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
/// Splits along `axis` into pieces of the given sizes.
std::vector<Tensor> SplitAxis(const Tensor& x, int64_t axis,
                              const std::vector<int64_t>& sizes);

// ---- LayerNorm -------------------------------------------------------

/// Layer normalization over the last axis with affine parameters.
/// Writes per-row mean and reciprocal stddev for the backward pass.
Tensor LayerNormForward(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, float eps, Tensor* mean,
                        Tensor* rstd);
/// Backward of LayerNormForward. Outputs dx and accumulates dgamma/dbeta.
Tensor LayerNormBackward(const Tensor& dy, const Tensor& x,
                         const Tensor& gamma, const Tensor& mean,
                         const Tensor& rstd, Tensor* dgamma, Tensor* dbeta);

// ---- Misc -------------------------------------------------------------

/// Max absolute difference between two same-shaped tensors.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
/// True if all |a - b| <= atol + rtol * |b|.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace ops
}  // namespace emx

#endif  // EMX_TENSOR_TENSOR_OPS_H_
