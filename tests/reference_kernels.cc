#include "reference_kernels.h"

#include <cmath>

#include "tensor/autograd_ops.h"
#include "tensor/kernel_math.h"
#include "util/logging.h"

namespace emx {
namespace reference {

Tensor MatMulNaive(const Tensor& a, const Tensor& b, bool trans_a,
                   bool trans_b) {
  EMX_CHECK_GE(a.ndim(), 2);
  EMX_CHECK_GE(b.ndim(), 2);
  const int64_t m = trans_a ? a.dim(-1) : a.dim(-2);
  const int64_t k = trans_a ? a.dim(-2) : a.dim(-1);
  const int64_t n = trans_b ? b.dim(-2) : b.dim(-1);
  EMX_CHECK_EQ(k, trans_b ? b.dim(-1) : b.dim(-2));
  const Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  const Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  EMX_CHECK(a_batch == b_batch || a_batch.empty() || b_batch.empty());
  Shape out_shape = a_batch.empty() ? b_batch : a_batch;
  const int64_t batch = NumElements(out_shape);
  out_shape.push_back(m);
  out_shape.push_back(n);
  Tensor out(out_shape);
  // A rank-2 operand is broadcast across the other's batch.
  const int64_t a_stride = a_batch.empty() ? 0 : m * k;
  const int64_t b_stride = b_batch.empty() ? 0 : k * n;
  for (int64_t bi = 0; bi < batch; ++bi) {
    const float* pa = a.data() + bi * a_stride;
    const float* pb = b.data() + bi * b_stride;
    float* pc = out.data() + bi * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) {
          const float av = trans_a ? pa[kk * m + i] : pa[i * k + kk];
          const float bv = trans_b ? pb[j * k + kk] : pb[kk * n + j];
          acc = ops::MulAdd(av, bv, acc);
        }
        pc[i * n + j] = acc;
      }
    }
  }
  return out;
}

float GeluReference(float x) {
  return 0.5f * x *
         (1.0f + std::tanh(ops::kGeluC * (x + ops::kGeluA * x * x * x)));
}

float GeluGradReference(float x) {
  const float x3 = x * x * x;
  const float t = std::tanh(ops::kGeluC * (x + ops::kGeluA * x3));
  const float dinner = ops::kGeluC * (1.0f + 3.0f * ops::kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
}

Variable SplitHeads(const Variable& x, int64_t num_heads) {
  const int64_t b = x.dim(0);
  const int64_t t = x.dim(1);
  Variable r =
      autograd::Reshape(x, {b, t, num_heads, x.dim(2) / num_heads});
  return autograd::Permute(r, {0, 2, 1, 3});  // [B, heads, T, dh]
}

Variable MergeHeads(const Variable& x) {
  const int64_t b = x.dim(0);
  const int64_t t = x.dim(2);
  return autograd::PermuteReshape(x, {0, 2, 1, 3},
                                  {b, t, x.dim(1) * x.dim(3)});
}

Variable AttentionReference(const nn::MultiHeadAttention& attn,
                            const Variable& query, const Variable& kv,
                            const Tensor& mask, float dropout_p, bool train,
                            Rng* rng) {
  namespace ag = autograd;
  const int64_t heads = attn.num_heads();
  Variable q = SplitHeads(attn.wq().Forward(query), heads);  // [B, h, Tq, dh]
  Variable k = SplitHeads(attn.wk().Forward(kv), heads);     // [B, h, Tk, dh]
  Variable v = SplitHeads(attn.wv().Forward(kv), heads);     // [B, h, Tk, dh]

  const float scale = 1.0f / std::sqrt(static_cast<float>(attn.head_dim()));
  Variable scores =
      ag::MulScalar(ag::MatMul(q, k, false, true), scale);  // [B, h, Tq, Tk]

  Variable probs = mask.size() > 0 ? ag::MaskedSoftmax(scores, mask)
                                   : ag::Softmax(scores);
  probs = ag::Dropout(probs, dropout_p, train, rng);

  Variable context = ag::MatMul(probs, v);  // [B, h, Tq, dh]
  return attn.wo().Forward(MergeHeads(context));
}

}  // namespace reference
}  // namespace emx
