#ifndef EMX_NN_ATTENTION_H_
#define EMX_NN_ATTENTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace emx {
namespace nn {

/// Scaled dot-product multi-head attention with separate query and
/// key/value inputs (self-attention passes the same tensor for both; the
/// XLNet query stream passes its g stream as query and the content stream
/// as key/value).
///
/// Masks are additive "1 = blocked" float tensors broadcastable against the
/// [B, heads, Tq, Tk] score tensor, i.e. shaped [B, 1, 1, Tk] (padding) or
/// [B, 1, Tq, Tk] (padding + structural masks such as permutation order).
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t hidden, int64_t num_heads, Rng* rng,
                     float init_stddev = 0.02f);

  /// query: [B, Tq, H]; kv: [B, Tk, H]; mask as described above (may be an
  /// empty tensor for no masking). Returns [B, Tq, H]. The attention core
  /// between the projections is autograd::FusedAttention, which takes the
  /// projected q/k/v with heads interleaved in the last dimension and folds
  /// head split/merge into its kernel. Its logits are bit-identical to the
  /// unfused MatMul -> MaskedSoftmax -> MatMul chain; with dropout on it
  /// draws one rng value per call and derives the mask from the dropout
  /// hash of kernel_math.h, the one ag::Dropout uses, so at the same Rng
  /// state it drops the same prob elements as that chain with ag::Dropout
  /// after the softmax.
  Variable Forward(const Variable& query, const Variable& kv,
                   const Tensor& mask, float dropout_p, bool train,
                   Rng* rng) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>* out) override;
  void CollectQuantTargets(const std::string& prefix,
                           QuantTargets* out) override;

  int64_t hidden() const { return hidden_; }
  int64_t num_heads() const { return num_heads_; }
  int64_t head_dim() const { return head_dim_; }
  const Linear& wq() const { return wq_; }
  const Linear& wk() const { return wk_; }
  const Linear& wv() const { return wv_; }
  const Linear& wo() const { return wo_; }

 private:
  int64_t hidden_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

/// One post-LayerNorm transformer encoder layer (BERT ordering):
///   x = LN(q + Dropout(Attention(q, kv)))
///   x = LN(x + Dropout(FFN(x)))
/// Self-attention passes the same tensor as `query` and `kv`. A last layer
/// whose only reader is the CLS position passes just that row as `query`
/// [B, 1, H]; every op after the attention core works per row, so that row
/// comes out as it would from the full [B, T, H] query.
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int64_t hidden, int64_t num_heads,
                          int64_t intermediate, Rng* rng,
                          Activation activation = Activation::kGelu,
                          float init_stddev = 0.02f);

  /// query: [B, Tq, H]; kv: [B, Tk, H]; mask as for MultiHeadAttention
  /// (a [B, 1, Tq, Tk] mask must have Tq query rows). Returns [B, Tq, H].
  Variable Forward(const Variable& query, const Variable& kv,
                   const Tensor& mask, float dropout_p, bool train,
                   Rng* rng) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>* out) override;
  void CollectQuantTargets(const std::string& prefix,
                           QuantTargets* out) override;

  const MultiHeadAttention& attention() const { return attention_; }
  MultiHeadAttention* mutable_attention() { return &attention_; }

 private:
  MultiHeadAttention attention_;
  FeedForward ffn_;
  LayerNorm ln_attn_;
  LayerNorm ln_ffn_;
};

}  // namespace nn
}  // namespace emx

#endif  // EMX_NN_ATTENTION_H_
