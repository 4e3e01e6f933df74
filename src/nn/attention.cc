#include "nn/attention.h"

#include "tensor/autograd_ops.h"
#include "util/logging.h"

namespace emx {
namespace nn {

namespace ag = autograd;

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t num_heads,
                                       Rng* rng, float init_stddev)
    : hidden_(hidden),
      num_heads_(num_heads),
      head_dim_(hidden / num_heads),
      wq_(hidden, hidden, rng, init_stddev),
      wk_(hidden, hidden, rng, init_stddev),
      wv_(hidden, hidden, rng, init_stddev),
      wo_(hidden, hidden, rng, init_stddev) {
  EMX_CHECK_EQ(head_dim_ * num_heads_, hidden_)
      << "hidden must be divisible by num_heads";
}

Variable MultiHeadAttention::Forward(const Variable& query, const Variable& kv,
                                     const Tensor& mask, float dropout_p,
                                     bool train, Rng* rng) const {
  Variable q = wq_.Forward(query);  // [B, Tq, H], heads interleaved
  Variable k = wk_.Forward(kv);     // [B, Tk, H]
  Variable v = wv_.Forward(kv);     // [B, Tk, H]
  Variable context =
      ag::FusedAttention(q, k, v, mask, num_heads_, dropout_p, train, rng);
  return wo_.Forward(context);
}

void MultiHeadAttention::CollectParameters(const std::string& prefix,
                                           std::vector<NamedParam>* out) {
  wq_.CollectParameters(JoinName(prefix, "wq"), out);
  wk_.CollectParameters(JoinName(prefix, "wk"), out);
  wv_.CollectParameters(JoinName(prefix, "wv"), out);
  wo_.CollectParameters(JoinName(prefix, "wo"), out);
}

void MultiHeadAttention::CollectQuantTargets(const std::string& prefix,
                                             QuantTargets* out) {
  wq_.CollectQuantTargets(JoinName(prefix, "wq"), out);
  wk_.CollectQuantTargets(JoinName(prefix, "wk"), out);
  wv_.CollectQuantTargets(JoinName(prefix, "wv"), out);
  wo_.CollectQuantTargets(JoinName(prefix, "wo"), out);
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t hidden,
                                                 int64_t num_heads,
                                                 int64_t intermediate, Rng* rng,
                                                 Activation activation,
                                                 float init_stddev)
    : attention_(hidden, num_heads, rng, init_stddev),
      ffn_(hidden, intermediate, rng, activation, init_stddev),
      ln_attn_(hidden),
      ln_ffn_(hidden) {}

Variable TransformerEncoderLayer::Forward(const Variable& query,
                                          const Variable& kv,
                                          const Tensor& mask, float dropout_p,
                                          bool train, Rng* rng) const {
  Variable attn = attention_.Forward(query, kv, mask, dropout_p, train, rng);
  attn = ag::Dropout(attn, dropout_p, train, rng);
  Variable h = ln_attn_.Forward(ag::Add(query, attn));

  Variable ffn = ffn_.Forward(h, dropout_p, train, rng);
  ffn = ag::Dropout(ffn, dropout_p, train, rng);
  return ln_ffn_.Forward(ag::Add(h, ffn));
}

void TransformerEncoderLayer::CollectParameters(const std::string& prefix,
                                                std::vector<NamedParam>* out) {
  attention_.CollectParameters(JoinName(prefix, "attn"), out);
  ffn_.CollectParameters(JoinName(prefix, "ffn"), out);
  ln_attn_.CollectParameters(JoinName(prefix, "ln_attn"), out);
  ln_ffn_.CollectParameters(JoinName(prefix, "ln_ffn"), out);
}

void TransformerEncoderLayer::CollectQuantTargets(const std::string& prefix,
                                                  QuantTargets* out) {
  attention_.CollectQuantTargets(JoinName(prefix, "attn"), out);
  ffn_.CollectQuantTargets(JoinName(prefix, "ffn"), out);
}

}  // namespace nn
}  // namespace emx
