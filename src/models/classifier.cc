#include "models/classifier.h"

#include <cmath>

#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace emx {
namespace models {

namespace ag = autograd;

SequencePairClassifier::SequencePairClassifier(
    std::unique_ptr<TransformerModel> backbone, Rng* rng)
    : backbone_(std::move(backbone)),
      // The head is not pre-trained; Xavier-scale init avoids the flat
      // near-zero-logit region that tiny transformer-style init creates.
      dense_(backbone_->config().hidden, backbone_->config().hidden, rng,
             1.0f / std::sqrt(static_cast<float>(backbone_->config().hidden))),
      out_(backbone_->config().hidden, 2, rng,
           1.0f / std::sqrt(static_cast<float>(backbone_->config().hidden))) {
  // Warm start: when the backbone carries a pre-trained pair
  // (copy-discrimination) head, seed the classification head from it —
  // dense_ as a noisy identity so tanh(dense(x)) ~ x, out_ as a copy of
  // the pair head. This is why the paper's models score well after a
  // single epoch: the comparison head is substantially pre-built.
  const nn::Linear* pretrained = backbone_->pair_head();
  if (pretrained != nullptr) {
    const int64_t h = backbone_->config().hidden;
    Tensor& dw = dense_.Parameters()[0].var.mutable_value();
    dw.ScaleInPlace(0.1f);  // noise well below the identity diagonal
    for (int64_t i = 0; i < h; ++i) dw[i * h + i] += 1.0f;
    const Tensor& src_w = pretrained->weight().value();
    const Tensor& src_b = pretrained->bias().value();
    Tensor& ow = out_.Parameters()[0].var.mutable_value();
    Tensor& ob = out_.Parameters()[1].var.mutable_value();
    std::copy(src_w.data(), src_w.data() + src_w.size(), ow.data());
    std::copy(src_b.data(), src_b.data() + src_b.size(), ob.data());
  }
}

Variable SequencePairClassifier::Logits(const Batch& batch, bool train,
                                        Rng* rng) {
  return Head(backbone_->EncodeCls(batch, train, rng), train, rng);
}

Variable SequencePairClassifier::LogitsFromHidden(const Variable& hidden,
                                                  const Tensor& mask,
                                                  int64_t split_layer,
                                                  bool train, Rng* rng) {
  return Head(backbone_->EncodeFromLayer(hidden, mask, split_layer, train,
                                         rng, /*cls_only=*/true),
              train, rng);
}

Variable SequencePairClassifier::LogitsSplit(const Batch& batch,
                                             int64_t split_layer, bool train,
                                             Rng* rng) {
  return Head(backbone_->EncodeBatchSegmentLocal(batch, split_layer, train,
                                                 rng, /*cls_only=*/true),
              train, rng);
}

Variable SequencePairClassifier::Head(const Variable& hidden, bool train,
                                      Rng* rng) {
  Variable pooled = backbone_->PooledOutput(hidden, train, rng);
  Variable h = ag::Tanh(dense_.Forward(pooled));
  h = ag::Dropout(h, backbone_->config().dropout, train, rng);
  return out_.Forward(h);
}

std::vector<int64_t> SequencePairClassifier::Predict(const Batch& batch,
                                                     Rng* rng) {
  NoGradGuard no_grad;  // prediction never back-propagates
  Variable logits = Logits(batch, /*train=*/false, rng);
  return ops::ArgMaxLastAxis(logits.value());
}

void SequencePairClassifier::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParam>* out) {
  backbone_->CollectParameters(nn::JoinName(prefix, "backbone"), out);
  dense_.CollectParameters(nn::JoinName(prefix, "cls_dense"), out);
  out_.CollectParameters(nn::JoinName(prefix, "cls_out"), out);
}

void SequencePairClassifier::CollectQuantTargets(const std::string& prefix,
                                                 nn::QuantTargets* out) {
  backbone_->CollectQuantTargets(nn::JoinName(prefix, "backbone"), out);
  // The head (cls_dense + out_) stays fp32. Both run once per PAIR — a few
  // thousand MACs against the backbone's per-TOKEN millions — so quantizing
  // them buys no measurable throughput, while their error lands directly on
  // the logits where a fraction of a step flips borderline matches.
}

}  // namespace models
}  // namespace emx
