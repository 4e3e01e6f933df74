#ifndef EMX_MODELS_CLASSIFIER_H_
#define EMX_MODELS_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "models/config.h"
#include "models/transformer.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace emx {
namespace models {

/// The paper's entity-matching head (Section 5.2.2): the transformer's
/// CLS representation is fed through "a fully connected layer with 768
/// neurons plus two output neurons" — here hidden-sized — producing the
/// match / no-match logits. The head is the only part of the model that is
/// not pre-trained.
class SequencePairClassifier : public nn::Module {
 public:
  /// Takes ownership of the (typically pre-trained) backbone.
  SequencePairClassifier(std::unique_ptr<TransformerModel> backbone, Rng* rng);

  /// Match logits [B, 2] for a tokenized entity-pair batch. All three
  /// entry points run the last encoder layer for the CLS row only (see
  /// TransformerModel::EncodeCls); the logits equal those pooled from the
  /// full [B, T, H] states bit for bit in inference.
  Variable Logits(const Batch& batch, bool train, Rng* rng);

  /// Match logits [B, 2] resuming from layer-`split_layer` hidden states
  /// [B, T, H] (per-entity prefixes concatenated by the serving engine's
  /// activation cache). Runs layers [split_layer, L), pooling, and the
  /// head. Requires backbone()->SupportsSplitEncode().
  Variable LogitsFromHidden(const Variable& hidden, const Tensor& mask,
                            int64_t split_layer, bool train, Rng* rng);

  /// Match logits [B, 2] with the split-encoder reference semantics:
  /// layers [0, split_layer) run segment-locally (see
  /// TransformerModel::EncodeBatchSegmentLocal). Equals Logits exactly at
  /// split_layer = 0; used for ΔF1 ladders and cache golden tests.
  Variable LogitsSplit(const Batch& batch, int64_t split_layer, bool train,
                       Rng* rng);

  /// Predicted class (0 = no match, 1 = match) per pair.
  std::vector<int64_t> Predict(const Batch& batch, Rng* rng);

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParam>* out) override;
  void CollectQuantTargets(const std::string& prefix,
                           nn::QuantTargets* out) override;

  TransformerModel* backbone() { return backbone_.get(); }
  const TransformerConfig& config() const { return backbone_->config(); }
  /// Head layers (exposed for the warm-start tests).
  const nn::Linear& dense_layer() const { return dense_; }
  const nn::Linear& out_layer() const { return out_; }

 private:
  /// Pooling, dense + tanh, dropout and the output layer over final hidden
  /// states whose row 0 is the CLS position.
  Variable Head(const Variable& hidden, bool train, Rng* rng);

  std::unique_ptr<TransformerModel> backbone_;
  nn::Linear dense_;
  nn::Linear out_;
};

}  // namespace models
}  // namespace emx

#endif  // EMX_MODELS_CLASSIFIER_H_
