#ifndef EMX_MODELS_ENCODER_H_
#define EMX_MODELS_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "models/config.h"
#include "models/transformer.h"
#include "nn/attention.h"
#include "nn/layers.h"

namespace emx {
namespace models {

/// The BERT-family encoder covering three of the paper's architectures:
///
/// - BERT: token + learned-position + segment embeddings, post-LN encoder
///   stack, CLS pooler (Linear+tanh), MLM and NSP heads.
/// - RoBERTa: identical body configured without segment embeddings and
///   without the NSP head (cfg.type_vocab_size = 0, cfg.use_nsp_head =
///   false); dynamic masking is a property of the pre-training driver.
/// - DistilBERT: half the layers, no segment embeddings, no pooler.
///
/// The architectural switches live in TransformerConfig so the paper's
/// "BERT and friends" really are one body with the documented deltas.
class EncoderModel : public TransformerModel {
 public:
  EncoderModel(const TransformerConfig& config, Rng* rng);

  Variable EncodeBatch(const Batch& batch, bool train, Rng* rng) override;
  Variable EncodeCls(const Batch& batch, bool train, Rng* rng) override;

  Variable PooledOutput(const Variable& hidden, bool train, Rng* rng) override;

  Variable MlmLogits(const Variable& hidden, bool train, Rng* rng) override;

  /// Next-sentence-prediction logits [B, 2] from the pooled output.
  /// Pre-condition: config().use_nsp_head.
  Variable NspLogits(const Variable& pooled, bool train, Rng* rng);

  Variable PairLogits(const Variable& pooled, bool train, Rng* rng) override;
  const nn::Linear* pair_head() const override { return &pair_head_; }

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParam>* out) override;
  void CollectQuantTargets(const std::string& prefix,
                           nn::QuantTargets* out) override;

  const TransformerConfig& config() const override { return config_; }
  void set_dropout(float p) override { config_.dropout = p; }

  /// Embedding sum (token [+ position] [+ segment]) then LN + dropout;
  /// exposed for the distillation trainer. `position_offset` shifts the
  /// learned position ids (row j embeds position `position_offset + j`) so
  /// a segment encoded in isolation lands on the same absolute positions it
  /// would occupy inside a concatenated pair.
  Variable Embed(const Batch& batch, bool train, Rng* rng,
                 int64_t position_offset = 0);

  /// Split-encoder entry points (see TransformerModel): embeddings are
  /// per-token and layers [0, k) see only same-segment keys, so per-entity
  /// prefixes computed here concatenate into exactly the hidden states the
  /// segment-local pair forward produces — and at k = 0 into the ordinary
  /// EncodeBatch states bit-for-bit.
  bool SupportsSplitEncode() const override { return true; }
  Variable EncodeSegmentPrefix(const Batch& batch, int64_t split_layer,
                               int64_t position_offset, Rng* rng) override;
  Variable EncodeFromLayer(const Variable& hidden, const Tensor& mask,
                           int64_t split_layer, bool train, Rng* rng,
                           bool cls_only) override;
  Variable EncodeBatchSegmentLocal(const Batch& batch, int64_t split_layer,
                                   bool train, Rng* rng,
                                   bool cls_only) override;

 private:
  /// Runs layers [begin, end) over `x` under `mask`. With `cls_only` the
  /// last layer (index L - 1) takes only the CLS row as its query and the
  /// matching row of the mask, and returns [B, 1, H].
  Variable RunLayers(Variable x, const Tensor& mask, int64_t begin,
                     int64_t end, bool cls_only, bool train, Rng* rng);

  TransformerConfig config_;
  nn::Embedding token_embeddings_;
  nn::Embedding position_embeddings_;
  std::unique_ptr<nn::Embedding> segment_embeddings_;  // null when disabled
  nn::LayerNorm embedding_ln_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> layers_;
  std::unique_ptr<nn::Linear> pooler_;  // null when disabled
  // MLM head: transform (Linear + activation + LN) then decode to vocab.
  nn::Linear mlm_transform_;
  nn::LayerNorm mlm_ln_;
  nn::Linear mlm_decoder_;
  std::unique_ptr<nn::Linear> nsp_head_;  // null when disabled
  nn::Linear pair_head_;
};

}  // namespace models
}  // namespace emx

#endif  // EMX_MODELS_ENCODER_H_
