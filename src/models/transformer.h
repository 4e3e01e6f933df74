#ifndef EMX_MODELS_TRANSFORMER_H_
#define EMX_MODELS_TRANSFORMER_H_

#include <memory>

#include "models/config.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace emx {
namespace models {

/// Interface every transformer backbone in this library implements. The
/// fine-tuning classifier and the pre-training drivers only depend on this.
class TransformerModel : public nn::Module {
 public:
  ~TransformerModel() override = default;

  /// Runs the encoder and returns the final hidden states [B, T, H].
  virtual Variable EncodeBatch(const Batch& batch, bool train, Rng* rng) = 0;

  /// The final hidden states SequencePairClassifier pools from. Only the
  /// CLS position is read, so the BERT family runs its last layer for that
  /// row alone and returns [B, 1, H]. The default returns EncodeBatch's
  /// [B, T, H]: XLNet's RelativeShift assumes as many query rows as keys.
  virtual Variable EncodeCls(const Batch& batch, bool train, Rng* rng);

  /// A sequence-level representation for classification: the hidden state
  /// at the CLS position, optionally passed through the model's pooler.
  virtual Variable PooledOutput(const Variable& hidden, bool train,
                                Rng* rng) = 0;

  /// Token-level vocabulary logits for masked-LM style objectives,
  /// flattened to [B*T, V].
  virtual Variable MlmLogits(const Variable& hidden, bool train, Rng* rng) = 0;

  /// Copy-discrimination logits [B, 2] from the pooled output — the
  /// auxiliary pre-training head that builds cross-segment comparison
  /// circuits at this reproduction's scale (see DESIGN.md). Not used at
  /// fine-tuning time (the EM head is trained fresh).
  virtual Variable PairLogits(const Variable& pooled, bool train, Rng* rng) = 0;

  /// The pre-trained copy-discrimination head (null if the architecture
  /// has none). The fine-tuning classifier warm-starts from it.
  virtual const nn::Linear* pair_head() const = 0;

  virtual const TransformerConfig& config() const = 0;

  /// Adjusts the dropout probability (fine-tuning may use a different rate
  /// than pre-training).
  virtual void set_dropout(float p) = 0;

  /// True when the backbone implements the split-encoder entry points
  /// below (per-segment prefix encoding + resume-from-layer-k). The
  /// serving engine's activation cache requires this; XLNet's two-stream
  /// relative attention does not decompose this way and reports false.
  virtual bool SupportsSplitEncode() const { return false; }

  /// Runs embeddings (with token positions starting at `position_offset`)
  /// plus encoder layers [0, split_layer) over a single-entity segment
  /// batch. The batch carries one segment per row — no cross-segment
  /// attention is possible, which is what makes the result cacheable per
  /// entity. Inference-only (no dropout). Default aborts; gate on
  /// SupportsSplitEncode().
  virtual Variable EncodeSegmentPrefix(const Batch& batch, int64_t split_layer,
                                       int64_t position_offset, Rng* rng);

  /// Resumes a forward pass at layer `split_layer`: runs layers
  /// [split_layer, L) over `hidden` [B, T, H] with the given pad mask,
  /// producing the same final hidden states EncodeBatch would from that
  /// point. With `cls_only` the last layer takes only the CLS row as its
  /// query (as in EncodeCls), so a call that runs it returns [B, 1, H].
  /// Default aborts; gate on SupportsSplitEncode().
  virtual Variable EncodeFromLayer(const Variable& hidden, const Tensor& mask,
                                   int64_t split_layer, bool train, Rng* rng,
                                   bool cls_only);

  /// Reference semantics of the split path on a *pair* batch: layers
  /// [0, split_layer) run under a segment-local (block-diagonal) attention
  /// mask derived from batch.segment_ids, layers [split_layer, L) under the
  /// ordinary pad mask. Equals EncodeBatch exactly at split_layer = 0; used
  /// for ΔF1 evaluation and as the golden path for the serving cache tests.
  /// `cls_only` as for EncodeFromLayer. Default aborts; gate on
  /// SupportsSplitEncode().
  virtual Variable EncodeBatchSegmentLocal(const Batch& batch,
                                           int64_t split_layer, bool train,
                                           Rng* rng, bool cls_only);
};

/// Builds the architecture named by `config.arch` (factory used by the
/// EntityMatcher and the pre-trainer).
std::unique_ptr<TransformerModel> CreateTransformer(
    const TransformerConfig& config, Rng* rng);

}  // namespace models
}  // namespace emx

#endif  // EMX_MODELS_TRANSFORMER_H_
