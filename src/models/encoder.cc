#include "models/encoder.h"

#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace emx {
namespace models {

namespace ag = autograd;

EncoderModel::EncoderModel(const TransformerConfig& config, Rng* rng)
    : config_(config),
      token_embeddings_(config.vocab_size, config.hidden, rng,
                        config.InitStddev()),
      position_embeddings_(config.max_seq_len, config.hidden, rng,
                           config.InitStddev()),
      embedding_ln_(config.hidden),
      mlm_transform_(config.hidden, config.hidden, rng, config.InitStddev()),
      mlm_ln_(config.hidden),
      mlm_decoder_(config.hidden, config.vocab_size, rng, config.InitStddev()),
      pair_head_(config.hidden, 2, rng, config.InitStddev()) {
  if (config.type_vocab_size > 0) {
    segment_embeddings_ = std::make_unique<nn::Embedding>(
        config.type_vocab_size, config.hidden, rng, config.InitStddev());
  }
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        config.hidden, config.num_heads, config.intermediate, rng,
        config.activation, config.InitStddev()));
  }
  if (config.use_pooler) {
    pooler_ = std::make_unique<nn::Linear>(config.hidden, config.hidden, rng,
                                           config.InitStddev());
  }
  if (config.use_nsp_head) {
    nsp_head_ = std::make_unique<nn::Linear>(config.hidden, 2, rng,
                                             config.InitStddev());
  }
}

Variable EncoderModel::Embed(const Batch& batch, bool train, Rng* rng,
                             int64_t position_offset) {
  const int64_t b = batch.batch_size;
  const int64_t t = batch.seq_len;
  EMX_CHECK_GE(position_offset, 0);
  EMX_CHECK_LE(position_offset + t, config_.max_seq_len)
      << "sequence length exceeds max_seq_len";
  EMX_CHECK_EQ(static_cast<int64_t>(batch.ids.size()), b * t);

  Variable x = token_embeddings_.Forward(batch.ids, {b, t});

  std::vector<int64_t> positions(static_cast<size_t>(b * t));
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      positions[static_cast<size_t>(i * t + j)] = position_offset + j;
    }
  }
  x = ag::Add(x, position_embeddings_.Forward(positions, {b, t}));

  if (segment_embeddings_) {
    EMX_CHECK_EQ(static_cast<int64_t>(batch.segment_ids.size()), b * t);
    x = ag::Add(x, segment_embeddings_->Forward(batch.segment_ids, {b, t}));
  }
  x = embedding_ln_.Forward(x);
  return ag::Dropout(x, config_.dropout, train, rng);
}

Variable EncoderModel::RunLayers(Variable x, const Tensor& mask,
                                 int64_t begin, int64_t end, bool cls_only,
                                 bool train, Rng* rng) {
  for (int64_t i = begin; i < end; ++i) {
    Variable query = x;
    Tensor query_mask = mask;
    if (cls_only && i == config_.num_layers - 1) {
      const int64_t b = x.value().dim(0);
      query = ag::Reshape(ag::SelectTimeStep(x, 0), {b, 1, config_.hidden});
      if (mask.size() > 0 && mask.dim(2) > 1) {
        // A [B,1,T,T] segment-local mask: keep the CLS query's row.
        EMX_CHECK_EQ(mask.dim(1), 1);
        const int64_t t = mask.dim(3);
        query_mask = ops::SelectTimeStep(mask.Reshape({b, mask.dim(2), t}), 0)
                         .Reshape({b, 1, 1, t});
      }
    }
    x = layers_[static_cast<size_t>(i)]->Forward(query, x, query_mask,
                                                 config_.dropout, train, rng);
  }
  return x;
}

Variable EncoderModel::EncodeBatch(const Batch& batch, bool train, Rng* rng) {
  return RunLayers(Embed(batch, train, rng), batch.attention_mask, 0,
                   config_.num_layers, /*cls_only=*/false, train, rng);
}

Variable EncoderModel::EncodeCls(const Batch& batch, bool train, Rng* rng) {
  return RunLayers(Embed(batch, train, rng), batch.attention_mask, 0,
                   config_.num_layers, /*cls_only=*/true, train, rng);
}

Variable EncoderModel::EncodeSegmentPrefix(const Batch& batch,
                                           int64_t split_layer,
                                           int64_t position_offset, Rng* rng) {
  EMX_CHECK_GE(split_layer, 0);
  EMX_CHECK_LE(split_layer, config_.num_layers);
  // Inference-only: dropout off, so the cached prefix is deterministic.
  return RunLayers(Embed(batch, /*train=*/false, rng, position_offset),
                   batch.attention_mask, 0, split_layer, /*cls_only=*/false,
                   /*train=*/false, rng);
}

Variable EncoderModel::EncodeFromLayer(const Variable& hidden,
                                       const Tensor& mask, int64_t split_layer,
                                       bool train, Rng* rng, bool cls_only) {
  EMX_CHECK_GE(split_layer, 0);
  EMX_CHECK_LE(split_layer, config_.num_layers);
  return RunLayers(hidden, mask, split_layer, config_.num_layers, cls_only,
                   train, rng);
}

Variable EncoderModel::EncodeBatchSegmentLocal(const Batch& batch,
                                               int64_t split_layer, bool train,
                                               Rng* rng, bool cls_only) {
  EMX_CHECK_GE(split_layer, 0);
  EMX_CHECK_LE(split_layer, config_.num_layers);
  Variable x = Embed(batch, train, rng);
  if (split_layer > 0) {
    // The pad mask arrives as [B,1,1,T]; rebuild per-position flags from it
    // to form the block-diagonal segment-local mask.
    const int64_t b = batch.batch_size;
    const int64_t t = batch.seq_len;
    std::vector<float> pad(static_cast<size_t>(b * t), 0.0f);
    if (batch.attention_mask.size() > 0) {
      EMX_CHECK_EQ(batch.attention_mask.size(), b * t);
      std::copy(batch.attention_mask.data(),
                batch.attention_mask.data() + b * t, pad.begin());
    }
    Tensor local =
        Batch::MakeSegmentLocalMask(pad, batch.segment_ids, b, t);
    x = RunLayers(x, local, 0, split_layer, cls_only, train, rng);
  }
  return EncodeFromLayer(x, batch.attention_mask, split_layer, train, rng,
                         cls_only);
}

Variable EncoderModel::PooledOutput(const Variable& hidden, bool train,
                                    Rng* rng) {
  Variable cls = ag::SelectTimeStep(hidden, 0);
  if (!pooler_) return ag::Dropout(cls, config_.dropout, train, rng);
  Variable pooled = ag::Tanh(pooler_->Forward(cls));
  return ag::Dropout(pooled, config_.dropout, train, rng);
}

Variable EncoderModel::MlmLogits(const Variable& hidden, bool train, Rng* rng) {
  Variable flat = ag::Reshape(hidden, {-1, config_.hidden});
  Variable h = nn::ApplyActivation(mlm_transform_.Forward(flat),
                                   config_.activation);
  h = mlm_ln_.Forward(h);
  h = ag::Dropout(h, config_.dropout, train, rng);
  return mlm_decoder_.Forward(h);
}

Variable EncoderModel::PairLogits(const Variable& pooled, bool train,
                                  Rng* rng) {
  Variable h = ag::Dropout(pooled, config_.dropout, train, rng);
  return pair_head_.Forward(h);
}

Variable EncoderModel::NspLogits(const Variable& pooled, bool train, Rng* rng) {
  EMX_CHECK(nsp_head_ != nullptr) << "NSP head disabled for this config";
  Variable h = ag::Dropout(pooled, config_.dropout, train, rng);
  return nsp_head_->Forward(h);
}

void EncoderModel::CollectParameters(const std::string& prefix,
                                     std::vector<nn::NamedParam>* out) {
  token_embeddings_.CollectParameters(nn::JoinName(prefix, "tok_emb"), out);
  position_embeddings_.CollectParameters(nn::JoinName(prefix, "pos_emb"), out);
  if (segment_embeddings_) {
    segment_embeddings_->CollectParameters(nn::JoinName(prefix, "seg_emb"), out);
  }
  embedding_ln_.CollectParameters(nn::JoinName(prefix, "emb_ln"), out);
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->CollectParameters(
        nn::JoinName(prefix, "layer" + std::to_string(i)), out);
  }
  if (pooler_) pooler_->CollectParameters(nn::JoinName(prefix, "pooler"), out);
  mlm_transform_.CollectParameters(nn::JoinName(prefix, "mlm_transform"), out);
  mlm_ln_.CollectParameters(nn::JoinName(prefix, "mlm_ln"), out);
  mlm_decoder_.CollectParameters(nn::JoinName(prefix, "mlm_decoder"), out);
  if (nsp_head_) {
    nsp_head_->CollectParameters(nn::JoinName(prefix, "nsp_head"), out);
  }
  pair_head_.CollectParameters(nn::JoinName(prefix, "pair_head"), out);
}

void EncoderModel::CollectQuantTargets(const std::string& prefix,
                                       nn::QuantTargets* out) {
  // Only the encoder stack — the layers doing per-token work. The MLM / NSP
  // heads never run at match time, and the pooler (one CLS row per pair)
  // stays fp32 with the classifier head: quantizing it saves nothing
  // measurable but injects error right before the match decision.
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->CollectQuantTargets(
        nn::JoinName(prefix, "layer" + std::to_string(i)), out);
  }
}

}  // namespace models
}  // namespace emx
