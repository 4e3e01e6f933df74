#ifndef EMX_PRETRAIN_MODEL_ZOO_H_
#define EMX_PRETRAIN_MODEL_ZOO_H_

#include <memory>
#include <string>

#include "models/config.h"
#include "models/transformer.h"
#include "pretrain/corpus.h"
#include "pretrain/pretrainer.h"
#include "tokenizers/tokenizer.h"
#include "util/status.h"

namespace emx {
namespace pretrain {

/// A ready-to-fine-tune pre-trained model with its matching tokenizer —
/// the analog of downloading a checkpoint from the Hugging Face hub
/// (paper Section 5.2.4), except the checkpoint is pre-trained by this
/// library and cached on disk.
struct PretrainedBundle {
  std::unique_ptr<models::TransformerModel> model;
  std::unique_ptr<tokenizers::Tokenizer> tokenizer;
};

/// Options controlling the zoo: corpus, vocabulary size, pre-training
/// schedule, and the on-disk cache location.
struct ZooOptions {
  std::string cache_dir = "/tmp/emx_zoo";
  int64_t vocab_size = 2000;
  CorpusOptions corpus;
  PretrainOptions pretrain;
  /// Skip the cache and re-train (ablations).
  bool force_retrain = false;
  /// Skip pre-training entirely: random weights (the "no pre-training"
  /// ablation arm).
  bool skip_pretraining = false;
};

/// Returns a pre-trained transformer of the given architecture, training
/// (and caching) the tokenizer and model on first use. DistilBERT
/// transitively materializes its BERT teacher.
Result<PretrainedBundle> GetPretrained(models::Architecture arch,
                                       const ZooOptions& options);

/// The cache file GetPretrained keeps the `arch` model in, for a model of
/// shape `config` pre-trained under `options`. The name covers the
/// tokenizer and corpus (vocabulary size, document count, corpus seed) and
/// every pre-training option that changes the weights — the model shape,
/// steps, batch size, learning rate, warm-up, LM data options, distillation
/// weights, pair-task weight and seed — so changing any of them trains a
/// new checkpoint rather than loading one made under other options.
std::string PretrainedModelPath(models::Architecture arch,
                                const ZooOptions& options,
                                const models::TransformerConfig& config);

/// Trains (or loads from cache) only the tokenizer for an architecture.
Result<std::unique_ptr<tokenizers::Tokenizer>> GetTokenizer(
    models::Architecture arch, const ZooOptions& options);

}  // namespace pretrain
}  // namespace emx

#endif  // EMX_PRETRAIN_MODEL_ZOO_H_
