#ifndef EMX_CORE_ENTITY_MATCHER_H_
#define EMX_CORE_ENTITY_MATCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/record.h"
#include "eval/metrics.h"
#include "io/emxm.h"
#include "models/classifier.h"
#include "pretrain/model_zoo.h"
#include "tokenizers/tokenizer.h"
#include "util/rng.h"
#include "util/status.h"

namespace emx {
namespace core {

/// Fine-tuning hyper-parameters (paper Section 5.2.2: Adam with a linear
/// learning-rate schedule, following BERT-style classification practice).
struct FineTuneOptions {
  int64_t epochs = 15;
  int64_t batch_size = 16;
  float learning_rate = 3e-4f;
  /// Warmup fraction of total steps for the linear schedule.
  double warmup_fraction = 0.1;
  /// Token budget per pair; the paper sizes this per dataset (128-265 for
  /// the originals; smaller here to match the scaled models).
  int64_t max_seq_len = 48;
  /// Dropout used during fine-tuning (the backbone keeps its own rate when
  /// negative).
  float dropout = 0.1f;
  /// Oversample positive pairs so each epoch is roughly class-balanced
  /// (EM datasets have 10-25% positives; DeepMatcher applies the same
  /// positive weighting). Disable to train on the raw distribution.
  bool balance_classes = true;
  uint64_t seed = 2020;
};

/// One row of a fine-tuning trajectory: the paper's Figures 10-14 plot
/// test_f1 against epoch; Table 6 reports seconds per epoch — here with an
/// attributed phase breakdown (tokenize/forward/backward/optimizer sum to
/// ~`seconds`; eval time is reported separately) plus the training-health
/// signals every run should log (tokens/sec, grad norm, LR).
struct EpochRecord {
  int64_t epoch = 0;  // 0 = zero-shot (before any fine-tuning)
  double train_loss = 0;
  double test_f1 = 0;
  double seconds = 0;

  /// Training tokens consumed per wall-clock second of the epoch.
  double tokens_per_sec = 0;
  /// L2 norm over all parameter gradients, sampled on the epoch's last
  /// batch (after Backward, before the optimizer step).
  double grad_norm = 0;
  /// Learning rate of the epoch's last step.
  double learning_rate = 0;

  /// Phase attribution of `seconds` (Table 6 with a breakdown).
  double tokenize_seconds = 0;
  double forward_seconds = 0;
  double backward_seconds = 0;
  double optimizer_seconds = 0;
  /// Test-set evaluation (outside `seconds`; only when evaluated).
  double eval_seconds = 0;
};

/// The library's primary public API: transformer-based entity matching as
/// in the paper. Wraps a pre-trained backbone + matching tokenizer + the
/// classification head, and exposes fine-tuning on an EmDataset, paired
/// prediction, and single-pair matching.
///
///   auto bundle = pretrain::GetPretrained(Architecture::kRoberta, zoo);
///   EntityMatcher matcher(std::move(bundle.value()));
///   matcher.FineTune(dataset, options);
///   bool same = matcher.Match("iphone xs 64gb silver",
///                             "apple iphone xs (64 gb, silver)");
class EntityMatcher {
 public:
  /// Takes ownership of a pre-trained bundle from the model zoo.
  explicit EntityMatcher(pretrain::PretrainedBundle bundle,
                         uint64_t head_seed = 99);

  /// Fine-tunes on dataset.train. When `eval_each_epoch` is set, the
  /// returned series contains one record per epoch including the epoch-0
  /// zero-shot score (the paper's figure format); otherwise only the final
  /// epoch is recorded.
  std::vector<EpochRecord> FineTune(const data::EmDataset& dataset,
                                    const FineTuneOptions& options,
                                    bool eval_each_epoch = false);

  /// Predicted labels for arbitrary pairs of the dataset's schema.
  std::vector<int64_t> Predict(const data::EmDataset& dataset,
                               const std::vector<data::RecordPair>& pairs);

  /// Precision/recall/F1 on a split.
  eval::PrfScores Evaluate(const data::EmDataset& dataset,
                           const std::vector<data::RecordPair>& pairs);

  /// Match decision for two free-text entity descriptions.
  bool Match(std::string_view text_a, std::string_view text_b);
  /// P(match) for two free-text entity descriptions.
  double MatchProbability(std::string_view text_a, std::string_view text_b);
  /// P(match) for a batch of free-text pairs, one grad-free forward per
  /// internal slice — the bulk path the serving engine and the evaluation
  /// benches share.
  std::vector<double> MatchProbabilities(
      const std::vector<std::string>& texts_a,
      const std::vector<std::string>& texts_b);

  models::Architecture arch() const {
    return classifier_->config().arch;
  }
  const char* arch_name() const {
    return models::ArchitectureName(arch());
  }
  const tokenizers::Tokenizer& tokenizer() const { return *tokenizer_; }
  models::SequencePairClassifier* classifier() { return classifier_.get(); }

  /// Token budget used by the prediction paths (FineTune overwrites it with
  /// the fine-tuning budget; serving engines may pin their own).
  int64_t eval_max_seq_len() const { return eval_max_seq_len_; }
  void set_eval_max_seq_len(int64_t n) { eval_max_seq_len_ = n; }

  /// Writes the model file: one EMXM1 container with every weight
  /// (backbone + head) as an fp32 section and a manifest naming the
  /// architecture. It loads back owned (Load) or mapped
  /// (quant::LoadModelFileMapped).
  Status Save(const std::string& path);
  /// Save with `add_sections` run between the fp32 sections and the
  /// manifest, which counts the int8 sections it added — how
  /// quant::SaveModelFile writes a quantized matcher. Payloads it adds
  /// are borrowed until this returns.
  Status Save(const std::string& path,
              const std::function<Status(io::EmxmWriter*)>& add_sections);
  /// Copies every weight out of a model file (or any container with the
  /// same "p:" sections) into heap tensors, so the matcher stays
  /// trainable. int8 sections are ignored.
  Status Load(const std::string& path);

  /// Builds a model batch from serialized text pairs (exposed for tests).
  models::Batch BuildBatch(const std::vector<std::string>& texts_a,
                           const std::vector<std::string>& texts_b,
                           int64_t max_seq_len) const;

 private:
  std::unique_ptr<tokenizers::Tokenizer> tokenizer_;
  std::unique_ptr<models::SequencePairClassifier> classifier_;
  int64_t eval_max_seq_len_ = 48;
  Rng rng_;
};

}  // namespace core
}  // namespace emx

#endif  // EMX_CORE_ENTITY_MATCHER_H_
