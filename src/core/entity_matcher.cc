#include "core/entity_matcher.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/timer.h"

namespace emx {
namespace core {

namespace ag = autograd;

namespace {

/// L2 norm over every parameter gradient (the scalar every training run
/// should watch for divergence/vanishing). Called after Backward, before
/// the optimizer step.
double GradL2Norm(const std::vector<nn::NamedParam>& params) {
  double sum_sq = 0;
  for (const auto& p : params) {
    if (!p.var.requires_grad()) continue;
    const Tensor& g = p.var.grad();
    const float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) {
      sum_sq += static_cast<double>(pg[i]) * static_cast<double>(pg[i]);
    }
  }
  return std::sqrt(sum_sq);
}

}  // namespace

EntityMatcher::EntityMatcher(pretrain::PretrainedBundle bundle,
                             uint64_t head_seed)
    : tokenizer_(std::move(bundle.tokenizer)), rng_(head_seed) {
  Rng head_rng(head_seed);
  classifier_ = std::make_unique<models::SequencePairClassifier>(
      std::move(bundle.model), &head_rng);
}

models::Batch EntityMatcher::BuildBatch(const std::vector<std::string>& texts_a,
                                        const std::vector<std::string>& texts_b,
                                        int64_t max_seq_len) const {
  EMX_CHECK_EQ(texts_a.size(), texts_b.size());
  const int64_t b = static_cast<int64_t>(texts_a.size());
  models::Batch batch;
  batch.batch_size = b;
  batch.seq_len = max_seq_len;
  std::vector<float> pad_flags;
  pad_flags.reserve(static_cast<size_t>(b * max_seq_len));
  for (int64_t i = 0; i < b; ++i) {
    tokenizers::EncodedPair enc = tokenizer_->EncodePair(
        texts_a[static_cast<size_t>(i)], texts_b[static_cast<size_t>(i)],
        max_seq_len);
    batch.ids.insert(batch.ids.end(), enc.ids.begin(), enc.ids.end());
    batch.segment_ids.insert(batch.segment_ids.end(), enc.segment_ids.begin(),
                             enc.segment_ids.end());
    pad_flags.insert(pad_flags.end(), enc.attention_mask.begin(),
                     enc.attention_mask.end());
  }
  batch.attention_mask = models::Batch::MakeMask(pad_flags, b, max_seq_len);
  return batch;
}

std::vector<EpochRecord> EntityMatcher::FineTune(const data::EmDataset& dataset,
                                                 const FineTuneOptions& options,
                                                 bool eval_each_epoch) {
  eval_max_seq_len_ = options.max_seq_len;
  rng_.Seed(options.seed);
  if (options.dropout >= 0.0f) {
    classifier_->backbone()->set_dropout(options.dropout);
  }

  nn::AdamOptions adam_opts;
  adam_opts.lr = options.learning_rate;
  nn::Adam adam(classifier_->Parameters(), adam_opts);

  // Computed after the (possibly oversampled) order is built, below.
  int64_t steps_per_epoch = 0;
  std::vector<EpochRecord> series;
  if (eval_each_epoch) {
    // Epoch 0: zero-shot performance of the pre-trained model + untrained
    // head (the paper's "before fine tuning" data point).
    EpochRecord zero;
    zero.epoch = 0;
    zero.test_f1 = Evaluate(dataset, dataset.test).f1;
    series.push_back(zero);
  }

  // Epoch ordering; with balance_classes each positive pair appears
  // ~neg/pos times per epoch so the loss is not dominated by the majority
  // class (equivalent to DeepMatcher's positive-class weighting).
  std::vector<size_t> order;
  {
    size_t positives = 0;
    for (const auto& p : dataset.train) positives += p.label == 1 ? 1 : 0;
    const size_t negatives = dataset.train.size() - positives;
    const size_t repeat =
        options.balance_classes && positives > 0
            ? std::max<size_t>(1, (negatives + positives / 2) / positives)
            : 1;
    for (size_t i = 0; i < dataset.train.size(); ++i) {
      const size_t copies = dataset.train[i].label == 1 ? repeat : 1;
      for (size_t c2 = 0; c2 < copies; ++c2) order.push_back(i);
    }
  }

  steps_per_epoch = std::max<int64_t>(
      1, (static_cast<int64_t>(order.size()) + options.batch_size - 1) /
             options.batch_size);
  const int64_t total_steps = steps_per_epoch * options.epochs;
  nn::LinearWarmupSchedule schedule(
      options.learning_rate,
      std::max<int64_t>(
          1, static_cast<int64_t>(total_steps * options.warmup_fraction)),
      total_steps);

  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  obs::Gauge* loss_gauge = registry->GetGauge("train.loss");
  obs::Gauge* tps_gauge = registry->GetGauge("train.tokens_per_sec");
  obs::Gauge* grad_norm_gauge = registry->GetGauge("train.grad_norm");
  obs::Gauge* lr_gauge = registry->GetGauge("train.learning_rate");
  obs::Counter* epochs_counter = registry->GetCounter("train.epochs");

  int64_t step = 0;
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    EpochRecord rec;
    rec.epoch = epoch + 1;
    Timer epoch_timer;
    rng_.Shuffle(&order);
    double epoch_loss = 0;
    int64_t batches = 0;
    {
      EMX_TRACE_SPAN("train.epoch", [&] {
        return obs::KeyValues(
            {{"epoch", epoch + 1},
             {"pairs", static_cast<int64_t>(order.size())}});
      });
      for (size_t start = 0; start < order.size();
           start += static_cast<size_t>(options.batch_size)) {
        const size_t end = std::min(
            order.size(), start + static_cast<size_t>(options.batch_size));
        const bool last_batch =
            end >= order.size();
        models::Batch batch;
        std::vector<int64_t> labels;
        {
          EMX_TRACE_SPAN("train.tokenize");
          Timer t;
          std::vector<std::string> texts_a, texts_b;
          for (size_t k = start; k < end; ++k) {
            const auto& pair = dataset.train[order[k]];
            texts_a.push_back(dataset.SerializeA(pair));
            texts_b.push_back(dataset.SerializeB(pair));
            labels.push_back(pair.label);
          }
          batch = BuildBatch(texts_a, texts_b, options.max_seq_len);
          rec.tokenize_seconds += t.ElapsedSeconds();
        }
        adam.ZeroGrad();
        Variable loss;
        {
          EMX_TRACE_SPAN("train.forward");
          Timer t;
          Variable logits = classifier_->Logits(batch, /*train=*/true, &rng_);
          loss = ag::CrossEntropy(logits, labels);
          rec.forward_seconds += t.ElapsedSeconds();
        }
        epoch_loss += loss.value()[0];
        ++batches;
        {
          EMX_TRACE_SPAN("train.backward");
          Timer t;
          Backward(loss);
          rec.backward_seconds += t.ElapsedSeconds();
        }
        if (last_batch) {
          rec.grad_norm = GradL2Norm(classifier_->Parameters());
        }
        {
          EMX_TRACE_SPAN("train.optimizer");
          Timer t;
          rec.learning_rate = schedule.LearningRate(step);
          adam.Step(schedule.LearningRate(step++));
          rec.optimizer_seconds += t.ElapsedSeconds();
        }
      }
    }
    const double train_seconds = epoch_timer.ElapsedSeconds();

    rec.train_loss = epoch_loss / std::max<int64_t>(1, batches);
    rec.seconds = train_seconds;
    const double tokens = static_cast<double>(order.size()) *
                          static_cast<double>(options.max_seq_len);
    rec.tokens_per_sec = train_seconds > 0 ? tokens / train_seconds : 0;

    epochs_counter->Add(1);
    loss_gauge->Set(rec.train_loss);
    tps_gauge->Set(rec.tokens_per_sec);
    grad_norm_gauge->Set(rec.grad_norm);
    lr_gauge->Set(rec.learning_rate);
    const TensorMemStats mem = GetTensorMemStats();
    registry->GetGauge("tensor.live_bytes")
        ->Set(static_cast<double>(mem.live_bytes));
    registry->GetGauge("tensor.peak_bytes")
        ->Set(static_cast<double>(mem.peak_bytes));

    if (eval_each_epoch || epoch + 1 == options.epochs) {
      EMX_TRACE_SPAN("train.eval");
      Timer t;
      rec.test_f1 = Evaluate(dataset, dataset.test).f1;
      rec.eval_seconds = t.ElapsedSeconds();
      series.push_back(rec);
    }
  }
  return series;
}

std::vector<int64_t> EntityMatcher::Predict(
    const data::EmDataset& dataset,
    const std::vector<data::RecordPair>& pairs) {
  // Evaluation never back-propagates: skip the tape so the Table 5 /
  // Figures 10-14 benches stop paying the autograd tax.
  NoGradGuard no_grad;
  std::vector<int64_t> preds;
  preds.reserve(pairs.size());
  constexpr int64_t kEvalBatch = 32;
  for (size_t start = 0; start < pairs.size();
       start += static_cast<size_t>(kEvalBatch)) {
    const size_t end =
        std::min(pairs.size(), start + static_cast<size_t>(kEvalBatch));
    std::vector<std::string> texts_a, texts_b;
    for (size_t k = start; k < end; ++k) {
      texts_a.push_back(dataset.SerializeA(pairs[k]));
      texts_b.push_back(dataset.SerializeB(pairs[k]));
    }
    models::Batch batch = BuildBatch(texts_a, texts_b, eval_max_seq_len_);
    for (int64_t p : classifier_->Predict(batch, &rng_)) preds.push_back(p);
  }
  return preds;
}

eval::PrfScores EntityMatcher::Evaluate(
    const data::EmDataset& dataset,
    const std::vector<data::RecordPair>& pairs) {
  std::vector<int64_t> labels;
  labels.reserve(pairs.size());
  for (const auto& p : pairs) labels.push_back(p.label);
  return eval::ComputeScores(Predict(dataset, pairs), labels);
}

double EntityMatcher::MatchProbability(std::string_view text_a,
                                       std::string_view text_b) {
  return MatchProbabilities({std::string(text_a)}, {std::string(text_b)})[0];
}

std::vector<double> EntityMatcher::MatchProbabilities(
    const std::vector<std::string>& texts_a,
    const std::vector<std::string>& texts_b) {
  EMX_CHECK_EQ(texts_a.size(), texts_b.size());
  NoGradGuard no_grad;
  std::vector<double> out;
  out.reserve(texts_a.size());
  constexpr int64_t kEvalBatch = 32;
  for (size_t start = 0; start < texts_a.size();
       start += static_cast<size_t>(kEvalBatch)) {
    const size_t end =
        std::min(texts_a.size(), start + static_cast<size_t>(kEvalBatch));
    std::vector<std::string> slice_a(texts_a.begin() + start,
                                     texts_a.begin() + end);
    std::vector<std::string> slice_b(texts_b.begin() + start,
                                     texts_b.begin() + end);
    models::Batch batch = BuildBatch(slice_a, slice_b, eval_max_seq_len_);
    Variable logits = classifier_->Logits(batch, /*train=*/false, &rng_);
    Tensor probs = ops::Softmax(logits.value());
    for (size_t i = 0; i < end - start; ++i) {
      out.push_back(probs[static_cast<int64_t>(i) * 2 + 1]);
    }
  }
  return out;
}

bool EntityMatcher::Match(std::string_view text_a, std::string_view text_b) {
  return MatchProbability(text_a, text_b) >= 0.5;
}

Status EntityMatcher::Save(const std::string& path) {
  return Save(path, [](io::EmxmWriter*) { return Status::OK(); });
}

Status EntityMatcher::Save(
    const std::string& path,
    const std::function<Status(io::EmxmWriter*)>& add_sections) {
  io::EmxmWriter writer;
  const std::vector<nn::NamedParam> params = classifier_->Parameters();
  EMX_RETURN_IF_ERROR(nn::AppendParametersEmxm(&writer, params));
  EMX_RETURN_IF_ERROR(add_sections(&writer));
  std::array<uint64_t, 6> aux{};
  aux[0] = params.size();
  aux[1] = writer.count(io::SectionKind::kInt8Packed);
  aux[2] = writer.count(io::SectionKind::kFfnMeta);
  const std::string arch = arch_name();
  writer.AddSection(io::kManifestSection, io::SectionKind::kManifest, aux,
                    arch.data(), arch.size());
  return writer.WriteFile(path);
}

Status EntityMatcher::Load(const std::string& path) {
  return nn::LoadParameters(path, classifier_->Parameters());
}

}  // namespace core
}  // namespace emx
