#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "io/emxm.h"
#include "models/encoder.h"
#include "models/transformer.h"
#include "pretrain/corpus.h"
#include "pretrain/lm_data.h"
#include "pretrain/model_zoo.h"
#include "pretrain/pretrainer.h"
#include "tensor/tensor_ops.h"
#include "tokenizers/wordpiece.h"

namespace emx {
namespace pretrain {
namespace {

// Shared tiny fixtures so corpus/tokenizer are built once.
class PretrainFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CorpusOptions copts;
    copts.num_documents = 120;
    copts.seed = 11;
    corpus_ = new std::vector<std::vector<std::string>>(GenerateCorpus(copts));
    tokenizers::WordPieceTrainerOptions topts;
    topts.vocab_size = 400;
    topts.min_frequency = 1;
    tokenizer_ = new tokenizers::WordPieceTokenizer(
        tokenizers::WordPieceTokenizer::Train(FlattenCorpus(*corpus_), topts));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete tokenizer_;
    corpus_ = nullptr;
    tokenizer_ = nullptr;
  }

  static models::TransformerConfig TinyConfig(models::Architecture arch) {
    models::TransformerConfig cfg =
        models::TransformerConfig::Scaled(arch, tokenizer_->vocab_size());
    cfg.hidden = 32;
    cfg.num_layers = 2;
    cfg.num_heads = 2;
    cfg.intermediate = 64;
    cfg.max_seq_len = 32;
    if (arch == models::Architecture::kDistilBert) cfg.num_layers = 1;
    return cfg;
  }

  static std::vector<std::vector<std::string>>* corpus_;
  static tokenizers::WordPieceTokenizer* tokenizer_;
};

std::vector<std::vector<std::string>>* PretrainFixture::corpus_ = nullptr;
tokenizers::WordPieceTokenizer* PretrainFixture::tokenizer_ = nullptr;

// ---- Corpus ----------------------------------------------------------

TEST_F(PretrainFixture, CorpusShape) {
  EXPECT_EQ(corpus_->size(), 120u);
  for (const auto& doc : *corpus_) {
    EXPECT_GE(doc.size(), 3u);
    for (const auto& s : doc) EXPECT_FALSE(s.empty());
  }
}

TEST_F(PretrainFixture, CorpusDeterministic) {
  CorpusOptions copts;
  copts.num_documents = 10;
  copts.seed = 42;
  auto a = GenerateCorpus(copts);
  auto b = GenerateCorpus(copts);
  EXPECT_EQ(a, b);
  copts.seed = 43;
  auto c = GenerateCorpus(copts);
  EXPECT_NE(a, c);
}

TEST_F(PretrainFixture, CorpusCoversAllThreeDomains) {
  // Product, music, and citation vocabulary must all appear.
  std::string all;
  for (const auto& doc : FlattenCorpus(*corpus_)) all += doc + " ";
  EXPECT_NE(all.find("storage"), std::string::npos);     // products
  EXPECT_NE(all.find("album"), std::string::npos);       // music
  EXPECT_NE(all.find("proceedings"), std::string::npos); // citations
}

// ---- MLM batches -----------------------------------------------------------

TEST_F(PretrainFixture, MlmBatchLayout) {
  LmDataOptions opts;
  opts.max_seq_len = 24;
  LmBatchBuilder builder(tokenizer_, *corpus_, opts);
  LmBatch b = builder.NextMlmBatch(4, /*use_nsp=*/true, /*dynamic=*/false);
  EXPECT_EQ(b.batch.batch_size, 4);
  EXPECT_EQ(b.batch.seq_len, 24);
  EXPECT_EQ(b.batch.ids.size(), 96u);
  EXPECT_EQ(b.lm_labels.size(), 96u);
  EXPECT_EQ(b.nsp_labels.size(), 4u);
  EXPECT_EQ(b.batch.attention_mask.shape(), (Shape{4, 1, 1, 24}));
  // Every row starts with CLS.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.batch.ids[static_cast<size_t>(i * 24)],
              tokenizer_->specials().cls);
  }
}

TEST_F(PretrainFixture, MlmMaskingRateApproximatelyCorrect) {
  LmDataOptions opts;
  opts.max_seq_len = 32;
  LmBatchBuilder builder(tokenizer_, *corpus_, opts);
  int64_t masked = 0, total_real = 0, mask_tokens = 0;
  for (int i = 0; i < 40; ++i) {
    LmBatch b = builder.NextMlmBatch(8, false, false);
    for (size_t k = 0; k < b.lm_labels.size(); ++k) {
      if (b.batch.ids[k] != tokenizer_->specials().pad) ++total_real;
      if (b.lm_labels[k] != -100) {
        ++masked;
        if (b.batch.ids[k] == tokenizer_->specials().mask) ++mask_tokens;
      }
    }
  }
  const double rate = static_cast<double>(masked) / total_real;
  EXPECT_GT(rate, 0.08);
  EXPECT_LT(rate, 0.22);
  // ~80% of selected positions carry the [MASK] symbol.
  const double mask_frac = static_cast<double>(mask_tokens) / masked;
  EXPECT_GT(mask_frac, 0.7);
  EXPECT_LT(mask_frac, 0.9);
}

TEST_F(PretrainFixture, MlmLabelsMatchOriginalTokens) {
  LmDataOptions opts;
  opts.max_seq_len = 24;
  LmBatchBuilder builder(tokenizer_, *corpus_, opts);
  LmBatch b = builder.NextMlmBatch(8, false, false);
  for (size_t k = 0; k < b.lm_labels.size(); ++k) {
    if (b.lm_labels[k] != -100) {
      EXPECT_GE(b.lm_labels[k], 0);
      EXPECT_LT(b.lm_labels[k], tokenizer_->vocab_size());
      // Special tokens are never prediction targets.
      EXPECT_NE(b.lm_labels[k], tokenizer_->specials().cls);
      EXPECT_NE(b.lm_labels[k], tokenizer_->specials().sep);
    }
  }
}

TEST_F(PretrainFixture, NspLabelsRoughlyBalanced) {
  LmDataOptions opts;
  LmBatchBuilder builder(tokenizer_, *corpus_, opts);
  int64_t positives = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    LmBatch b = builder.NextMlmBatch(8, true, false);
    for (int64_t l : b.nsp_labels) {
      positives += l;
      ++total;
    }
  }
  const double rate = static_cast<double>(positives) / total;
  EXPECT_GT(rate, 0.35);
  EXPECT_LT(rate, 0.65);
}

// ---- PLM batches ---------------------------------------------------------------

TEST_F(PretrainFixture, PlmBatchMasksAreConsistentWithOrder) {
  LmDataOptions opts;
  opts.max_seq_len = 20;
  LmBatchBuilder builder(tokenizer_, *corpus_, opts);
  LmBatch b = builder.NextPlmBatch(2);
  EXPECT_EQ(b.content_mask.shape(), (Shape{2, 1, 20, 20}));
  EXPECT_EQ(b.query_mask.shape(), (Shape{2, 1, 20, 20}));
  int64_t targets = 0;
  for (int64_t l : b.lm_labels) {
    if (l != -100) ++targets;
  }
  EXPECT_GT(targets, 0);

  for (int64_t e = 0; e < 2; ++e) {
    for (int64_t i = 0; i < 20; ++i) {
      for (int64_t j = 0; j < 20; ++j) {
        const float c = b.content_mask.At({e, 0, i, j});
        const float q = b.query_mask.At({e, 0, i, j});
        // Query mask is strictly more restrictive than content mask.
        if (c == 1.0f) EXPECT_EQ(q, 1.0f);
        // Content stream always sees itself (real positions).
        if (i == j && b.batch.ids[static_cast<size_t>(e * 20 + i)] !=
                          tokenizer_->specials().pad) {
          EXPECT_EQ(c, 0.0f);
          EXPECT_EQ(q, 1.0f);  // query never sees its own content
        }
      }
    }
  }
}

TEST_F(PretrainFixture, PlmInputsAreNotCorrupted) {
  // Unlike MLM, PLM feeds the original tokens (no [MASK] symbols) —
  // the pretrain-finetune discrepancy XLNet eliminates.
  LmDataOptions opts;
  opts.max_seq_len = 24;
  LmBatchBuilder builder(tokenizer_, *corpus_, opts);
  LmBatch b = builder.NextPlmBatch(4);
  for (int64_t id : b.batch.ids) {
    EXPECT_NE(id, tokenizer_->specials().mask);
  }
}

// ---- Copy-discrimination pair batches ------------------------------------------

TEST_F(PretrainFixture, PairBatchLayoutAndLabels) {
  LmDataOptions opts;
  opts.max_seq_len = 28;
  LmBatchBuilder builder(tokenizer_, *corpus_, opts);
  int64_t pos = 0, total = 0;
  for (int i = 0; i < 20; ++i) {
    LmBatch b = builder.NextPairBatch(8);
    EXPECT_EQ(b.batch.ids.size(), 8u * 28u);
    EXPECT_EQ(b.nsp_labels.size(), 8u);
    for (int64_t l : b.nsp_labels) {
      EXPECT_TRUE(l == 0 || l == 1);
      pos += l;
      ++total;
    }
    // No LM targets in a pair batch.
    for (int64_t l : b.lm_labels) EXPECT_EQ(l, -100);
    // Segments: 0 then 1.
    for (int e = 0; e < 8; ++e) {
      EXPECT_EQ(b.batch.segment_ids[static_cast<size_t>(e * 28)], 0);
    }
  }
  // Roughly half positives.
  const double rate = static_cast<double>(pos) / total;
  EXPECT_GT(rate, 0.35);
  EXPECT_LT(rate, 0.65);
}

TEST_F(PretrainFixture, PairTaskTrainsAndPredictsBothClasses) {
  // The copy-discrimination circuit emerges slowly (thousands of steps at
  // production scale); within a short test run we assert that training is
  // wired correctly: loss decreases and the pair head escapes the
  // constant-prediction regime.
  models::TransformerConfig cfg = TinyConfig(models::Architecture::kRoberta);
  Rng rng(13);
  auto model = models::CreateTransformer(cfg, &rng);
  PretrainOptions opts;
  opts.steps = 120;
  opts.batch_size = 8;
  opts.data.max_seq_len = 24;
  opts.learning_rate = 1e-3f;
  auto stats = Pretrain(model.get(), tokenizer_, *corpus_, opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats.value().final_loss, stats.value().first_loss);

  LmDataOptions dopts;
  dopts.max_seq_len = 24;
  dopts.seed = 424242;
  LmBatchBuilder builder(tokenizer_, *corpus_, dopts);
  Rng eval_rng(5);
  int64_t correct = 0, total = 0;
  for (int i = 0; i < 12; ++i) {
    LmBatch b = builder.NextPairBatch(8);
    Variable h = model->EncodeBatch(b.batch, false, &eval_rng);
    Variable pooled = model->PooledOutput(h, false, &eval_rng);
    Variable logits = model->PairLogits(pooled, false, &eval_rng);
    auto preds = ops::ArgMaxLastAxis(logits.value());
    for (size_t k = 0; k < b.nsp_labels.size(); ++k) {
      ++total;
      if (preds[k] == b.nsp_labels[k]) ++correct;
    }
  }
  // Not worse than always predicting the majority class.
  EXPECT_GE(static_cast<double>(correct) / total, 0.42);
}

// ---- Pre-training improves the LM -------------------------------------------------

TEST_F(PretrainFixture, MlmPretrainingReducesLossAndBeatsChance) {
  models::TransformerConfig cfg = TinyConfig(models::Architecture::kRoberta);
  Rng rng(3);
  auto model = models::CreateTransformer(cfg, &rng);
  PretrainOptions opts;
  opts.steps = 60;
  opts.batch_size = 8;
  opts.data.max_seq_len = 24;
  opts.learning_rate = 5e-4f;
  auto stats = Pretrain(model.get(), tokenizer_, *corpus_, opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats.value().final_loss, stats.value().first_loss);

  LmDataOptions dopts;
  dopts.max_seq_len = 24;
  const double acc =
      MlmAccuracy(model.get(), tokenizer_, *corpus_, dopts, 8, 8, 99);
  // Far better than uniform chance (1/vocab ~ 0.25%).
  EXPECT_GT(acc, 0.05);
}

TEST_F(PretrainFixture, BertPretrainingRunsWithNsp) {
  models::TransformerConfig cfg = TinyConfig(models::Architecture::kBert);
  Rng rng(4);
  auto model = models::CreateTransformer(cfg, &rng);
  PretrainOptions opts;
  opts.steps = 25;
  opts.batch_size = 8;
  opts.data.max_seq_len = 24;
  auto stats = Pretrain(model.get(), tokenizer_, *corpus_, opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats.value().final_loss, stats.value().first_loss * 1.2f);
}

TEST_F(PretrainFixture, XlnetPermutationPretrainingRuns) {
  models::TransformerConfig cfg = TinyConfig(models::Architecture::kXlnet);
  Rng rng(5);
  auto model = models::CreateTransformer(cfg, &rng);
  PretrainOptions opts;
  opts.steps = 20;
  opts.batch_size = 6;
  opts.data.max_seq_len = 20;
  auto stats = Pretrain(model.get(), tokenizer_, *corpus_, opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().first_loss, 0.0f);
}

TEST_F(PretrainFixture, DistillationRequiresTeacher) {
  models::TransformerConfig cfg = TinyConfig(models::Architecture::kDistilBert);
  Rng rng(6);
  auto model = models::CreateTransformer(cfg, &rng);
  PretrainOptions opts;
  opts.steps = 5;
  auto stats = Pretrain(model.get(), tokenizer_, *corpus_, opts, nullptr);
  EXPECT_FALSE(stats.ok());
}

TEST_F(PretrainFixture, DistillationFromTeacherRuns) {
  Rng rng(7);
  auto teacher = models::CreateTransformer(
      TinyConfig(models::Architecture::kBert), &rng);
  {
    PretrainOptions topts;
    topts.steps = 20;
    topts.batch_size = 8;
    topts.data.max_seq_len = 20;
    ASSERT_TRUE(Pretrain(teacher.get(), tokenizer_, *corpus_, topts).ok());
  }
  auto student = models::CreateTransformer(
      TinyConfig(models::Architecture::kDistilBert), &rng);
  PretrainOptions opts;
  opts.steps = 20;
  opts.batch_size = 8;
  opts.data.max_seq_len = 20;
  auto stats =
      Pretrain(student.get(), tokenizer_, *corpus_, opts, teacher.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LT(stats.value().final_loss, stats.value().first_loss);
}

// ---- Static vs dynamic masking semantics -------------------------------------------

TEST_F(PretrainFixture, StaticMaskingIsStablePerExample) {
  // Two builders with the same seed visiting the same examples must apply
  // identical masks in static mode.
  LmDataOptions opts;
  opts.max_seq_len = 24;
  opts.seed = 555;
  LmBatchBuilder b1(tokenizer_, *corpus_, opts);
  LmBatchBuilder b2(tokenizer_, *corpus_, opts);
  LmBatch x1 = b1.NextMlmBatch(6, false, /*dynamic=*/false);
  LmBatch x2 = b2.NextMlmBatch(6, false, /*dynamic=*/false);
  EXPECT_EQ(x1.batch.ids, x2.batch.ids);
  EXPECT_EQ(x1.lm_labels, x2.lm_labels);
}

// ---- Model zoo ----------------------------------------------------------------------

TEST(ModelZooTest, TrainsAndCachesTokenizer) {
  ZooOptions zoo;
  zoo.cache_dir = "/tmp/emx_zoo_test_tok";
  std::filesystem::remove_all(zoo.cache_dir);
  zoo.vocab_size = 300;
  zoo.corpus.num_documents = 60;

  auto t1 = GetTokenizer(models::Architecture::kBert, zoo);
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  // Second call loads from cache and must tokenize identically.
  auto t2 = GetTokenizer(models::Architecture::kBert, zoo);
  ASSERT_TRUE(t2.ok());
  const std::string probe = "the apple a15 phone with hd display";
  EXPECT_EQ(t1.value()->Encode(probe), t2.value()->Encode(probe));
  std::filesystem::remove_all(zoo.cache_dir);
}

TEST(ModelZooTest, PretrainedModelIsCached) {
  ZooOptions zoo;
  zoo.cache_dir = "/tmp/emx_zoo_test_model";
  std::filesystem::remove_all(zoo.cache_dir);
  zoo.vocab_size = 300;
  zoo.corpus.num_documents = 60;
  zoo.pretrain.steps = 8;
  zoo.pretrain.batch_size = 4;
  zoo.pretrain.data.max_seq_len = 20;

  auto b1 = GetPretrained(models::Architecture::kRoberta, zoo);
  ASSERT_TRUE(b1.ok()) << b1.status().ToString();
  // The cached checkpoint is an EMXM1 container.
  int64_t containers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(zoo.cache_dir)) {
    if (entry.path().extension() != ".emxm") continue;
    EXPECT_TRUE(io::EmxmReader::Open(entry.path().string()).ok());
    ++containers;
  }
  EXPECT_EQ(containers, 1);
  auto b2 = GetPretrained(models::Architecture::kRoberta, zoo);
  ASSERT_TRUE(b2.ok());
  // The cached load reproduces the exact weights.
  auto p1 = b1.value().model->Parameters();
  auto p2 = b2.value().model->Parameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_TRUE(ops::AllClose(p1[i].var.value(), p2[i].var.value(), 1e-6f))
        << p1[i].name;
  }
  std::filesystem::remove_all(zoo.cache_dir);
}

TEST(ModelZooTest, ModelPathCoversEveryWeightOption) {
  // Every option that changes the pre-trained weights must change the
  // cache file name; a pre-training run under other options must never
  // load the checkpoint of this one.
  const ZooOptions base;
  const auto config_for = [](const ZooOptions& zoo) {
    models::TransformerConfig config =
        models::TransformerConfig::Scaled(models::Architecture::kBert, 300);
    config.max_seq_len =
        std::max<int64_t>(config.max_seq_len, zoo.pretrain.data.max_seq_len);
    return config;
  };
  const auto path = [&config_for](const ZooOptions& zoo) {
    return PretrainedModelPath(models::Architecture::kBert, zoo,
                               config_for(zoo));
  };
  const std::string base_path = path(base);
  EXPECT_EQ(path(base), base_path);
  EXPECT_NE(PretrainedModelPath(models::Architecture::kRoberta, base,
                                config_for(base)),
            base_path);

  using Edit = void (*)(ZooOptions*);
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"cache_dir", [](ZooOptions* z) { z->cache_dir += "_other"; }},
      {"vocab_size", [](ZooOptions* z) { z->vocab_size += 1; }},
      {"corpus.num_documents",
       [](ZooOptions* z) { z->corpus.num_documents += 1; }},
      {"corpus.seed", [](ZooOptions* z) { z->corpus.seed += 1; }},
      {"steps", [](ZooOptions* z) { z->pretrain.steps += 1; }},
      {"batch_size", [](ZooOptions* z) { z->pretrain.batch_size += 1; }},
      {"learning_rate",
       [](ZooOptions* z) { z->pretrain.learning_rate *= 1.5f; }},
      {"warmup_steps", [](ZooOptions* z) { z->pretrain.warmup_steps += 1; }},
      {"data.max_seq_len",
       [](ZooOptions* z) { z->pretrain.data.max_seq_len = 64; }},
      {"data.mask_prob",
       [](ZooOptions* z) { z->pretrain.data.mask_prob = 0.2; }},
      {"data.mask_token_prob",
       [](ZooOptions* z) { z->pretrain.data.mask_token_prob = 0.7; }},
      {"data.random_token_prob",
       [](ZooOptions* z) { z->pretrain.data.random_token_prob = 0.2; }},
      {"data.seed", [](ZooOptions* z) { z->pretrain.data.seed += 1; }},
      {"distill_soft_weight",
       [](ZooOptions* z) { z->pretrain.distill_soft_weight = 0.5f; }},
      {"distill_mlm_weight",
       [](ZooOptions* z) { z->pretrain.distill_mlm_weight = 0.5f; }},
      {"distill_cosine_weight",
       [](ZooOptions* z) { z->pretrain.distill_cosine_weight = 1.0f; }},
      {"distill_temperature",
       [](ZooOptions* z) { z->pretrain.distill_temperature = 3.0f; }},
      // 1.0 -> 1.05 printed as a tenth would still read 10.
      {"pair_task_weight",
       [](ZooOptions* z) { z->pretrain.pair_task_weight = 1.05f; }},
      {"seed", [](ZooOptions* z) { z->pretrain.seed += 1; }},
  };

  std::set<std::string> seen = {base_path};
  for (const auto& [name, edit] : edits) {
    ZooOptions zoo;
    edit(&zoo);
    const std::string p = path(zoo);
    EXPECT_NE(p, base_path) << name;
    EXPECT_TRUE(seen.insert(p).second) << name << " collides: " << p;
  }

  // A 64-token pre-training never loads the 32-token checkpoint, although
  // both configs allocate the same position table.
  ZooOptions len32 = base, len64 = base;
  len32.pretrain.data.max_seq_len = 32;
  len64.pretrain.data.max_seq_len = 64;
  ASSERT_EQ(config_for(len32).max_seq_len, config_for(len64).max_seq_len);
  EXPECT_NE(path(len32), path(len64));

  // Options that only change logging or caching behaviour keep the name.
  ZooOptions quiet = base;
  quiet.pretrain.log_every = 10;
  quiet.force_retrain = true;
  EXPECT_EQ(path(quiet), base_path);
}

TEST(ModelZooTest, SkipPretrainingGivesRandomModel) {
  ZooOptions zoo;
  zoo.cache_dir = "/tmp/emx_zoo_test_skip";
  std::filesystem::remove_all(zoo.cache_dir);
  zoo.vocab_size = 300;
  zoo.corpus.num_documents = 60;
  zoo.skip_pretraining = true;
  auto b = GetPretrained(models::Architecture::kBert, zoo);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(b.value().model, nullptr);
  EXPECT_NE(b.value().tokenizer, nullptr);
  std::filesystem::remove_all(zoo.cache_dir);
}

}  // namespace
}  // namespace pretrain
}  // namespace emx
