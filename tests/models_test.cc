#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "models/classifier.h"
#include "models/config.h"
#include "models/encoder.h"
#include "models/transformer.h"
#include "models/xlnet.h"
#include "nn/optimizer.h"
#include "tensor/autograd_ops.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace emx {
namespace models {
namespace {

namespace ag = autograd;

TransformerConfig SmallConfig(Architecture arch) {
  TransformerConfig cfg = TransformerConfig::Scaled(arch, /*vocab_size=*/50);
  cfg.hidden = 16;
  cfg.num_layers = 2;
  cfg.num_heads = 2;
  cfg.intermediate = 32;
  cfg.max_seq_len = 16;
  cfg.dropout = 0.0f;
  return cfg;
}

Batch MakeBatch(int64_t b, int64_t t, Rng* rng, int64_t vocab = 50) {
  Batch batch;
  batch.batch_size = b;
  batch.seq_len = t;
  for (int64_t i = 0; i < b * t; ++i) {
    batch.ids.push_back(rng->NextInt(5, vocab - 1));
    batch.segment_ids.push_back(i % t < t / 2 ? 0 : 1);
  }
  batch.attention_mask = Tensor({b, 1, 1, t});  // nothing masked
  return batch;
}

// ---- Config ------------------------------------------------------------

TEST(ConfigTest, ScaledPresetsMatchPaperDeltas) {
  auto bert = TransformerConfig::Scaled(Architecture::kBert, 1000);
  auto roberta = TransformerConfig::Scaled(Architecture::kRoberta, 1000);
  auto distil = TransformerConfig::Scaled(Architecture::kDistilBert, 1000);
  auto xlnet = TransformerConfig::Scaled(Architecture::kXlnet, 1000);

  // DistilBERT halves BERT's layers and removes pooler + token types.
  EXPECT_EQ(distil.num_layers, bert.num_layers / 2);
  EXPECT_FALSE(distil.use_pooler);
  EXPECT_EQ(distil.type_vocab_size, 0);
  // RoBERTa drops NSP and uses dynamic masking.
  EXPECT_TRUE(bert.use_nsp_head);
  EXPECT_FALSE(roberta.use_nsp_head);
  EXPECT_TRUE(roberta.dynamic_masking);
  EXPECT_FALSE(bert.dynamic_masking);
  // XLNet keeps BERT depth.
  EXPECT_EQ(xlnet.num_layers, bert.num_layers);
}

TEST(ConfigTest, PaperScaleTable4) {
  auto entries = PaperScaleConfigs();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_STREQ(entries[0].name, "BERT");
  EXPECT_EQ(entries[0].layers, 12);
  EXPECT_EQ(entries[3].layers, 6);  // DistilBERT
  EXPECT_STREQ(entries[3].params, "66M");
}

TEST(ConfigTest, ArchitectureNames) {
  EXPECT_STREQ(ArchitectureName(Architecture::kBert), "BERT");
  EXPECT_STREQ(ArchitectureName(Architecture::kXlnet), "XLNet");
}

// ---- EncoderModel (BERT family) ---------------------------------------------

TEST(EncoderModelTest, OutputShape) {
  Rng rng(1);
  EncoderModel model(SmallConfig(Architecture::kBert), &rng);
  Batch batch = MakeBatch(3, 8, &rng);
  Variable h = model.EncodeBatch(batch, false, &rng);
  EXPECT_EQ(h.shape(), (Shape{3, 8, 16}));
  Variable pooled = model.PooledOutput(h, false, &rng);
  EXPECT_EQ(pooled.shape(), (Shape{3, 16}));
  Variable mlm = model.MlmLogits(h, false, &rng);
  EXPECT_EQ(mlm.shape(), (Shape{24, 50}));
  Variable nsp = model.NspLogits(pooled, false, &rng);
  EXPECT_EQ(nsp.shape(), (Shape{3, 2}));
}

TEST(EncoderModelTest, RobertaHasNoSegmentParams) {
  Rng rng(2);
  EncoderModel bert(SmallConfig(Architecture::kBert), &rng);
  EncoderModel roberta(SmallConfig(Architecture::kRoberta), &rng);
  bool bert_has_seg = false, roberta_has_seg = false;
  for (auto& p : bert.Parameters()) {
    if (p.name.find("seg_emb") != std::string::npos) bert_has_seg = true;
  }
  for (auto& p : roberta.Parameters()) {
    if (p.name.find("seg_emb") != std::string::npos) roberta_has_seg = true;
  }
  EXPECT_TRUE(bert_has_seg);
  EXPECT_FALSE(roberta_has_seg);
}

TEST(EncoderModelTest, DistilBertSmallerThanBert) {
  Rng rng(3);
  EncoderModel bert(SmallConfig(Architecture::kBert), &rng);
  EncoderModel distil(SmallConfig(Architecture::kDistilBert), &rng);
  EXPECT_LT(distil.NumParameters(), bert.NumParameters());
}

TEST(EncoderModelTest, PaddingMaskMakesPaddingIrrelevant) {
  // Changing token ids at masked (padded) positions must not change the
  // CLS representation.
  Rng rng(4);
  TransformerConfig cfg = SmallConfig(Architecture::kBert);
  EncoderModel model(cfg, &rng);
  Batch batch = MakeBatch(1, 8, &rng);
  // Mask last 3 positions.
  for (int64_t j = 5; j < 8; ++j) batch.attention_mask.At({0, 0, 0, j}) = 1.0f;

  Variable h1 = model.EncodeBatch(batch, false, &rng);
  Tensor cls1 = ops::SelectTimeStep(h1.value(), 0);

  Batch batch2 = batch;
  batch2.ids = batch.ids;
  batch2.ids[6] = (batch2.ids[6] + 7) % 45 + 5;
  batch2.ids[7] = (batch2.ids[7] + 13) % 45 + 5;
  Variable h2 = model.EncodeBatch(batch2, false, &rng);
  Tensor cls2 = ops::SelectTimeStep(h2.value(), 0);
  EXPECT_TRUE(ops::AllClose(cls1, cls2, 1e-5f));
}

TEST(EncoderModelTest, SegmentIdsChangeOutput) {
  Rng rng(5);
  EncoderModel model(SmallConfig(Architecture::kBert), &rng);
  Batch batch = MakeBatch(1, 8, &rng);
  Variable h1 = model.EncodeBatch(batch, false, &rng);
  Batch batch2 = batch;
  batch2.segment_ids.assign(batch.segment_ids.size(), 1);
  Variable h2 = model.EncodeBatch(batch2, false, &rng);
  EXPECT_FALSE(ops::AllClose(h1.value(), h2.value(), 1e-5f));
}

TEST(EncoderModelTest, DeterministicAtEval) {
  Rng rng(6);
  EncoderModel model(SmallConfig(Architecture::kBert), &rng);
  Batch batch = MakeBatch(2, 6, &rng);
  Rng r1(9), r2(9);
  Variable a = model.EncodeBatch(batch, false, &r1);
  Variable b = model.EncodeBatch(batch, false, &r2);
  EXPECT_TRUE(ops::AllClose(a.value(), b.value()));
}

// ---- XLNet --------------------------------------------------------------------

TEST(XlnetTest, RelativeSinusoidShapeAndSymmetry) {
  Tensor r = XlnetModel::RelativeSinusoid(5, 8);
  EXPECT_EQ(r.shape(), (Shape{9, 8}));
  // Distance 0 row (p = 4): sin(0)=0, cos(0)=1.
  EXPECT_NEAR(r.At({4, 0}), 0.0f, 1e-6);
  EXPECT_NEAR(r.At({4, 1}), 1.0f, 1e-6);
  // sin is odd in distance: row p and row 2T-2-p mirror.
  EXPECT_NEAR(r.At({0, 0}), -r.At({8, 0}), 1e-5);
  // cos is even.
  EXPECT_NEAR(r.At({0, 1}), r.At({8, 1}), 1e-5);
}

TEST(XlnetTest, RelativeShiftGathersCorrectDiagonals) {
  // bd[0,0,i,p] = p, then out[0,0,i,j] = (T-1) - i + j.
  const int64_t t = 4;
  Tensor bd({1, 1, t, 2 * t - 1});
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t p = 0; p < 2 * t - 1; ++p) {
      bd.At({0, 0, i, p}) = static_cast<float>(p);
    }
  }
  Variable out = RelativeShift(Variable::Constant(bd), t);
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      EXPECT_EQ(out.value().At({0, 0, i, j}), static_cast<float>(t - 1 - i + j));
    }
  }
}

TEST(XlnetTest, RelativeShiftGradCheck) {
  Rng rng(7);
  const int64_t t = 3;
  Tensor x = Tensor::Randn({1, 2, t, 2 * t - 1}, &rng);
  float diff = GradCheck(
      [t](const Variable& v) {
        Variable s = RelativeShift(v, t);
        return ag::MeanAll(ag::Mul(s, s));
      },
      x);
  EXPECT_LT(diff, 2e-2f);
}

TEST(XlnetTest, EncodeShape) {
  Rng rng(8);
  XlnetModel model(SmallConfig(Architecture::kXlnet), &rng);
  Batch batch = MakeBatch(2, 8, &rng);
  Variable h = model.EncodeBatch(batch, false, &rng);
  EXPECT_EQ(h.shape(), (Shape{2, 8, 16}));
  Variable pooled = model.PooledOutput(h, false, &rng);
  EXPECT_EQ(pooled.shape(), (Shape{2, 16}));
}

TEST(XlnetTest, RelativePositionsMatter) {
  // Same tokens in a different order must produce different CLS output
  // even though XLNet has no absolute position embeddings.
  Rng rng(9);
  XlnetModel model(SmallConfig(Architecture::kXlnet), &rng);
  Batch batch = MakeBatch(1, 6, &rng);
  batch.ids = {10, 11, 12, 13, 14, 15};
  Variable h1 = model.EncodeBatch(batch, false, &rng);
  Batch batch2 = batch;
  batch2.ids = {10, 13, 12, 11, 14, 15};
  Variable h2 = model.EncodeBatch(batch2, false, &rng);
  Tensor c1 = ops::SelectTimeStep(h1.value(), 5);
  Tensor c2 = ops::SelectTimeStep(h2.value(), 5);
  EXPECT_FALSE(ops::AllClose(c1, c2, 1e-5f));
}

TEST(XlnetTest, TwoStreamQueryCannotSeeOwnContent) {
  // With a factorization order, g_i must be invariant to the token at
  // position i (it may only see perm-earlier content).
  Rng rng(10);
  TransformerConfig cfg = SmallConfig(Architecture::kXlnet);
  XlnetModel model(cfg, &rng);
  const int64_t t = 5;
  Batch batch = MakeBatch(1, t, &rng);

  // Identity factorization order: perm_pos[i] = i.
  Tensor content_mask({1, 1, t, t});
  Tensor query_mask({1, 1, t, t});
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      content_mask.At({0, 0, i, j}) = j <= i ? 0.0f : 1.0f;
      query_mask.At({0, 0, i, j}) = j < i ? 0.0f : 1.0f;
    }
  }

  TwoStreamOutput out1 =
      model.TwoStreamForward(batch, content_mask, query_mask, false, &rng);
  // Change the token at position 3; g_3 and g_<3 must be unchanged.
  Batch batch2 = batch;
  batch2.ids[3] = (batch2.ids[3] + 11) % 45 + 5;
  TwoStreamOutput out2 =
      model.TwoStreamForward(batch2, content_mask, query_mask, false, &rng);
  for (int64_t pos = 0; pos <= 3; ++pos) {
    Tensor g1 = ops::SelectTimeStep(out1.query.value(), pos);
    Tensor g2 = ops::SelectTimeStep(out2.query.value(), pos);
    EXPECT_TRUE(ops::AllClose(g1, g2, 1e-5f)) << "pos " << pos;
  }
  // But g_4 (perm-later) does see position 3.
  Tensor g1 = ops::SelectTimeStep(out1.query.value(), 4);
  Tensor g2 = ops::SelectTimeStep(out2.query.value(), 4);
  EXPECT_FALSE(ops::AllClose(g1, g2, 1e-5f));
}

TEST(XlnetTest, SlowerThanBertPerForward) {
  // The relative-attention machinery makes XLNet measurably more work per
  // token than BERT at the same depth — the cause of Table 6's timing shape.
  // Compare parameter counts as a cheap proxy (wr + biases are extra).
  Rng rng(11);
  auto bert_cfg = SmallConfig(Architecture::kBert);
  auto xlnet_cfg = SmallConfig(Architecture::kXlnet);
  EncoderModel bert(bert_cfg, &rng);
  XlnetModel xlnet(xlnet_cfg, &rng);
  // Per layer, XLNet adds wr (H*H+H) and u/v biases (2H).
  EXPECT_GT(xlnet.NumParameters(),
            bert.NumParameters() - bert_cfg.max_seq_len * bert_cfg.hidden);
}

// ---- Split encoding (prefix reuse) ------------------------------------------

/// A pair batch with genuine per-row padding: row 0 is full, row 1 pads the
/// last `pad` positions. Segment 0 covers the first half of the real
/// tokens, segment 1 the rest — the layout the serving split path feeds.
Batch MakePaddedPairBatch(int64_t b, int64_t t, int64_t pad, Rng* rng) {
  Batch batch;
  batch.batch_size = b;
  batch.seq_len = t;
  std::vector<float> flat(static_cast<size_t>(b * t), 0.0f);
  for (int64_t r = 0; r < b; ++r) {
    const int64_t real = r == 0 ? t : t - pad;
    for (int64_t j = 0; j < t; ++j) {
      batch.ids.push_back(j < real ? rng->NextInt(5, 49) : 0);
      batch.segment_ids.push_back(j < real / 2 ? 0 : 1);
      if (j >= real) flat[static_cast<size_t>(r * t + j)] = 1.0f;
    }
  }
  batch.attention_mask = Batch::MakeMask(flat, b, t);
  return batch;
}

TEST(SplitEncodeTest, SegmentLocalMaskBlocksCrossSegmentAndPadding) {
  // 1 row, 4 positions: seg ids 0,0,1,pad. Blocked = cross-segment or pad.
  const std::vector<float> flat = {0, 0, 0, 1};
  const std::vector<int64_t> seg = {0, 0, 1, 1};
  Tensor mask = Batch::MakeSegmentLocalMask(flat, seg, 1, 4);
  ASSERT_EQ(mask.shape(), (Shape{1, 1, 4, 4}));
  auto at = [&](int64_t i, int64_t j) { return mask[i * 4 + j]; };
  // Same-segment real pairs attend.
  EXPECT_EQ(at(0, 0), 0.0f);
  EXPECT_EQ(at(0, 1), 0.0f);
  EXPECT_EQ(at(2, 2), 0.0f);
  // Cross-segment pairs are blocked both ways.
  EXPECT_EQ(at(0, 2), 1.0f);
  EXPECT_EQ(at(2, 0), 1.0f);
  // Padding is blocked as query and as key, even same-segment.
  EXPECT_EQ(at(3, 2), 1.0f);
  EXPECT_EQ(at(2, 3), 1.0f);
  EXPECT_EQ(at(3, 3), 1.0f);
}

TEST(SplitEncodeTest, K0SegmentLocalIsBitIdenticalToEncodeBatch) {
  // At split_layer = 0 no layer runs segment-local, so the "split" forward
  // is the ordinary forward — bit-for-bit, padding included.
  Rng rng(21);
  TransformerConfig cfg = SmallConfig(Architecture::kBert);
  EncoderModel model(cfg, &rng);
  Batch batch = MakePaddedPairBatch(2, 8, 3, &rng);
  Rng r1(5), r2(5);
  Variable full = model.EncodeBatch(batch, false, &r1);
  Variable split = model.EncodeBatchSegmentLocal(batch, 0, false, &r2,
                                                 /*cls_only=*/false);
  ASSERT_EQ(full.shape(), split.shape());
  for (int64_t i = 0; i < full.value().size(); ++i) {
    ASSERT_EQ(full.value()[i], split.value()[i]) << "element " << i;
  }
}

TEST(SplitEncodeTest, PerSegmentPrefixesConcatenateExactly) {
  // The recurrence the serving cache relies on: encoding each segment alone
  // (at its pair position offset) through layers [0, k), concatenating, and
  // resuming at layer k reproduces the segment-local pair forward exactly —
  // blocked keys contribute exactly zero, so the per-segment prefixes are
  // bitwise the same rows the block-diagonal pair forward computes.
  Rng rng(22);
  TransformerConfig cfg = SmallConfig(Architecture::kBert);
  EncoderModel model(cfg, &rng);
  const int64_t k = 1;
  const int64_t la = 4, lb = 4, t = la + lb;

  Batch pair;
  pair.batch_size = 1;
  pair.seq_len = t;
  for (int64_t j = 0; j < t; ++j) {
    pair.ids.push_back(10 + j);
    pair.segment_ids.push_back(j < la ? 0 : 1);
  }
  pair.attention_mask = Tensor({1, 1, 1, t});  // no padding

  auto segment_batch = [&](int64_t begin, int64_t len, int64_t seg) {
    Batch b;
    b.batch_size = 1;
    b.seq_len = len;
    for (int64_t j = 0; j < len; ++j) {
      b.ids.push_back(pair.ids[static_cast<size_t>(begin + j)]);
      b.segment_ids.push_back(seg);
    }
    return b;
  };
  Rng r0(9);
  Variable prefix_a =
      model.EncodeSegmentPrefix(segment_batch(0, la, 0), k, 0, &r0);
  Variable prefix_b =
      model.EncodeSegmentPrefix(segment_batch(la, lb, 1), k, la, &r0);
  ASSERT_EQ(prefix_a.shape(), (Shape{1, la, cfg.hidden}));
  ASSERT_EQ(prefix_b.shape(), (Shape{1, lb, cfg.hidden}));

  // Resuming from the concatenated prefixes finishes the forward
  // identically to running the segment-local batch end to end.
  Variable cat = ag::Concat({prefix_a, prefix_b}, 1);
  Rng r2(9), r3(9);
  Variable resumed =
      model.EncodeFromLayer(cat, pair.attention_mask, k, false, &r2,
                            /*cls_only=*/false);
  Variable direct = model.EncodeBatchSegmentLocal(pair, k, false, &r3,
                                                  /*cls_only=*/false);
  for (int64_t i = 0; i < resumed.value().size(); ++i) {
    ASSERT_EQ(resumed.value()[i], direct.value()[i]) << "element " << i;
  }
}

TEST(SplitEncodeTest, LogitsSplitMatchesLogitsAtK0) {
  Rng rng(23);
  auto backbone = CreateTransformer(SmallConfig(Architecture::kBert), &rng);
  SequencePairClassifier cls(std::move(backbone), &rng);
  Batch batch = MakePaddedPairBatch(3, 8, 2, &rng);
  Rng r1(4), r2(4);
  Variable logits = cls.Logits(batch, false, &r1);
  Variable split = cls.LogitsSplit(batch, 0, false, &r2);
  ASSERT_EQ(logits.shape(), split.shape());
  for (int64_t i = 0; i < logits.value().size(); ++i) {
    EXPECT_EQ(logits.value()[i], split.value()[i]) << "logit " << i;
  }
}

TEST(SplitEncodeTest, OnlyEncoderFamilySupportsSplit) {
  Rng rng(24);
  for (auto arch : {Architecture::kBert, Architecture::kRoberta,
                    Architecture::kDistilBert}) {
    auto model = CreateTransformer(SmallConfig(arch), &rng);
    EXPECT_TRUE(model->SupportsSplitEncode()) << ArchitectureName(arch);
  }
  auto xlnet = CreateTransformer(SmallConfig(Architecture::kXlnet), &rng);
  EXPECT_FALSE(xlnet->SupportsSplitEncode())
      << "XLNet's two-stream relative attention has no per-segment prefix";
}

// ---- CLS-row last layer ----------------------------------------------------

// Pair batch whose row r has t - 1 - r % (t / 2) real tokens, so every
// batch size (1 included) carries padding and the rows differ in length.
// Its first segment holds 1 + r % (real / 2) tokens: in row 0 the CLS
// token is alone in it, so the segment-local mask's CLS row differs from
// every other row.
Batch MakeRaggedPairBatch(int64_t b, int64_t t, Rng* rng) {
  Batch batch;
  batch.batch_size = b;
  batch.seq_len = t;
  std::vector<float> flat(static_cast<size_t>(b * t), 0.0f);
  for (int64_t r = 0; r < b; ++r) {
    const int64_t real = t - 1 - r % (t / 2);
    for (int64_t j = 0; j < t; ++j) {
      batch.ids.push_back(j < real ? rng->NextInt(5, 49) : 0);
      batch.segment_ids.push_back(j < 1 + r % (real / 2) ? 0 : 1);
      if (j >= real) flat[static_cast<size_t>(r * t + j)] = 1.0f;
    }
  }
  batch.attention_mask = Batch::MakeMask(flat, b, t);
  return batch;
}

TransformerConfig ClsRowConfig(Architecture arch) {
  TransformerConfig cfg = SmallConfig(arch);
  if (arch == Architecture::kDistilBert) cfg.num_layers = 1;  // last = only
  return cfg;
}

// The head over full [B, T, H] final states: the reference the CLS-row
// last layer must reproduce (dropout is off in every caller).
Variable FullLastLayerLogits(SequencePairClassifier* cls,
                             const Variable& hidden) {
  Rng rng(0);
  Variable pooled = cls->backbone()->PooledOutput(hidden, false, &rng);
  return cls->out_layer().Forward(
      ag::Tanh(cls->dense_layer().Forward(pooled)));
}

void ExpectBitEqual(const Variable& got, const Variable& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.value()[i], want.value()[i]) << what << " logit " << i;
  }
}

TEST(ClsRowLastLayerTest, LogitsMatchFullLastLayerBitForBit) {
  // Every classifier entry point runs its last layer for the CLS row only;
  // the GEMMs, fused attention and LayerNorm are per row, so the logits
  // must equal those pooled from the full final states exactly.
  Rng rng(31);
  for (auto arch : {Architecture::kBert, Architecture::kRoberta,
                    Architecture::kDistilBert}) {
    const TransformerConfig cfg = ClsRowConfig(arch);
    SequencePairClassifier cls(CreateTransformer(cfg, &rng), &rng);
    auto* model = static_cast<EncoderModel*>(cls.backbone());
    for (int64_t b : {1, 3, 16}) {
      const std::string tag =
          std::string(ArchitectureName(arch)) + " B=" + std::to_string(b);
      Batch batch = MakeRaggedPairBatch(b, 12, &rng);
      Rng r(7);
      Variable full = model->EncodeBatch(batch, false, &r);
      const Variable reference = FullLastLayerLogits(&cls, full);
      EXPECT_EQ(model->EncodeCls(batch, false, &r).shape(),
                (Shape{b, 1, cfg.hidden}));
      ExpectBitEqual(cls.Logits(batch, false, &r), reference, tag);
      for (int64_t k = 0; k <= cfg.num_layers; ++k) {
        const std::string at = tag + " k=" + std::to_string(k);
        // Resuming from the ordinary layer-k states (EncodeSegmentPrefix on
        // a pair batch runs layers [0, k) under its pad mask).
        Variable prefix = model->EncodeSegmentPrefix(batch, k, 0, &r);
        ExpectBitEqual(cls.LogitsFromHidden(prefix, batch.attention_mask, k,
                                            false, &r),
                       reference, at + " LogitsFromHidden");
        // The segment-local reference; at k = L the last layer runs under
        // the [B,1,T,T] mask, cut to the CLS query's row.
        Variable local = model->EncodeBatchSegmentLocal(batch, k, false, &r,
                                                        /*cls_only=*/false);
        ExpectBitEqual(cls.LogitsSplit(batch, k, false, &r),
                       FullLastLayerLogits(&cls, local), at + " LogitsSplit");
      }
    }
  }
}

TEST(ClsRowLastLayerTest, TrainingGradientsMatchFullLastLayer) {
  // With dropout 0 the loss is the same function of every parameter, so
  // the gradients agree. Bias and LayerNorm gradients sum over rows, and
  // the CLS-row path sums fewer of them, so the order differs: compare
  // within 1e-5 of each parameter's largest gradient. The key bias's true
  // gradient is zero (softmax ignores a per-row shift), so its entries are
  // rounding noise; the 1e-9 floor admits that.
  Rng rng(32);
  for (auto arch : {Architecture::kBert, Architecture::kDistilBert}) {
    SequencePairClassifier cls(CreateTransformer(ClsRowConfig(arch), &rng),
                               &rng);
    Batch batch = MakeRaggedPairBatch(4, 10, &rng);
    const std::vector<int64_t> labels = {0, 1, 1, 0};
    auto grads = [&](bool cls_row) {
      cls.ZeroGrad();
      Rng r(3);
      Variable logits =
          cls_row ? cls.Logits(batch, /*train=*/true, &r)
                  : FullLastLayerLogits(
                        &cls, cls.backbone()->EncodeBatch(batch, true, &r));
      Backward(ag::CrossEntropy(logits, labels));
      std::vector<Tensor> out;
      for (auto& p : cls.Parameters()) out.push_back(p.var.grad().Clone());
      return out;
    };
    const std::vector<Tensor> got = grads(true);
    const std::vector<Tensor> want = grads(false);
    const auto params = cls.Parameters();
    ASSERT_EQ(got.size(), want.size());
    int64_t nonzero = 0;
    for (size_t p = 0; p < got.size(); ++p) {
      float scale = 0.0f, diff = 0.0f;
      for (int64_t i = 0; i < want[p].size(); ++i) {
        scale = std::max(scale, std::fabs(want[p][i]));
        diff = std::max(diff, std::fabs(got[p][i] - want[p][i]));
      }
      if (scale > 0.0f) ++nonzero;
      EXPECT_LE(diff, 1e-5f * scale + 1e-9f)
          << ArchitectureName(arch) << " " << params[p].name;
    }
    EXPECT_GT(nonzero, 10);  // the comparison covers the encoder, not just
                             // the head
  }
}

// ---- Factory --------------------------------------------------------------------

TEST(FactoryTest, CreatesCorrectTypes) {
  Rng rng(12);
  for (auto arch : {Architecture::kBert, Architecture::kRoberta,
                    Architecture::kDistilBert, Architecture::kXlnet}) {
    auto model = CreateTransformer(SmallConfig(arch), &rng);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->config().arch, arch);
    Batch batch = MakeBatch(1, 6, &rng);
    Variable h = model->EncodeBatch(batch, false, &rng);
    EXPECT_EQ(h.shape(), (Shape{1, 6, 16}));
  }
}

// ---- Classifier ------------------------------------------------------------------

TEST(ClassifierTest, LogitShapeAndPredictRange) {
  Rng rng(13);
  auto backbone = CreateTransformer(SmallConfig(Architecture::kBert), &rng);
  SequencePairClassifier cls(std::move(backbone), &rng);
  Batch batch = MakeBatch(4, 8, &rng);
  Variable logits = cls.Logits(batch, false, &rng);
  EXPECT_EQ(logits.shape(), (Shape{4, 2}));
  auto preds = cls.Predict(batch, &rng);
  ASSERT_EQ(preds.size(), 4u);
  for (int64_t p : preds) EXPECT_TRUE(p == 0 || p == 1);
}

TEST(ClassifierTest, LearnsToySeparation) {
  // Pairs where both halves share a marker token are "matches".
  Rng rng(14);
  TransformerConfig cfg = SmallConfig(Architecture::kBert);
  auto backbone = CreateTransformer(cfg, &rng);
  SequencePairClassifier cls(std::move(backbone), &rng);
  nn::AdamOptions opts;
  opts.lr = 3e-3f;
  nn::Adam adam(cls.Parameters(), opts);

  const int64_t t = 8;
  auto make_batch = [&](bool match, int64_t marker) {
    Batch b;
    b.batch_size = 1;
    b.seq_len = t;
    b.ids = {2, marker, 7, 3, match ? marker : (marker % 40 + 6), 8, 9, 3};
    b.segment_ids = {0, 0, 0, 0, 1, 1, 1, 1};
    b.attention_mask = Tensor({1, 1, 1, t});
    return b;
  };

  float last_loss = 1e9f;
  for (int step = 0; step < 80; ++step) {
    adam.ZeroGrad();
    bool match = step % 2 == 0;
    int64_t marker = 10 + step % 20;
    Batch batch = make_batch(match, marker);
    Variable logits = cls.Logits(batch, true, &rng);
    Variable loss = ag::CrossEntropy(logits, {match ? 1 : 0});
    last_loss = loss.value()[0];
    Backward(loss);
    adam.Step();
  }
  EXPECT_LT(last_loss, 0.5f);
}

TEST(ClassifierTest, HeadWarmStartsFromPairHead) {
  // The classifier's output layer is seeded from the backbone's pretrained
  // copy-discrimination head and dense_ starts as a noisy identity.
  Rng rng(77);
  auto backbone = CreateTransformer(SmallConfig(Architecture::kBert), &rng);
  TransformerModel* raw = backbone.get();
  SequencePairClassifier cls(std::move(backbone), &rng);
  ASSERT_NE(raw->pair_head(), nullptr);
  EXPECT_TRUE(ops::AllClose(cls.out_layer().weight().value(),
                            raw->pair_head()->weight().value()));
  EXPECT_TRUE(ops::AllClose(cls.out_layer().bias().value(),
                            raw->pair_head()->bias().value()));
  // dense_ diagonal is near 1, off-diagonal near 0.
  const Tensor& dw = cls.dense_layer().weight().value();
  const int64_t h = dw.dim(0);
  for (int64_t i = 0; i < h; ++i) {
    EXPECT_NEAR(dw.At({i, i}), 1.0f, 0.2f);
    EXPECT_NEAR(dw.At({i, (i + 1) % h}), 0.0f, 0.2f);
  }
}

TEST(ClassifierTest, ParameterNamesPrefixedAndUnique) {
  Rng rng(15);
  auto backbone = CreateTransformer(SmallConfig(Architecture::kXlnet), &rng);
  SequencePairClassifier cls(std::move(backbone), &rng);
  auto params = cls.Parameters();
  std::set<std::string> names;
  for (auto& p : params) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate name " << p.name;
  }
  EXPECT_GT(params.size(), 20u);
}

TEST(ClassifierTest, SaveLoadRoundTripPredictionsIdentical) {
  Rng rng(16);
  auto b1 = CreateTransformer(SmallConfig(Architecture::kRoberta), &rng);
  SequencePairClassifier c1(std::move(b1), &rng);
  Rng rng2(99);
  auto b2 = CreateTransformer(SmallConfig(Architecture::kRoberta), &rng2);
  SequencePairClassifier c2(std::move(b2), &rng2);

  std::string path = "/tmp/emx_cls_params.bin";
  ASSERT_TRUE(nn::SaveParameters(path, c1.Parameters()).ok());
  ASSERT_TRUE(nn::LoadParameters(path, c2.Parameters()).ok());

  Batch batch = MakeBatch(3, 8, &rng);
  Variable l1 = c1.Logits(batch, false, &rng);
  Variable l2 = c2.Logits(batch, false, &rng);
  EXPECT_TRUE(ops::AllClose(l1.value(), l2.value(), 1e-5f));
  std::remove(path.c_str());
}

// ---- Cross-architecture parameterized smoke tests --------------------------------

class AllArchitecturesTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(AllArchitecturesTest, ForwardBackwardProducesGradients) {
  Rng rng(17);
  auto backbone = CreateTransformer(SmallConfig(GetParam()), &rng);
  SequencePairClassifier cls(std::move(backbone), &rng);
  Batch batch = MakeBatch(2, 8, &rng);
  Variable logits = cls.Logits(batch, true, &rng);
  Variable loss = ag::CrossEntropy(logits, {0, 1});
  Backward(loss);
  int64_t with_grad = 0;
  for (auto& p : cls.Parameters()) {
    float asum = 0;
    for (int64_t i = 0; i < p.var.grad().size(); ++i) {
      asum += std::abs(p.var.grad()[i]);
    }
    if (asum > 0) ++with_grad;
  }
  // Nearly all parameters receive gradient (the NSP head and MLM heads are
  // not part of the classification loss).
  EXPECT_GT(with_grad, static_cast<int64_t>(cls.Parameters().size() * 2 / 3));
}

TEST_P(AllArchitecturesTest, MlmLogitsShape) {
  Rng rng(18);
  auto model = CreateTransformer(SmallConfig(GetParam()), &rng);
  Batch batch = MakeBatch(2, 6, &rng);
  Variable h = model->EncodeBatch(batch, false, &rng);
  Variable mlm = model->MlmLogits(h, false, &rng);
  EXPECT_EQ(mlm.shape(), (Shape{12, 50}));
}

INSTANTIATE_TEST_SUITE_P(
    FourArchitectures, AllArchitecturesTest,
    ::testing::Values(Architecture::kBert, Architecture::kRoberta,
                      Architecture::kDistilBert, Architecture::kXlnet),
    [](const ::testing::TestParamInfo<Architecture>& info) {
      return std::string(ArchitectureName(info.param));
    });

}  // namespace
}  // namespace models
}  // namespace emx
