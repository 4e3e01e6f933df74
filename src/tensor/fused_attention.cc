#include "tensor/fused_attention.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/trace.h"
#include "tensor/kernel_math.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace emx {
namespace ops {
namespace {

// Tiling: each work item is one (batch, head, row-tile) triple. Scores for
// the kRowTile query rows live in thread-local scratch shaped
// [kRowTile, Tk] — the only place a score row ever exists — while K is
// streamed through a [head_dim, kColTile] transposed pack so the dot
// products vectorize across columns. kColTile also bounds the on-stack
// accumulator of the score micro-loop.
constexpr int64_t kRowTile = 32;
constexpr int64_t kColTile = 64;

/// Broadcast view of the additive mask: row (b, h, i) of the logical
/// [B, heads, Tq, Tk] score tensor reads mask row
/// data + b*b_stride + h*h_stride + i*i_stride (stride 0 = broadcast).
struct MaskView {
  const float* data = nullptr;
  int64_t b_stride = 0;
  int64_t h_stride = 0;
  int64_t i_stride = 0;

  const float* Row(int64_t b, int64_t h, int64_t i) const {
    return data == nullptr
               ? nullptr
               : data + b * b_stride + h * h_stride + i * i_stride;
  }
};

MaskView ResolveMask(const Tensor& mask, int64_t b, int64_t heads, int64_t tq,
                     int64_t tk) {
  MaskView view;
  if (mask.size() == 0) return view;
  EMX_CHECK_EQ(mask.ndim(), 4)
      << "FusedAttention mask must be rank 4, got "
      << ShapeToString(mask.shape());
  EMX_CHECK(mask.dim(0) == b || mask.dim(0) == 1);
  EMX_CHECK(mask.dim(1) == heads || mask.dim(1) == 1);
  EMX_CHECK(mask.dim(2) == tq || mask.dim(2) == 1);
  EMX_CHECK_EQ(mask.dim(3), tk)
      << "FusedAttention mask key axis mismatch: "
      << ShapeToString(mask.shape());
  view.data = mask.data();
  const int64_t rows = mask.dim(2);
  view.i_stride = mask.dim(2) == 1 ? 0 : tk;
  view.h_stride = mask.dim(1) == 1 ? 0 : rows * tk;
  view.b_stride = mask.dim(0) == 1 ? 0 : mask.dim(1) * rows * tk;
  return view;
}

/// Grows (never shrinks) a thread-local scratch vector.
inline float* Scratch(std::vector<float>* buf, int64_t n) {
  if (static_cast<int64_t>(buf->size()) < n) {
    buf->resize(static_cast<size_t>(n));
  }
  return buf->data();
}

void CheckQkvShapes(const Tensor& q, const Tensor& k, const Tensor& v,
                    int64_t num_heads) {
  EMX_CHECK_EQ(q.ndim(), 3);
  EMX_CHECK(k.shape() == v.shape())
      << "FusedAttention k/v shape mismatch: " << ShapeToString(k.shape())
      << " vs " << ShapeToString(v.shape());
  EMX_CHECK_EQ(k.ndim(), 3);
  EMX_CHECK_EQ(q.dim(0), k.dim(0));
  EMX_CHECK_EQ(q.dim(2), k.dim(2));
  EMX_CHECK_GT(num_heads, 0);
  EMX_CHECK_EQ(q.dim(2) % num_heads, 0)
      << "hidden " << q.dim(2) << " not divisible by " << num_heads
      << " heads";
}

}  // namespace

Tensor FusedAttentionForward(const Tensor& q, const Tensor& k,
                             const Tensor& v, const Tensor& mask,
                             const FusedAttentionConfig& cfg, Tensor* row_max,
                             Tensor* row_sum) {
  CheckQkvShapes(q, k, v, cfg.num_heads);
  const int64_t b = q.dim(0);
  const int64_t tq = q.dim(1);
  const int64_t tk = k.dim(1);
  const int64_t hidden = q.dim(2);
  const int64_t heads = cfg.num_heads;
  const int64_t dh = hidden / heads;
  EMX_TRACE_SPAN("kernel.fused_attention", [&] {
    return obs::KeyValues(
        {{"batch", b}, {"tq", tq}, {"tk", tk}, {"heads", heads}});
  });
  const MaskView mview = ResolveMask(mask, b, heads, tq, tk);
  const float dead_threshold = cfg.penalty * 0.5f;
  const uint64_t drop_thresh = cfg.dropout ? DropoutThreshold(cfg.dropout_p) : 0;
  const float inv_keep = cfg.dropout ? 1.0f / (1.0f - cfg.dropout_p) : 1.0f;

  Tensor out({b, tq, hidden});
  if (row_max != nullptr) *row_max = Tensor({b, heads, tq});
  if (row_sum != nullptr) *row_sum = Tensor({b, heads, tq});
  const float* pq = q.data();
  const float* pk = k.data();
  const float* pv = v.data();
  float* po = out.data();
  float* pm = row_max != nullptr ? row_max->data() : nullptr;
  float* pl = row_sum != nullptr ? row_sum->data() : nullptr;

  const int64_t row_tiles = (tq + kRowTile - 1) / kRowTile;
  const int64_t total_items = b * heads * row_tiles;
  const int64_t item_flops = std::max<int64_t>(
      1, 4 * std::min(kRowTile, tq) * tk * dh);
  const int64_t grain = std::max<int64_t>(1, (1 << 18) / item_flops);

  ParallelFor(total_items, grain, [&](int64_t begin, int64_t end) {
    // Thread-local so steady-state forwards allocate nothing; each buffer
    // only ever grows to the largest shape this thread has seen (same
    // pattern as the int8 GEMM scratch).
    thread_local std::vector<float> t_scores;
    thread_local std::vector<float> t_kpack;
    float* scores = Scratch(&t_scores, kRowTile * tk);
    float* kpack = Scratch(&t_kpack, dh * kColTile);

    for (int64_t item = begin; item < end; ++item) {
      const int64_t bi = item / (heads * row_tiles);
      const int64_t hi = (item / row_tiles) % heads;
      const int64_t rt = item % row_tiles;
      const int64_t i0 = rt * kRowTile;
      const int64_t i1 = std::min(i0 + kRowTile, tq);
      const int64_t br = i1 - i0;
      const float* qb = pq + bi * tq * hidden + hi * dh;
      const float* kb = pk + bi * tk * hidden + hi * dh;
      const float* vb = pv + bi * tk * hidden + hi * dh;
      float* ob = po + bi * tq * hidden + hi * dh;

      // Pass 1: score rows into scratch with the online max recurrence
      // m_i <- max(m_i, s_ij) folded into the K-tile stream.
      float m_run[kRowTile];
      for (int64_t i = 0; i < br; ++i) {
        m_run[i] = -std::numeric_limits<float>::infinity();
      }
      for (int64_t j0 = 0; j0 < tk; j0 += kColTile) {
        const int64_t jb = std::min(kColTile, tk - j0);
        for (int64_t jj = 0; jj < jb; ++jj) {
          const float* krow = kb + (j0 + jj) * hidden;
          for (int64_t d = 0; d < dh; ++d) kpack[d * jb + jj] = krow[d];
        }
        for (int64_t i = 0; i < br; ++i) {
          const float* qrow = qb + (i0 + i) * hidden;
          float acc[kColTile];
          std::fill(acc, acc + jb, 0.0f);
          for (int64_t d = 0; d < dh; ++d) {
            const float qd = qrow[d];
            const float* kt = kpack + d * jb;
            for (int64_t jj = 0; jj < jb; ++jj) {
              acc[jj] = MulAdd(qd, kt[jj], acc[jj]);
            }
          }
          const float* mrow = mview.Row(bi, hi, i0 + i);
          float* srow = scores + i * tk + j0;
          if (mrow != nullptr) {
            for (int64_t jj = 0; jj < jb; ++jj) {
              const float s = acc[jj] * cfg.scale;
              srow[jj] = Select(mrow[j0 + jj] != 0.0f, s + cfg.penalty, s);
            }
          } else {
            for (int64_t jj = 0; jj < jb; ++jj) srow[jj] = acc[jj] * cfg.scale;
          }
          float m = m_run[i];
          for (int64_t jj = 0; jj < jb; ++jj) m = std::max(m, srow[jj]);
          m_run[i] = m;
        }
      }

      // Pass 2: exact softmax over each scratch row (ExpApprox, LaneSum
      // and normalize, exactly like ops::Softmax), fully-masked rows zeroed
      // like autograd::MaskedSoftmax, then the dropout scale.
      for (int64_t i = 0; i < br; ++i) {
        float* srow = scores + i * tk;
        const float m = m_run[i];
        for (int64_t j = 0; j < tk; ++j) srow[j] = ExpApprox(srow[j] - m);
        const float denom = LaneSum(srow, tk);
        if (pm != nullptr) {
          const int64_t stat = (bi * heads + hi) * tq + i0 + i;
          pm[stat] = m;
          pl[stat] = denom;
        }
        if (m < dead_threshold) {
          for (int64_t j = 0; j < tk; ++j) srow[j] = 0.0f;
        } else {
          const float inv = 1.0f / denom;
          for (int64_t j = 0; j < tk; ++j) srow[j] *= inv;
        }
        if (cfg.dropout) {
          const int64_t base = ((bi * heads + hi) * tq + i0 + i) * tk;
          for (int64_t j = 0; j < tk; ++j) {
            srow[j] *= Select(
                DropoutHash(cfg.dropout_seed, base + j) < drop_thresh, 0.0f,
                inv_keep);
          }
        }
      }

      // Pass 3: context rows, streaming V tiles; per (i, d) the chain is
      // ascending-j MulAdd from zero, matching the blocked GEMM.
      for (int64_t i = 0; i < br; ++i) {
        const float* srow = scores + i * tk;
        float* orow = ob + (i0 + i) * hidden;
        for (int64_t j = 0; j < tk; ++j) {
          const float pj = srow[j];
          const float* vrow = vb + j * hidden;
          for (int64_t d = 0; d < dh; ++d) {
            orow[d] = MulAdd(pj, vrow[d], orow[d]);
          }
        }
      }
    }
  });
  return out;
}

void FusedAttentionBackward(const Tensor& dout, const Tensor& q,
                            const Tensor& k, const Tensor& v,
                            const Tensor& mask,
                            const FusedAttentionConfig& cfg,
                            const Tensor& row_max, const Tensor& row_sum,
                            Tensor* dq, Tensor* dk, Tensor* dv) {
  EMX_TRACE_SPAN("kernel.fused_attention_bwd");
  CheckQkvShapes(q, k, v, cfg.num_heads);
  EMX_CHECK(dout.shape() == q.shape());
  EMX_CHECK(dq->shape() == q.shape());
  EMX_CHECK(dk->shape() == k.shape());
  EMX_CHECK(dv->shape() == v.shape());
  const int64_t b = q.dim(0);
  const int64_t tq = q.dim(1);
  const int64_t tk = k.dim(1);
  const int64_t hidden = q.dim(2);
  const int64_t heads = cfg.num_heads;
  const int64_t dh = hidden / heads;
  EMX_CHECK_EQ(row_max.size(), b * heads * tq)
      << "FusedAttentionBackward needs the forward row stats";
  const MaskView mview = ResolveMask(mask, b, heads, tq, tk);
  const float dead_threshold = cfg.penalty * 0.5f;
  const uint64_t drop_thresh = cfg.dropout ? DropoutThreshold(cfg.dropout_p) : 0;
  const float inv_keep = cfg.dropout ? 1.0f / (1.0f - cfg.dropout_p) : 1.0f;

  const float* pdo = dout.data();
  const float* pq = q.data();
  const float* pk = k.data();
  const float* pv = v.data();
  const float* pm = row_max.data();
  const float* pl = row_sum.data();
  float* pdq = dq->data();
  float* pdk = dk->data();
  float* pdv = dv->data();

  // One work item per (batch, head): the item owns its (b, h) slices of
  // dq, dk and dv outright, so accumulation needs no atomics and stays
  // deterministic at any thread count.
  ParallelFor(b * heads, 1, [&](int64_t begin, int64_t end) {
    thread_local std::vector<float> t_kpack;   // K^T, [dh, Tk]
    thread_local std::vector<float> t_vpack;   // V^T, [dh, Tk]
    thread_local std::vector<float> t_prob;    // recomputed prob row
    thread_local std::vector<float> t_dprob;   // upstream prob grad row
    thread_local std::vector<float> t_pd;      // prob row after dropout
    float* kpack = Scratch(&t_kpack, dh * tk);
    float* vpack = Scratch(&t_vpack, dh * tk);
    float* prob = Scratch(&t_prob, tk);
    float* dprob = Scratch(&t_dprob, tk);
    float* pdbuf = Scratch(&t_pd, tk);

    for (int64_t item = begin; item < end; ++item) {
      const int64_t bi = item / heads;
      const int64_t hi = item % heads;
      const float* qb = pq + bi * tq * hidden + hi * dh;
      const float* kb = pk + bi * tk * hidden + hi * dh;
      const float* vb = pv + bi * tk * hidden + hi * dh;
      const float* dob = pdo + bi * tq * hidden + hi * dh;
      float* dqb = pdq + bi * tq * hidden + hi * dh;
      float* dkb = pdk + bi * tk * hidden + hi * dh;
      float* dvb = pdv + bi * tk * hidden + hi * dh;

      for (int64_t j = 0; j < tk; ++j) {
        const float* krow = kb + j * hidden;
        const float* vrow = vb + j * hidden;
        for (int64_t d = 0; d < dh; ++d) {
          kpack[d * tk + j] = krow[d];
          vpack[d * tk + j] = vrow[d];
        }
      }

      for (int64_t i = 0; i < tq; ++i) {
        const float* qrow = qb + i * hidden;
        const float* dorow = dob + i * hidden;
        const int64_t stat = (bi * heads + hi) * tq + i;
        const float m = pm[stat];
        // Fully-masked rows attended to nothing in the forward pass
        // (probs all zero), so they propagate nothing backward.
        const float inv_l = m < dead_threshold ? 0.0f : 1.0f / pl[stat];
        const float* mrow = mview.Row(bi, hi, i);

        // Recompute the prob row from the saved statistics: the same
        // ascending-d score chain and exp/normalize ops as the forward
        // pass, so probs are bit-identical to the ones the forward used.
        std::fill(prob, prob + tk, 0.0f);
        for (int64_t d = 0; d < dh; ++d) {
          const float qd = qrow[d];
          const float* kt = kpack + d * tk;
          for (int64_t j = 0; j < tk; ++j) {
            prob[j] = MulAdd(qd, kt[j], prob[j]);
          }
        }
        // The scaled scores go through memory before the exp, as in the
        // forward, so the scale cannot be contracted into `s - m`.
        if (mrow != nullptr) {
          for (int64_t j = 0; j < tk; ++j) {
            const float s = prob[j] * cfg.scale;
            prob[j] = Select(mrow[j] != 0.0f, s + cfg.penalty, s);
          }
        } else {
          for (int64_t j = 0; j < tk; ++j) prob[j] *= cfg.scale;
        }
        for (int64_t j = 0; j < tk; ++j) {
          prob[j] = ExpApprox(prob[j] - m) * inv_l;
        }

        // dprob[j] = dout_i . v_j, through the dropout mul if present.
        std::fill(dprob, dprob + tk, 0.0f);
        for (int64_t d = 0; d < dh; ++d) {
          const float dd = dorow[d];
          const float* vt = vpack + d * tk;
          for (int64_t j = 0; j < tk; ++j) {
            dprob[j] = MulAdd(dd, vt[j], dprob[j]);
          }
        }

        // Replay the dropout mask: dv needs the dropped prob row, and the
        // upstream prob gradient passes back through the same scale.
        const float* pd = prob;
        if (cfg.dropout) {
          const int64_t base = ((bi * heads + hi) * tq + i) * tk;
          for (int64_t j = 0; j < tk; ++j) {
            const float ds = Select(
                DropoutHash(cfg.dropout_seed, base + j) < drop_thresh, 0.0f,
                inv_keep);
            pdbuf[j] = prob[j] * ds;
            dprob[j] *= ds;
          }
          pd = pdbuf;
        }

        // dv_j += dropped_prob_j * dout_i; the softmax VJP needs
        // D = sum_j dprob_j * prob_j (post-dropout dprob, pre-dropout prob).
        float dsum = 0.0f;
        for (int64_t j = 0; j < tk; ++j) {
          float* dvj = dvb + j * hidden;
          const float pdj = pd[j];
          for (int64_t d = 0; d < dh; ++d) {
            dvj[d] = MulAdd(pdj, dorow[d], dvj[d]);
          }
          dsum += dprob[j] * prob[j];
        }

        // ds[j] = prob_j * (dprob_j - D); fold the score scale here and
        // scatter into dq_i and dk_j.
        float* dqrow = dqb + i * hidden;
        for (int64_t j = 0; j < tk; ++j) {
          const float dscore = prob[j] * (dprob[j] - dsum) * cfg.scale;
          const float* krow = kb + j * hidden;
          float* dkrow = dkb + j * hidden;
          for (int64_t d = 0; d < dh; ++d) {
            dqrow[d] = MulAdd(dscore, krow[d], dqrow[d]);
            dkrow[d] = MulAdd(dscore, qrow[d], dkrow[d]);
          }
        }
      }
    }
  });
}

}  // namespace ops
}  // namespace emx
