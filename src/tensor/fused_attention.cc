#include "tensor/fused_attention.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/trace.h"
#include "tensor/kernel_math.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__FMA__)
// GCC 12's AVX-512 intrinsics seed their unmasked forms from a
// self-initialized "undefined" vector, which -Wmaybe-uninitialized reports
// at every inlined use; the warning is about the header, not this file.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define EMX_ATTN_AVX512 1
#endif

namespace emx {
namespace ops {
namespace {

// Tiling: each forward work item is one (batch, head, row-tile) triple.
// Scores for the kRowTile query rows live in thread-local scratch shaped
// [kRowTile, Tk] — the only place a score row ever exists. The portable
// loops stream K through a [head_dim, kColTile] transposed pack so the dot
// products vectorize across columns; kColTile also bounds the on-stack
// accumulator of their score micro-loop.
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

/// Everything one kernel invocation shares: shapes, raw pointers and the
/// resolved config. The portable loops and the AVX-512 tiles read the same
/// struct, so the two stay interchangeable per work item.
struct AttnArgs {
  int64_t b = 0, tq = 0, tk = 0, hidden = 0, heads = 0, dh = 0;
  MaskView mask;
  float scale = 1.0f;
  float penalty = 0.0f;
  float dead_threshold = 0.0f;
  bool dropout = false;
  uint64_t dropout_seed = 0;
  uint64_t drop_thresh = 0;
  float inv_keep = 1.0f;
  // Forward: q, k, v in, out and (when non-null) the row stats out.
  // Backward: also dout and the saved row stats in, dq/dk/dv accumulated.
  const float* q = nullptr;
  const float* k = nullptr;
  const float* v = nullptr;
  const float* dout = nullptr;
  float* out = nullptr;
  float* row_max = nullptr;
  float* row_sum = nullptr;
  const float* saved_max = nullptr;
  const float* saved_sum = nullptr;
  float* dq = nullptr;
  float* dk = nullptr;
  float* dv = nullptr;
  int64_t row_tiles = 0;
};

AttnArgs MakeArgs(const Tensor& q, const Tensor& k, const Tensor& mask,
                  const FusedAttentionConfig& cfg) {
  AttnArgs a;
  a.b = q.dim(0);
  a.tq = q.dim(1);
  a.tk = k.dim(1);
  a.hidden = q.dim(2);
  a.heads = cfg.num_heads;
  a.dh = a.hidden / a.heads;
  a.mask = ResolveMask(mask, a.b, a.heads, a.tq, a.tk);
  a.scale = cfg.scale;
  a.penalty = cfg.penalty;
  a.dead_threshold = cfg.penalty * 0.5f;
  a.dropout = cfg.dropout;
  a.dropout_seed = cfg.dropout_seed;
  a.drop_thresh = cfg.dropout ? DropoutThreshold(cfg.dropout_p) : 0;
  a.inv_keep = cfg.dropout ? 1.0f / (1.0f - cfg.dropout_p) : 1.0f;
  a.q = q.data();
  a.k = k.data();
  a.row_tiles = (a.tq + kRowTile - 1) / kRowTile;
  return a;
}

// ---- Portable loops --------------------------------------------------------
//
// The only path on builds without AVX-512 and for head_dim % 16 != 0, and
// the reference the AVX-512 tiles are tested bit-identical against.

void ForwardItemsScalar(const AttnArgs& a, int64_t begin, int64_t end) {
  const int64_t heads = a.heads, row_tiles = a.row_tiles, tq = a.tq,
                tk = a.tk, hidden = a.hidden, dh = a.dh;
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
    const float* qb = a.q + bi * tq * hidden + hi * dh;
    const float* kb = a.k + bi * tk * hidden + hi * dh;
    const float* vb = a.v + bi * tk * hidden + hi * dh;
    float* ob = a.out + bi * tq * hidden + hi * dh;

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
        const float* mrow = a.mask.Row(bi, hi, i0 + i);
        float* srow = scores + i * tk + j0;
        if (mrow != nullptr) {
          for (int64_t jj = 0; jj < jb; ++jj) {
            const float s = acc[jj] * a.scale;
            srow[jj] = Select(mrow[j0 + jj] != 0.0f, s + a.penalty, s);
          }
        } else {
          for (int64_t jj = 0; jj < jb; ++jj) srow[jj] = acc[jj] * a.scale;
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
      if (a.row_max != nullptr) {
        const int64_t stat = (bi * heads + hi) * tq + i0 + i;
        a.row_max[stat] = m;
        a.row_sum[stat] = denom;
      }
      if (m < a.dead_threshold) {
        for (int64_t j = 0; j < tk; ++j) srow[j] = 0.0f;
      } else {
        const float inv = 1.0f / denom;
        for (int64_t j = 0; j < tk; ++j) srow[j] *= inv;
      }
      if (a.dropout) {
        const int64_t base = ((bi * heads + hi) * tq + i0 + i) * tk;
        for (int64_t j = 0; j < tk; ++j) {
          srow[j] *= Select(
              DropoutHash(a.dropout_seed, base + j) < a.drop_thresh, 0.0f,
              a.inv_keep);
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
}

void BackwardItemsScalar(const AttnArgs& a, int64_t begin, int64_t end) {
  const int64_t heads = a.heads, tq = a.tq, tk = a.tk, hidden = a.hidden,
                dh = a.dh;
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
    const float* qb = a.q + bi * tq * hidden + hi * dh;
    const float* kb = a.k + bi * tk * hidden + hi * dh;
    const float* vb = a.v + bi * tk * hidden + hi * dh;
    const float* dob = a.dout + bi * tq * hidden + hi * dh;
    float* dqb = a.dq + bi * tq * hidden + hi * dh;
    float* dkb = a.dk + bi * tk * hidden + hi * dh;
    float* dvb = a.dv + bi * tk * hidden + hi * dh;

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
      const float m = a.saved_max[stat];
      // Fully-masked rows attended to nothing in the forward pass
      // (probs all zero), so they propagate nothing backward.
      const float inv_l =
          m < a.dead_threshold ? 0.0f : 1.0f / a.saved_sum[stat];
      const float* mrow = a.mask.Row(bi, hi, i);

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
          const float s = prob[j] * a.scale;
          prob[j] = Select(mrow[j] != 0.0f, s + a.penalty, s);
        }
      } else {
        for (int64_t j = 0; j < tk; ++j) prob[j] *= a.scale;
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
      if (a.dropout) {
        const int64_t base = ((bi * heads + hi) * tq + i) * tk;
        for (int64_t j = 0; j < tk; ++j) {
          const float ds = Select(
              DropoutHash(a.dropout_seed, base + j) < a.drop_thresh, 0.0f,
              a.inv_keep);
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
        dsum = MulAdd(dprob[j], prob[j], dsum);
      }

      // ds[j] = prob_j * (dprob_j - D); fold the score scale here and
      // scatter into dq_i and dk_j.
      float* dqrow = dqb + i * hidden;
      for (int64_t j = 0; j < tk; ++j) {
        const float dscore = prob[j] * (dprob[j] - dsum) * a.scale;
        const float* krow = kb + j * hidden;
        float* dkrow = dkb + j * hidden;
        for (int64_t d = 0; d < dh; ++d) {
          dqrow[d] = MulAdd(dscore, krow[d], dqrow[d]);
          dkrow[d] = MulAdd(dscore, qrow[d], dkrow[d]);
        }
      }
    }
  }
}

#ifdef EMX_ATTN_AVX512

// ---- AVX-512 register tiles --------------------------------------------------
//
// Same arithmetic as the portable loops, element for element: every score
// and dprob is one ascending-d _mm512_fmadd_ps chain from zero, every
// context / dq / dk / dv element one ascending chain over its streamed index
// from its initial value, and the exp, LaneSum, normalize, dropout and
// softmax-VJP steps perform the scalar operations in the scalar order, 16
// lanes at a time. MulAdd is std::fma on these builds (FMA is required
// here), so each lane rounds exactly like the scalar step it replaces. Only
// the loop nest changes: a tile keeps its accumulators in zmm registers for
// the whole reduction instead of a load, an FMA and a store per step.

constexpr int64_t kLanes = 16;
constexpr int kTileRows = 4;   // rows per register tile
constexpr int kTileVecs = 4;   // 16-lane vectors per register tile row

inline int64_t RoundUpLanes(int64_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

inline __mmask16 LiveLanes(int64_t n) {
  return n >= kLanes ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>((1u << n) - 1u);
}

/// ExpApprox (kernel_math.h) on 16 lanes: the same clamps, Cody-Waite
/// steps, polynomial and exponent-bit scale, each a single-rounding op.
inline __m512 ExpApprox16(__m512 x) {
  using namespace exp_approx;
  const __m512 lo = _mm512_set1_ps(kLo);
  const __m512 hi = _mm512_set1_ps(kHi);
  const __m512 shifter = _mm512_set1_ps(kShifter);
  const __mmask16 below = _mm512_cmp_ps_mask(x, lo, _CMP_LT_OQ);
  const __mmask16 above = _mm512_cmp_ps_mask(x, hi, _CMP_GT_OQ);
  const __m512 xc = _mm512_mask_blend_ps(above,
                                         _mm512_mask_blend_ps(below, x, lo), hi);
  const __m512 t = _mm512_fmadd_ps(xc, _mm512_set1_ps(kLog2e), shifter);
  const __m512 nf = _mm512_sub_ps(t, shifter);
  const __m512i n = _mm512_sub_epi32(_mm512_castps_si512(t),
                                     _mm512_castps_si512(shifter));
  __m512 r = _mm512_fmadd_ps(nf, _mm512_set1_ps(-kLn2Hi), xc);
  r = _mm512_fmadd_ps(nf, _mm512_set1_ps(-kLn2Lo), r);
  __m512 p = _mm512_set1_ps(kQ4);
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kQ3));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kQ2));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kQ1));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(0.5f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  __m512 y = _mm512_castsi512_ps(_mm512_add_epi32(
      _mm512_castps_si512(p), _mm512_slli_epi32(n, 23)));
  y = _mm512_mask_blend_ps(below, y, _mm512_setzero_ps());
  y = _mm512_mask_blend_ps(
      above, y, _mm512_set1_ps(std::numeric_limits<float>::infinity()));
  return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), y, x);
}

/// Adds one 16-lane chunk of a row, `live` lanes of it, into LaneSum's
/// eight running sums (the low 8 lanes of `acc`): the chunk's first eight
/// elements, then its last eight, exactly the order LaneSum walks them.
inline __m512 LaneSumStep(__m512 acc, __m512 x, __mmask16 live) {
  acc = _mm512_mask_add_ps(acc, static_cast<__mmask16>(live & 0xFF), acc, x);
  return _mm512_mask_add_ps(acc, static_cast<__mmask16>(live >> 8), acc,
                            _mm512_shuffle_f32x4(x, x, 0xEE));
}

/// LaneSum's final pairwise combine of the eight running sums.
inline float LaneSumCombine(__m512 acc) {
  alignas(64) float l[kLanes];
  _mm512_store_ps(l, acc);
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

/// Dst[d, j] = src[j, d] for j < n, d < dh (src rows `ld` apart); columns
/// [n, ldt) of each packed row are zero, so tiles may load whole vectors.
void PackTransposed(const float* src, int64_t ld, int64_t n, int64_t dh,
                    int64_t ldt, float* dst) {
  for (int64_t j = 0; j < n; ++j) {
    const float* row = src + j * ld;
    for (int64_t d = 0; d < dh; ++d) dst[d * ldt + j] = row[d];
  }
  for (int64_t d = 0; d < dh; ++d) {
    std::fill(dst + d * ldt + n, dst + (d + 1) * ldt, 0.0f);
  }
}

/// Score epilogue of a tile: what the portable loops do to an accumulated
/// dot product before it is stored.
struct ScoreEpilogue {
  bool scale_mask = false;  // s = acc * scale, then + penalty if blocked
  float scale = 1.0f;
  float penalty = 0.0f;
  const float* const* mask_rows = nullptr;  // per tile row; null = no mask
  __m512* row_max = nullptr;  // per tile row running max; null = none
};

/// R rows x C vectors of x . packed^T: out[r, j0 + 16c + l] is the
/// ascending-d MulAdd chain from zero of x[r, d] * packed[d, j0 + 16c + l].
/// x rows are `ldx` apart, packed rows `ldp`, out rows `ldo`; columns at
/// or past `n` are neither stored nor folded into the row max.
template <int R, int C>
void DotTile(const float* x, int64_t ldx, const float* packed, int64_t ldp,
             int64_t dh, int64_t j0, int64_t n, const ScoreEpilogue& ep,
             float* out, int64_t ldo) {
  __m512 acc[R][C];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) acc[r][c] = _mm512_setzero_ps();
  }
  const float* pk = packed + j0;
  for (int64_t d = 0; d < dh; ++d) {
    __m512 kv[C];
    for (int c = 0; c < C; ++c) kv[c] = _mm512_loadu_ps(pk + d * ldp + c * kLanes);
    for (int r = 0; r < R; ++r) {
      const __m512 xd = _mm512_set1_ps(x[r * ldx + d]);
      for (int c = 0; c < C; ++c) acc[r][c] = _mm512_fmadd_ps(xd, kv[c], acc[r][c]);
    }
  }
  const __m512 scale = _mm512_set1_ps(ep.scale);
  const __m512 penalty = _mm512_set1_ps(ep.penalty);
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      const int64_t j = j0 + c * kLanes;
      const __mmask16 live = LiveLanes(n - j);
      __m512 s = acc[r][c];
      if (ep.scale_mask) {
        s = _mm512_mul_ps(s, scale);
        if (ep.mask_rows[r] != nullptr) {
          const __m512 mv = _mm512_maskz_loadu_ps(live, ep.mask_rows[r] + j);
          const __mmask16 blocked =
              _mm512_cmp_ps_mask(mv, _mm512_setzero_ps(), _CMP_NEQ_UQ);
          s = _mm512_mask_add_ps(s, blocked, s, penalty);
        }
      }
      _mm512_mask_storeu_ps(out + r * ldo + j, live, s);
      if (ep.row_max != nullptr) {
        // std::max(m, s) keeps m unless m < s, so a NaN score never wins.
        ep.row_max[r] = _mm512_mask_max_ps(ep.row_max[r], live, s, ep.row_max[r]);
      }
    }
  }
}

/// DotTile over all of rows [0, rows) and columns [0, n), 4 x 4 tiles
/// with narrower tiles for the row and column tails.
template <int R>
void DotRows(const float* x, int64_t ldx, const float* packed, int64_t ldp,
             int64_t dh, int64_t n, const ScoreEpilogue& ep, float* out,
             int64_t ldo) {
  for (int64_t j0 = 0; j0 < n; j0 += kTileVecs * kLanes) {
    switch (std::min<int64_t>(kTileVecs, (n - j0 + kLanes - 1) / kLanes)) {
      case 1: DotTile<R, 1>(x, ldx, packed, ldp, dh, j0, n, ep, out, ldo); break;
      case 2: DotTile<R, 2>(x, ldx, packed, ldp, dh, j0, n, ep, out, ldo); break;
      case 3: DotTile<R, 3>(x, ldx, packed, ldp, dh, j0, n, ep, out, ldo); break;
      default: DotTile<R, 4>(x, ldx, packed, ldp, dh, j0, n, ep, out, ldo); break;
    }
  }
}

/// Rows [0, rows) of x . packed^T (see DotTile); `ep.mask_rows` and
/// `ep.row_max` are indexed by absolute row.
void DotAll(const float* x, int64_t ldx, const float* packed, int64_t ldp,
            int64_t dh, int64_t rows, int64_t n, ScoreEpilogue ep, float* out,
            int64_t ldo) {
  const float* const* mask_rows = ep.mask_rows;
  __m512* row_max = ep.row_max;
  for (int64_t i = 0; i < rows; i += kTileRows) {
    if (mask_rows != nullptr) ep.mask_rows = mask_rows + i;
    if (row_max != nullptr) ep.row_max = row_max + i;
    const float* xi = x + i * ldx;
    float* oi = out + i * ldo;
    switch (std::min<int64_t>(kTileRows, rows - i)) {
      case 1: DotRows<1>(xi, ldx, packed, ldp, dh, n, ep, oi, ldo); break;
      case 2: DotRows<2>(xi, ldx, packed, ldp, dh, n, ep, oi, ldo); break;
      case 3: DotRows<3>(xi, ldx, packed, ldp, dh, n, ep, oi, ldo); break;
      default: DotRows<4>(xi, ldx, packed, ldp, dh, n, ep, oi, ldo); break;
    }
  }
}

/// R output rows x C vectors: out[r, 16c + l] = MulAdd chain, ascending
/// y over [0, ny), of coef(r, y) * b[y, 16c + l], starting from the value
/// out already holds. coef(r, y) = coef[r * cr + y * cy], so the same tile
/// streams the prob rows (context, dq) or the prob columns (dv, dk).
template <int R, int C>
void AccumulateTile(const float* coef, int64_t cr, int64_t cy, int64_t ny,
                    const float* b, int64_t ldb, float* out, int64_t ldo) {
  __m512 acc[R][C];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) acc[r][c] = _mm512_loadu_ps(out + r * ldo + c * kLanes);
  }
  for (int64_t y = 0; y < ny; ++y) {
    __m512 bv[C];
    for (int c = 0; c < C; ++c) bv[c] = _mm512_loadu_ps(b + y * ldb + c * kLanes);
    for (int r = 0; r < R; ++r) {
      const __m512 a = _mm512_set1_ps(coef[r * cr + y * cy]);
      for (int c = 0; c < C; ++c) acc[r][c] = _mm512_fmadd_ps(a, bv[c], acc[r][c]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) _mm512_storeu_ps(out + r * ldo + c * kLanes, acc[r][c]);
  }
}

template <int R>
void AccumulateRows(const float* coef, int64_t cr, int64_t cy, int64_t ny,
                    const float* b, int64_t ldb, int64_t dh, float* out,
                    int64_t ldo) {
  for (int64_t d0 = 0; d0 < dh; d0 += kTileVecs * kLanes) {
    const float* bd = b + d0;
    float* od = out + d0;
    switch (std::min<int64_t>(kTileVecs, (dh - d0) / kLanes)) {
      case 1: AccumulateTile<R, 1>(coef, cr, cy, ny, bd, ldb, od, ldo); break;
      case 2: AccumulateTile<R, 2>(coef, cr, cy, ny, bd, ldb, od, ldo); break;
      case 3: AccumulateTile<R, 3>(coef, cr, cy, ny, bd, ldb, od, ldo); break;
      default: AccumulateTile<R, 4>(coef, cr, cy, ny, bd, ldb, od, ldo); break;
    }
  }
}

/// out[x, d] += sum over ascending y of coef(x, y) * b[y, d] for x in
/// [0, nx), d in [0, dh) (dh a multiple of 16); see AccumulateTile.
void AccumulateAll(const float* coef, int64_t cx, int64_t cy, int64_t nx,
                   int64_t ny, const float* b, int64_t ldb, int64_t dh,
                   float* out, int64_t ldo) {
  for (int64_t x = 0; x < nx; x += kTileRows) {
    const float* cxp = coef + x * cx;
    float* ox = out + x * ldo;
    switch (std::min<int64_t>(kTileRows, nx - x)) {
      case 1: AccumulateRows<1>(cxp, cx, cy, ny, b, ldb, dh, ox, ldo); break;
      case 2: AccumulateRows<2>(cxp, cx, cy, ny, b, ldb, dh, ox, ldo); break;
      case 3: AccumulateRows<3>(cxp, cx, cy, ny, b, ldb, dh, ox, ldo); break;
      default: AccumulateRows<4>(cxp, cx, cy, ny, b, ldb, dh, ox, ldo); break;
    }
  }
}

/// Eight dropout decisions, DropoutHash(seed, i) < threshold for
/// i = first .. first + 7: the SplitMix64 hash in 64-bit lanes (vpmullq) is
/// exact integer arithmetic, so every lane makes the scalar decision.
inline __mmask8 Dropped8(__m512i seed, __m512i thresh, int64_t first) {
  const __m512i i = _mm512_add_epi64(_mm512_set1_epi64(first),
                                     _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
  __m512i x = _mm512_add_epi64(
      _mm512_mullo_epi64(i, _mm512_set1_epi64(0xd1342543de82ef95LL)),
      _mm512_set1_epi64(0x2545f4914f6cdd1dLL));
  x = _mm512_xor_si512(seed, x);
  x = _mm512_add_epi64(x, _mm512_set1_epi64(0x9e3779b97f4a7c15LL));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                         _mm512_set1_epi64(0xbf58476d1ce4e5b9LL));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                         _mm512_set1_epi64(0x94d049bb133111ebLL));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
  return _mm512_cmplt_epu64_mask(x, thresh);
}

/// The dropout factors of elements idx .. idx + 15, each
/// Select(DropoutHash(seed, i) < threshold, 0, inv_keep) as in the portable
/// loops.
struct DropoutLanes {
  __m512i seed;
  __m512i thresh;
  __m512 keep;

  explicit DropoutLanes(const AttnArgs& a)
      : seed(_mm512_set1_epi64(static_cast<int64_t>(a.dropout_seed))),
        thresh(_mm512_set1_epi64(static_cast<int64_t>(a.drop_thresh))),
        keep(_mm512_set1_ps(a.inv_keep)) {}

  __m512 Factors(int64_t idx) const {
    const __mmask16 dropped = _mm512_kunpackb(Dropped8(seed, thresh, idx + 8),
                                              Dropped8(seed, thresh, idx));
    return _mm512_mask_blend_ps(dropped, keep, _mm512_setzero_ps());
  }
};

void ForwardItemsTiled(const AttnArgs& a, int64_t begin, int64_t end) {
  const int64_t heads = a.heads, row_tiles = a.row_tiles, tq = a.tq,
                tk = a.tk, hidden = a.hidden, dh = a.dh;
  const int64_t ld = RoundUpLanes(tk);
  thread_local std::vector<float> t_scores;  // [kRowTile, ld] probs
  thread_local std::vector<float> t_kpack;   // K^T of one (b, h), [dh, ld]
  float* scores = Scratch(&t_scores, kRowTile * ld);
  float* kpack = Scratch(&t_kpack, dh * ld);
  const DropoutLanes drop(a);
  // Consecutive items of a chunk share their (b, h) until the row tiles
  // run out, so K^T is packed once per (b, h) per chunk.
  int64_t packed_bh = -1;

  for (int64_t item = begin; item < end; ++item) {
    const int64_t bh = item / row_tiles;
    const int64_t bi = bh / heads;
    const int64_t hi = bh % heads;
    const int64_t i0 = (item % row_tiles) * kRowTile;
    const int64_t br = std::min(i0 + kRowTile, tq) - i0;
    const float* qb = a.q + bi * tq * hidden + hi * dh;
    const float* kb = a.k + bi * tk * hidden + hi * dh;
    const float* vb = a.v + bi * tk * hidden + hi * dh;
    float* ob = a.out + bi * tq * hidden + hi * dh;
    if (bh != packed_bh) {
      PackTransposed(kb, hidden, tk, dh, ld, kpack);
      packed_bh = bh;
    }

    // Pass 1: scaled, masked scores and their running row max.
    __m512 row_max[kRowTile];
    const float* mask_rows[kRowTile];
    for (int64_t i = 0; i < br; ++i) {
      row_max[i] = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
      mask_rows[i] = a.mask.Row(bi, hi, i0 + i);
    }
    ScoreEpilogue ep;
    ep.scale_mask = true;
    ep.scale = a.scale;
    ep.penalty = a.penalty;
    ep.mask_rows = mask_rows;
    ep.row_max = row_max;
    DotAll(qb + i0 * hidden, hidden, kpack, ld, dh, br, tk, ep, scores, ld);

    // Pass 2: exp, LaneSum, normalize, dropout.
    for (int64_t i = 0; i < br; ++i) {
      float* srow = scores + i * ld;
      // The lanes hold no NaN (see DotTile), so any reduction order gives
      // the scalar loop's max.
      const float m = _mm512_reduce_max_ps(row_max[i]);
      const __m512 mv = _mm512_set1_ps(m);
      __m512 sums = _mm512_setzero_ps();
      for (int64_t j = 0; j < tk; j += kLanes) {
        const __mmask16 live = LiveLanes(tk - j);
        const __m512 e =
            ExpApprox16(_mm512_sub_ps(_mm512_loadu_ps(srow + j), mv));
        _mm512_storeu_ps(srow + j, e);
        sums = LaneSumStep(sums, e, live);
      }
      const float denom = LaneSumCombine(sums);
      if (a.row_max != nullptr) {
        const int64_t stat = (bi * heads + hi) * tq + i0 + i;
        a.row_max[stat] = m;
        a.row_sum[stat] = denom;
      }
      // Fully-masked rows attend to nothing: zeros, as in the portable loop.
      const bool dead = m < a.dead_threshold;
      const __m512 inv = _mm512_set1_ps(dead ? 0.0f : 1.0f / denom);
      const int64_t base = ((bi * heads + hi) * tq + i0 + i) * tk;
      for (int64_t j = 0; j < tk; j += kLanes) {
        __m512 p = dead ? _mm512_setzero_ps()
                        : _mm512_mul_ps(_mm512_loadu_ps(srow + j), inv);
        if (a.dropout) p = _mm512_mul_ps(p, drop.Factors(base + j));
        _mm512_storeu_ps(srow + j, p);
      }
    }

    // Pass 3: context rows, 4 rows x dh/16 vectors per tile, streaming V.
    AccumulateAll(scores, ld, 1, br, tk, vb, hidden, dh, ob + i0 * hidden,
                  hidden);
  }
}

void BackwardItemsTiled(const AttnArgs& a, int64_t begin, int64_t end) {
  const int64_t heads = a.heads, tq = a.tq, tk = a.tk, hidden = a.hidden,
                dh = a.dh;
  const int64_t ld = RoundUpLanes(tk);
  thread_local std::vector<float> t_kpack;  // K^T, [dh, ld]
  thread_local std::vector<float> t_vpack;  // V^T, [dh, ld]
  thread_local std::vector<float> t_prob;   // probs, [Tq, ld]
  thread_local std::vector<float> t_ds;     // dprob, then dscore, [Tq, ld]
  thread_local std::vector<float> t_pd;     // probs after dropout, [Tq, ld]
  float* kpack = Scratch(&t_kpack, dh * ld);
  float* vpack = Scratch(&t_vpack, dh * ld);
  float* prob = Scratch(&t_prob, tq * ld);
  float* ds = Scratch(&t_ds, tq * ld);
  float* pd = a.dropout ? Scratch(&t_pd, tq * ld) : prob;
  const DropoutLanes drop(a);
  thread_local std::vector<const float*> t_mask_rows;
  if (static_cast<int64_t>(t_mask_rows.size()) < tq) {
    t_mask_rows.resize(static_cast<size_t>(tq));
  }
  const float** mask_rows = t_mask_rows.data();

  for (int64_t item = begin; item < end; ++item) {
    const int64_t bi = item / heads;
    const int64_t hi = item % heads;
    const float* qb = a.q + bi * tq * hidden + hi * dh;
    const float* kb = a.k + bi * tk * hidden + hi * dh;
    const float* vb = a.v + bi * tk * hidden + hi * dh;
    const float* dob = a.dout + bi * tq * hidden + hi * dh;
    float* dqb = a.dq + bi * tq * hidden + hi * dh;
    float* dkb = a.dk + bi * tk * hidden + hi * dh;
    float* dvb = a.dv + bi * tk * hidden + hi * dh;
    PackTransposed(kb, hidden, tk, dh, ld, kpack);
    PackTransposed(vb, hidden, tk, dh, ld, vpack);

    // Scores (as in the forward's pass 1) and dprob = dout . v^T, whole
    // [Tq, Tk] per (b, h): dk and dv stream their columns in ascending i.
    for (int64_t i = 0; i < tq; ++i) mask_rows[i] = a.mask.Row(bi, hi, i);
    ScoreEpilogue score_ep;
    score_ep.scale_mask = true;
    score_ep.scale = a.scale;
    score_ep.penalty = a.penalty;
    score_ep.mask_rows = mask_rows;
    DotAll(qb, hidden, kpack, ld, dh, tq, tk, score_ep, prob, ld);
    DotAll(dob, hidden, vpack, ld, dh, tq, tk, ScoreEpilogue(), ds, ld);

    for (int64_t i = 0; i < tq; ++i) {
      const int64_t stat = (bi * heads + hi) * tq + i;
      const float m = a.saved_max[stat];
      const float inv_l =
          m < a.dead_threshold ? 0.0f : 1.0f / a.saved_sum[stat];
      const __m512 mv = _mm512_set1_ps(m);
      const __m512 inv = _mm512_set1_ps(inv_l);
      float* prow = prob + i * ld;
      float* drow = ds + i * ld;
      float* pdrow = pd + i * ld;
      for (int64_t j = 0; j < tk; j += kLanes) {
        const __m512 p = _mm512_mul_ps(
            ExpApprox16(_mm512_sub_ps(_mm512_loadu_ps(prow + j), mv)), inv);
        _mm512_storeu_ps(prow + j, p);
        if (a.dropout) {
          const __m512 f = drop.Factors(stat * tk + j);
          _mm512_storeu_ps(pdrow + j, _mm512_mul_ps(p, f));
          _mm512_storeu_ps(drow + j,
                           _mm512_mul_ps(_mm512_loadu_ps(drow + j), f));
        }
      }
    }

    // D_i = sum_j dprob_ij * prob_ij, one ascending-j chain per row as in
    // the portable loop; eight rows' chains interleave.
    constexpr int64_t kChains = 8;
    for (int64_t i0 = 0; i0 < tq; i0 += kChains) {
      const int64_t rows = std::min(kChains, tq - i0);
      float dsum[kChains] = {};
      for (int64_t j = 0; j < tk; ++j) {
        for (int64_t r = 0; r < rows; ++r) {
          dsum[r] = MulAdd(ds[(i0 + r) * ld + j], prob[(i0 + r) * ld + j],
                           dsum[r]);
        }
      }
      // dscore_ij = prob_ij * (dprob_ij - D_i) * scale, in place of dprob.
      const __m512 scale = _mm512_set1_ps(a.scale);
      for (int64_t r = 0; r < rows; ++r) {
        const __m512 d_i = _mm512_set1_ps(dsum[r]);
        float* prow = prob + (i0 + r) * ld;
        float* drow = ds + (i0 + r) * ld;
        for (int64_t j = 0; j < tk; j += kLanes) {
          const __m512 g = _mm512_mul_ps(
              _mm512_mul_ps(_mm512_loadu_ps(prow + j),
                            _mm512_sub_ps(_mm512_loadu_ps(drow + j), d_i)),
              scale);
          _mm512_storeu_ps(drow + j, g);
        }
      }
    }

    // dv_j += sum_i dropped_prob_ij dout_i and dk_j += sum_i dscore_ij q_i
    // (columns of the [Tq, Tk] scratch, ascending i); dq_i += sum_j
    // dscore_ij k_j (rows, ascending j).
    AccumulateAll(pd, 1, ld, tk, tq, dob, hidden, dh, dvb, hidden);
    AccumulateAll(ds, 1, ld, tk, tq, qb, hidden, dh, dkb, hidden);
    AccumulateAll(ds, ld, 1, tq, tk, kb, hidden, dh, dqb, hidden);
  }
}

#endif  // EMX_ATTN_AVX512

Tensor ForwardImpl(const Tensor& q, const Tensor& k, const Tensor& v,
                   const Tensor& mask, const FusedAttentionConfig& cfg,
                   Tensor* row_max, Tensor* row_sum, bool allow_tiles) {
  CheckQkvShapes(q, k, v, cfg.num_heads);
  AttnArgs a = MakeArgs(q, k, mask, cfg);
  EMX_TRACE_SPAN("kernel.fused_attention", [&] {
    return obs::KeyValues(
        {{"batch", a.b}, {"tq", a.tq}, {"tk", a.tk}, {"heads", a.heads}});
  });
  Tensor out({a.b, a.tq, a.hidden});
  if (row_max != nullptr) *row_max = Tensor({a.b, a.heads, a.tq});
  if (row_sum != nullptr) *row_sum = Tensor({a.b, a.heads, a.tq});
  a.v = v.data();
  a.out = out.data();
  a.row_max = row_max != nullptr ? row_max->data() : nullptr;
  a.row_sum = row_sum != nullptr ? row_sum->data() : nullptr;

  const int64_t total_items = a.b * a.heads * a.row_tiles;
  const int64_t item_flops = std::max<int64_t>(
      1, 4 * std::min(kRowTile, a.tq) * a.tk * a.dh);
  const int64_t grain = std::max<int64_t>(1, (1 << 18) / item_flops);
#ifdef EMX_ATTN_AVX512
  if (allow_tiles && FusedAttentionUsesTiles(a.dh)) {
    ParallelFor(total_items, grain, [&](int64_t begin, int64_t end) {
      ForwardItemsTiled(a, begin, end);
    });
    return out;
  }
#else
  (void)allow_tiles;
#endif
  ParallelFor(total_items, grain, [&](int64_t begin, int64_t end) {
    ForwardItemsScalar(a, begin, end);
  });
  return out;
}

void BackwardImpl(const Tensor& dout, const Tensor& q, const Tensor& k,
                  const Tensor& v, const Tensor& mask,
                  const FusedAttentionConfig& cfg, const Tensor& row_max,
                  const Tensor& row_sum, Tensor* dq, Tensor* dk, Tensor* dv,
                  bool allow_tiles) {
  EMX_TRACE_SPAN("kernel.fused_attention_bwd");
  CheckQkvShapes(q, k, v, cfg.num_heads);
  EMX_CHECK(dout.shape() == q.shape());
  EMX_CHECK(dq->shape() == q.shape());
  EMX_CHECK(dk->shape() == k.shape());
  EMX_CHECK(dv->shape() == v.shape());
  AttnArgs a = MakeArgs(q, k, mask, cfg);
  EMX_CHECK_EQ(row_max.size(), a.b * a.heads * a.tq)
      << "FusedAttentionBackward needs the forward row stats";
  a.v = v.data();
  a.dout = dout.data();
  a.saved_max = row_max.data();
  a.saved_sum = row_sum.data();
  a.dq = dq->data();
  a.dk = dk->data();
  a.dv = dv->data();

  // One work item per (batch, head): the item owns its (b, h) slices of
  // dq, dk and dv outright, so accumulation needs no atomics and stays
  // deterministic at any thread count.
#ifdef EMX_ATTN_AVX512
  if (allow_tiles && FusedAttentionUsesTiles(a.dh)) {
    ParallelFor(a.b * a.heads, 1, [&](int64_t begin, int64_t end) {
      BackwardItemsTiled(a, begin, end);
    });
    return;
  }
#else
  (void)allow_tiles;
#endif
  ParallelFor(a.b * a.heads, 1, [&](int64_t begin, int64_t end) {
    BackwardItemsScalar(a, begin, end);
  });
}

}  // namespace

Tensor FusedAttentionForward(const Tensor& q, const Tensor& k,
                             const Tensor& v, const Tensor& mask,
                             const FusedAttentionConfig& cfg, Tensor* row_max,
                             Tensor* row_sum) {
  return ForwardImpl(q, k, v, mask, cfg, row_max, row_sum,
                     /*allow_tiles=*/true);
}

Tensor FusedAttentionForwardScalar(const Tensor& q, const Tensor& k,
                                   const Tensor& v, const Tensor& mask,
                                   const FusedAttentionConfig& cfg,
                                   Tensor* row_max, Tensor* row_sum) {
  return ForwardImpl(q, k, v, mask, cfg, row_max, row_sum,
                     /*allow_tiles=*/false);
}

void FusedAttentionBackward(const Tensor& dout, const Tensor& q,
                            const Tensor& k, const Tensor& v,
                            const Tensor& mask,
                            const FusedAttentionConfig& cfg,
                            const Tensor& row_max, const Tensor& row_sum,
                            Tensor* dq, Tensor* dk, Tensor* dv) {
  BackwardImpl(dout, q, k, v, mask, cfg, row_max, row_sum, dq, dk, dv,
               /*allow_tiles=*/true);
}

void FusedAttentionBackwardScalar(const Tensor& dout, const Tensor& q,
                                  const Tensor& k, const Tensor& v,
                                  const Tensor& mask,
                                  const FusedAttentionConfig& cfg,
                                  const Tensor& row_max,
                                  const Tensor& row_sum, Tensor* dq,
                                  Tensor* dk, Tensor* dv) {
  BackwardImpl(dout, q, k, v, mask, cfg, row_max, row_sum, dq, dk, dv,
               /*allow_tiles=*/false);
}

bool FusedAttentionUsesTiles(int64_t head_dim) {
#ifdef EMX_ATTN_AVX512
  return head_dim % 16 == 0;
#else
  (void)head_dim;
  return false;
#endif
}

}  // namespace ops
}  // namespace emx
