#include "tensor/autograd_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/fused_attention.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace emx {
namespace autograd {
namespace {

/// Accumulates `delta` into the parent's gradient if it wants one.
void AccumulateGrad(const Variable& parent, const Tensor& delta) {
  if (parent.requires_grad()) {
    parent.node()->EnsureGrad().AddInPlace(delta);
  }
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  Tensor value = ops::Add(a.value(), b.value());
  return Variable::MakeOpResult(
      std::move(value), {a, b},
      [a, b](const Tensor& g) {
        AccumulateGrad(a, g);
        AccumulateGrad(b, g);
      },
      "add");
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor value = ops::Sub(a.value(), b.value());
  return Variable::MakeOpResult(
      std::move(value), {a, b},
      [a, b](const Tensor& g) {
        AccumulateGrad(a, g);
        if (b.requires_grad()) {
          Tensor neg = ops::MulScalar(g, -1.0f);
          AccumulateGrad(b, neg);
        }
      },
      "sub");
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor value = ops::Mul(a.value(), b.value());
  return Variable::MakeOpResult(
      std::move(value), {a, b},
      [a, b](const Tensor& g) {
        if (a.requires_grad()) AccumulateGrad(a, ops::Mul(g, b.value()));
        if (b.requires_grad()) AccumulateGrad(b, ops::Mul(g, a.value()));
      },
      "mul");
}

Variable MulScalar(const Variable& a, float s) {
  Tensor value = ops::MulScalar(a.value(), s);
  return Variable::MakeOpResult(
      std::move(value), {a},
      [a, s](const Tensor& g) { AccumulateGrad(a, ops::MulScalar(g, s)); },
      "mul_scalar");
}

Variable AddScalar(const Variable& a, float s) {
  Tensor value = ops::AddScalar(a.value(), s);
  return Variable::MakeOpResult(
      std::move(value), {a}, [a](const Tensor& g) { AccumulateGrad(a, g); },
      "add_scalar");
}

Variable AddBias(const Variable& x, const Variable& bias) {
  Tensor value = ops::AddBias(x.value(), bias.value());
  const int64_t h = bias.value().dim(0);
  return Variable::MakeOpResult(
      std::move(value), {x, bias},
      [x, bias, h](const Tensor& g) {
        AccumulateGrad(x, g);
        if (bias.requires_grad()) AccumulateGrad(bias, ops::SumToBias(g, h));
      },
      "add_bias");
}

Variable MatMul(const Variable& a, const Variable& b, bool trans_a,
                bool trans_b) {
  // Require identical batch dims (or both rank-2) so gradients never need
  // a broadcast reduction.
  const Shape& sa = a.value().shape();
  const Shape& sb = b.value().shape();
  EMX_CHECK(Shape(sa.begin(), sa.end() - 2) == Shape(sb.begin(), sb.end() - 2))
      << "autograd::MatMul requires equal batch dims: " << ShapeToString(sa)
      << " x " << ShapeToString(sb);
  Tensor value = ops::MatMul(a.value(), b.value(), trans_a, trans_b);
  return Variable::MakeOpResult(
      std::move(value), {a, b}, [a, b, trans_a, trans_b](const Tensor& g) {
        if (a.requires_grad()) {
          Tensor da;
          if (!trans_a && !trans_b) {
            da = ops::MatMul(g, b.value(), false, true);
          } else if (!trans_a && trans_b) {
            da = ops::MatMul(g, b.value(), false, false);
          } else if (trans_a && !trans_b) {
            da = ops::MatMul(b.value(), g, false, true);
          } else {
            da = ops::MatMul(b.value(), g, true, true);
          }
          AccumulateGrad(a, da);
        }
        if (b.requires_grad()) {
          Tensor db;
          if (!trans_a && !trans_b) {
            db = ops::MatMul(a.value(), g, true, false);
          } else if (!trans_a && trans_b) {
            db = ops::MatMul(g, a.value(), true, false);
          } else if (trans_a && !trans_b) {
            db = ops::MatMul(a.value(), g, false, false);
          } else {
            db = ops::MatMul(g, a.value(), true, true);
          }
          AccumulateGrad(b, db);
        }
      },
      "matmul");
}

Variable LinearAct(const Variable& x, const Variable& w, const Variable& b,
                   ops::Act act, Tensor* pre_act) {
  const bool needs_grad =
      GradMode::IsEnabled() &&
      (x.requires_grad() || w.requires_grad() || b.requires_grad());
  const bool keep_u =
      act != ops::Act::kNone && (needs_grad || pre_act != nullptr);
  Tensor u;
  Tensor value = ops::MatMulBiasAct(x.value(), w.value(), b.value(), act,
                                    keep_u ? &u : nullptr);
  if (pre_act != nullptr) *pre_act = keep_u ? u : value;
  if (!needs_grad) return Variable::Constant(std::move(value));
  return Variable::MakeOpResult(
      std::move(value), {x, w, b},
      [x, w, b, act, u](const Tensor& g) {
        const int64_t k = w.value().dim(0);
        const int64_t n = w.value().dim(1);
        Tensor db;
        const Tensor dz =
            ops::ActGradWithBiasGrad(g, u, act, &db).Reshape({-1, n});
        if (x.requires_grad()) {
          AccumulateGrad(x, ops::MatMul(dz, w.value(), false, true)
                                .Reshape(x.value().shape()));
        }
        if (w.requires_grad()) {
          AccumulateGrad(
              w, ops::MatMul(x.value().Reshape({-1, k}), dz, true, false));
        }
        AccumulateGrad(b, db);
      },
      "linear_act");
}

Variable Reshape(const Variable& x, Shape shape) {
  Tensor value = x.value().Reshape(std::move(shape));
  if (!GradMode::IsEnabled()) {
    // No tape to protect: share storage with the input instead of cloning.
    return Variable::Constant(std::move(value));
  }
  const Shape orig = x.value().shape();
  return Variable::MakeOpResult(
      value.Clone(), {x},
      [x, orig](const Tensor& g) { AccumulateGrad(x, g.Reshape(orig)); },
      "reshape");
}

Variable Permute(const Variable& x, const std::vector<int64_t>& perm) {
  Tensor value = ops::Permute(x.value(), perm);
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, inverse](const Tensor& g) {
        AccumulateGrad(x, ops::Permute(g, inverse));
      },
      "permute");
}

Variable PermuteReshape(const Variable& x, const std::vector<int64_t>& perm,
                        Shape shape) {
  Tensor permuted = ops::Permute(x.value(), perm);
  const Shape mid_shape = permuted.shape();
  // The reshaped result may share the permuted buffer: it is freshly
  // materialized here, so no aliasing with the input's tape can occur.
  Tensor value = permuted.Reshape(std::move(shape));
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, mid_shape, inverse](const Tensor& g) {
        AccumulateGrad(x, ops::Permute(g.Reshape(mid_shape), inverse));
      },
      "permute_reshape");
}

Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, const Tensor& mask,
                        int64_t num_heads, float dropout_p, bool train,
                        Rng* rng, float penalty) {
  EMX_CHECK_EQ(q.value().ndim(), 3);
  const int64_t hidden = q.dim(2);
  EMX_CHECK_EQ(hidden % num_heads, 0);
  ops::FusedAttentionConfig cfg;
  cfg.num_heads = num_heads;
  cfg.scale = 1.0f / std::sqrt(static_cast<float>(hidden / num_heads));
  cfg.penalty = penalty;
  if (train && dropout_p > 0.0f) {
    EMX_CHECK_LT(dropout_p, 1.0f);
    cfg.dropout = true;
    cfg.dropout_p = dropout_p;
    // One draw per forward keeps the layer Rng stream deterministic; the
    // per-element decisions are pure functions of (seed, flat index).
    cfg.dropout_seed = rng->Next();
  }
  const bool needs_grad =
      GradMode::IsEnabled() &&
      (q.requires_grad() || k.requires_grad() || v.requires_grad());
  Tensor row_max, row_sum;
  Tensor value = ops::FusedAttentionForward(
      q.value(), k.value(), v.value(), mask, cfg,
      needs_grad ? &row_max : nullptr, needs_grad ? &row_sum : nullptr);
  if (!needs_grad) return Variable::Constant(std::move(value));
  return Variable::MakeOpResult(
      std::move(value), {q, k, v},
      [q, k, v, mask, cfg, row_max, row_sum](const Tensor& g) {
        Tensor dq(q.value().shape());
        Tensor dk(k.value().shape());
        Tensor dv(v.value().shape());
        ops::FusedAttentionBackward(g, q.value(), k.value(), v.value(), mask,
                                    cfg, row_max, row_sum, &dq, &dk, &dv);
        AccumulateGrad(q, dq);
        AccumulateGrad(k, dk);
        AccumulateGrad(v, dv);
      },
      "fused_attention");
}

Variable Relu(const Variable& x) {
  Tensor value = ops::Relu(x.value());
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x](const Tensor& g) { AccumulateGrad(x, ops::ReluGrad(g, x.value())); },
      "relu");
}

Variable Gelu(const Variable& x) {
  Tensor value = ops::Gelu(x.value());
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x](const Tensor& g) { AccumulateGrad(x, ops::GeluGrad(g, x.value())); },
      "gelu");
}

Variable Tanh(const Variable& x) {
  Tensor value = ops::Tanh(x.value());
  Tensor saved = value;  // shares storage; value is not mutated afterwards.
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, saved](const Tensor& g) {
        AccumulateGrad(x, ops::TanhGradFromOutput(g, saved));
      },
      "tanh");
}

Variable Sigmoid(const Variable& x) {
  Tensor value = ops::Sigmoid(x.value());
  Tensor saved = value;
  return Variable::MakeOpResult(
      std::move(value), {x}, [x, saved](const Tensor& g) {
        // dy/dx = y * (1 - y).
        Tensor dx(saved.shape());
        const float* py = saved.data();
        const float* pg = g.data();
        float* pd = dx.data();
        ParallelFor(saved.size(), 1 << 15, [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            pd[i] = pg[i] * py[i] * (1.0f - py[i]);
          }
        });
        AccumulateGrad(x, dx);
      },
      "sigmoid");
}

Variable Softmax(const Variable& x) {
  Tensor value = ops::Softmax(x.value());
  Tensor saved = value;
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, saved](const Tensor& g) {
        AccumulateGrad(x, ops::SoftmaxGradFromOutput(g, saved));
      },
      "softmax");
}

Variable MaskedSoftmax(const Variable& x, const Tensor& mask, float penalty) {
  Tensor masked = ops::MaskedAdd(x.value(), mask, penalty);
  Tensor value = ops::Softmax(masked);
  // A row whose positions are all blocked must attend to nothing (zero
  // context), not degenerate to a uniform distribution — e.g. the
  // permutation-first position of XLNet's query stream. Detect such rows by
  // their masked maximum and zero them; the backward pass is consistent
  // because SoftmaxGradFromOutput yields zero gradient for all-zero rows.
  {
    const int64_t n = value.dim(-1);
    const int64_t rows = value.size() / n;
    const float* pm = masked.data();
    float* pv = value.data();
    const float threshold = penalty * 0.5f;  // well below any real score
    for (int64_t r = 0; r < rows; ++r) {
      float mx = pm[r * n];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, pm[r * n + j]);
      if (mx < threshold) {
        for (int64_t j = 0; j < n; ++j) pv[r * n + j] = 0.0f;
      }
    }
  }
  Tensor saved = value;
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, saved](const Tensor& g) {
        // d(masked)/dx = identity, so the mask needs no backward handling.
        AccumulateGrad(x, ops::SoftmaxGradFromOutput(g, saved));
      },
      "masked_softmax");
}

Variable LogSoftmax(const Variable& x) {
  Tensor value = ops::LogSoftmax(x.value());
  Tensor saved = value;
  return Variable::MakeOpResult(
      std::move(value), {x}, [x, saved](const Tensor& g) {
        // dx = g - softmax(x) * rowsum(g); softmax = exp(log_softmax).
        const int64_t n = saved.dim(-1);
        const int64_t rows = saved.size() / n;
        Tensor dx(saved.shape());
        const float* pg = g.data();
        const float* ps = saved.data();
        float* pd = dx.data();
        const int64_t grain = std::max<int64_t>(1, 16384 / std::max<int64_t>(1, n));
        ParallelFor(rows, grain, [&](int64_t begin, int64_t end) {
          for (int64_t r = begin; r < end; ++r) {
            float gsum = 0.0f;
            for (int64_t j = 0; j < n; ++j) gsum += pg[r * n + j];
            for (int64_t j = 0; j < n; ++j) {
              pd[r * n + j] = pg[r * n + j] - std::exp(ps[r * n + j]) * gsum;
            }
          }
        });
        AccumulateGrad(x, dx);
      },
      "log_softmax");
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  Tensor mean, rstd;
  Tensor value =
      ops::LayerNormForward(x.value(), gamma.value(), beta.value(), eps, &mean, &rstd);
  return Variable::MakeOpResult(
      std::move(value), {x, gamma, beta},
      [x, gamma, beta, mean, rstd](const Tensor& g) {
        Tensor dgamma(gamma.value().shape());
        Tensor dbeta(beta.value().shape());
        Tensor dx = ops::LayerNormBackward(g, x.value(), gamma.value(), mean,
                                           rstd, &dgamma, &dbeta);
        AccumulateGrad(x, dx);
        AccumulateGrad(gamma, dgamma);
        AccumulateGrad(beta, dbeta);
      },
      "layernorm");
}

Variable Dropout(const Variable& x, float p, bool train, Rng* rng) {
  if (!train || p <= 0.0f) return x;
  EMX_CHECK_LT(p, 1.0f);
  // One draw per call, as in FusedAttention: the mask is a function of
  // (seed, flat index), so the backward recomputes it instead of keeping it.
  const uint64_t seed = rng->Next();
  Tensor value = ops::Dropout(x.value(), seed, p);
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, seed, p](const Tensor& g) {
        AccumulateGrad(x, ops::Dropout(g, seed, p));
      },
      "dropout");
}

Variable EmbeddingLookup(const Variable& table, const std::vector<int64_t>& ids) {
  Tensor value = ops::GatherRows(table.value(), ids);
  return Variable::MakeOpResult(
      std::move(value), {table},
      [table, ids](const Tensor& g) {
        if (table.requires_grad()) {
          ops::ScatterAddRows(g, ids, &table.node()->EnsureGrad());
        }
      },
      "embedding");
}

Variable SelectTimeStep(const Variable& x, int64_t t) {
  Tensor value = ops::SelectTimeStep(x.value(), t);
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, t](const Tensor& g) {
        if (x.requires_grad()) {
          ops::AddToTimeStep(g, t, &x.node()->EnsureGrad());
        }
      },
      "select_time_step");
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  EMX_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<int64_t> sizes;
  const int64_t nd = parts[0].value().ndim();
  const int64_t ax = axis < 0 ? axis + nd : axis;
  for (const auto& p : parts) {
    values.push_back(p.value());
    sizes.push_back(p.value().dim(ax));
  }
  Tensor value = ops::Concat(values, ax);
  return Variable::MakeOpResult(
      std::move(value), parts,
      [parts, ax, sizes](const Tensor& g) {
        std::vector<Tensor> grads = ops::SplitAxis(g, ax, sizes);
        for (size_t i = 0; i < parts.size(); ++i) {
          AccumulateGrad(parts[i], grads[i]);
        }
      },
      "concat");
}

Variable MeanAll(const Variable& x) {
  Tensor value = ops::MeanAll(x.value());
  const float inv_n = 1.0f / static_cast<float>(x.size());
  const Shape shape = x.value().shape();
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, inv_n, shape](const Tensor& g) {
        AccumulateGrad(x, Tensor::Full(shape, g[0] * inv_n));
      },
      "mean_all");
}

Variable SumAll(const Variable& x) {
  Tensor value = ops::SumAll(x.value());
  const Shape shape = x.value().shape();
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, shape](const Tensor& g) {
        AccumulateGrad(x, Tensor::Full(shape, g[0]));
      },
      "sum_all");
}

Variable CrossEntropy(const Variable& logits, const std::vector<int64_t>& targets,
                      int64_t ignore_index) {
  EMX_CHECK_EQ(logits.value().ndim(), 2);
  const int64_t n = logits.dim(0);
  const int64_t c = logits.dim(1);
  EMX_CHECK_EQ(n, static_cast<int64_t>(targets.size()));

  Tensor log_probs = ops::LogSoftmax(logits.value());
  int64_t active = 0;
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = targets[static_cast<size_t>(i)];
    if (t == ignore_index) continue;
    EMX_CHECK(t >= 0 && t < c) << "CrossEntropy: bad target " << t;
    loss -= log_probs[i * c + t];
    ++active;
  }
  const float denom = active > 0 ? static_cast<float>(active) : 1.0f;
  Tensor value = Tensor::Scalar(static_cast<float>(loss) / denom);

  return Variable::MakeOpResult(
      std::move(value), {logits},
      [logits, targets, log_probs, ignore_index, denom, n, c](const Tensor& g) {
        if (!logits.requires_grad()) return;
        // d/dlogits = (softmax - onehot) / active, scaled by upstream g.
        Tensor dx({n, c});
        const float* lp = log_probs.data();
        float* pd = dx.data();
        const float scale = g[0] / denom;
        for (int64_t i = 0; i < n; ++i) {
          const int64_t t = targets[static_cast<size_t>(i)];
          if (t == ignore_index) continue;
          for (int64_t j = 0; j < c; ++j) {
            pd[i * c + j] = std::exp(lp[i * c + j]) * scale;
          }
          pd[i * c + t] -= scale;
        }
        AccumulateGrad(logits, dx);
      },
      "cross_entropy");
}

Variable SoftCrossEntropy(const Variable& logits, const Tensor& soft_targets) {
  EMX_CHECK(logits.value().shape() == soft_targets.shape());
  const int64_t c = logits.dim(-1);
  const int64_t n = logits.size() / c;
  Tensor log_probs = ops::LogSoftmax(logits.value());
  double loss = 0.0;
  const float* lp = log_probs.data();
  const float* st = soft_targets.data();
  for (int64_t i = 0; i < logits.size(); ++i) loss -= st[i] * lp[i];
  Tensor value = Tensor::Scalar(static_cast<float>(loss / n));

  return Variable::MakeOpResult(
      std::move(value), {logits},
      [logits, soft_targets, log_probs, n, c](const Tensor& g) {
        if (!logits.requires_grad()) return;
        // Per row: d/ds = softmax(s) * sum(t) - t, averaged over rows.
        Tensor dx(logits.value().shape());
        const float* lp = log_probs.data();
        const float* st = soft_targets.data();
        float* pd = dx.data();
        const float scale = g[0] / static_cast<float>(n);
        for (int64_t r = 0; r < n; ++r) {
          float tsum = 0.0f;
          for (int64_t j = 0; j < c; ++j) tsum += st[r * c + j];
          for (int64_t j = 0; j < c; ++j) {
            pd[r * c + j] =
                (std::exp(lp[r * c + j]) * tsum - st[r * c + j]) * scale;
          }
        }
        AccumulateGrad(logits, dx);
      },
      "soft_cross_entropy");
}

Variable CosineEmbeddingLoss(const Variable& x, const Tensor& target) {
  EMX_CHECK(x.value().shape() == target.shape());
  EMX_CHECK_EQ(x.value().ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t h = x.dim(1);
  constexpr float kEps = 1e-8f;

  const float* px = x.value().data();
  const float* pt = target.data();
  std::vector<float> cos(static_cast<size_t>(n));
  std::vector<float> x_norm(static_cast<size_t>(n));
  std::vector<float> t_norm(static_cast<size_t>(n));
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    float dot = 0.0f, nx = 0.0f, nt = 0.0f;
    for (int64_t j = 0; j < h; ++j) {
      const float a = px[i * h + j];
      const float b = pt[i * h + j];
      dot += a * b;
      nx += a * a;
      nt += b * b;
    }
    nx = std::sqrt(nx) + kEps;
    nt = std::sqrt(nt) + kEps;
    const float c = dot / (nx * nt);
    cos[static_cast<size_t>(i)] = c;
    x_norm[static_cast<size_t>(i)] = nx;
    t_norm[static_cast<size_t>(i)] = nt;
    loss += 1.0f - c;
  }
  Tensor value = Tensor::Scalar(static_cast<float>(loss / n));

  Tensor x_saved = x.value();
  return Variable::MakeOpResult(
      std::move(value), {x},
      [x, x_saved, target, cos, x_norm, t_norm, n, h](const Tensor& g) {
        if (!x.requires_grad()) return;
        Tensor dx({n, h});
        const float* px = x_saved.data();
        const float* pt = target.data();
        float* pd = dx.data();
        const float scale = -g[0] / static_cast<float>(n);  // d(1-cos) = -dcos
        for (int64_t i = 0; i < n; ++i) {
          const float nx = x_norm[static_cast<size_t>(i)];
          const float nt = t_norm[static_cast<size_t>(i)];
          const float c = cos[static_cast<size_t>(i)];
          for (int64_t j = 0; j < h; ++j) {
            const float a = px[i * h + j];
            const float b = pt[i * h + j];
            // dcos/da_j = b_j/(|a||b|) - cos * a_j/|a|^2.
            pd[i * h + j] = scale * (b / (nx * nt) - c * a / (nx * nx));
          }
        }
        AccumulateGrad(x, dx);
      },
      "cosine_embedding");
}

Variable StopGradient(const Variable& x) {
  return Variable::Constant(x.value());
}

}  // namespace autograd
}  // namespace emx
