#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "tensor/kernel_math.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace emx {
namespace ops {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  EMX_CHECK(a.shape() == b.shape())
      << op << " shape mismatch: " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

/// Minimum elements per ParallelFor chunk for cheap elementwise loops;
/// below this the dispatch overhead outweighs the work and the range runs
/// inline on the caller.
constexpr int64_t kElemGrain = 1 << 15;

/// Row grain for rowwise kernels (softmax family, LayerNorm): batch enough
/// rows per chunk that each task touches at least ~16K elements.
int64_t RowGrain(int64_t row_width) {
  return std::max<int64_t>(1, 16384 / std::max<int64_t>(1, row_width));
}

template <typename F>
Tensor Elementwise(const Tensor& x, F f) {
  Tensor out(x.shape());
  const float* in = x.data();
  float* o = out.data();
  ParallelFor(x.size(), kElemGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) o[i] = f(in[i]);
  });
  return out;
}

template <typename F>
Tensor Binary(const Tensor& a, const Tensor& b, F f, const char* op) {
  CheckSameShape(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out.data();
  ParallelFor(a.size(), kElemGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) o[i] = f(pa[i], pb[i]);
  });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x + y; }, "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x - y; }, "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x * y; }, "Mul");
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x / y; }, "Div");
}

Tensor AddScalar(const Tensor& a, float s) {
  return Elementwise(a, [s](float x) { return x + s; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return Elementwise(a, [s](float x) { return x * s; });
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  EMX_CHECK_EQ(bias.ndim(), 1);
  const int64_t h = bias.dim(0);
  EMX_CHECK_EQ(x.dim(-1), h) << "AddBias: last dim mismatch";
  Tensor out(x.shape());
  const float* in = x.data();
  const float* b = bias.data();
  float* o = out.data();
  const int64_t rows = x.size() / h;
  ParallelFor(rows, RowGrain(h), [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const float* src = in + r * h;
      float* dst = o + r * h;
      for (int64_t j = 0; j < h; ++j) dst[j] = src[j] + b[j];
    }
  });
  return out;
}

Tensor SumToBias(const Tensor& grad, int64_t h) {
  EMX_CHECK_EQ(grad.dim(-1), h);
  Tensor out({h});
  const float* g = grad.data();
  float* o = out.data();
  const int64_t rows = grad.size() / h;
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = g + r * h;
    for (int64_t j = 0; j < h; ++j) o[j] += src[j];
  }
  return out;
}

Tensor Exp(const Tensor& x) {
  return Elementwise(x, [](float v) { return std::exp(v); });
}

Tensor Log(const Tensor& x) {
  return Elementwise(x, [](float v) { return std::log(v); });
}

Tensor Sqrt(const Tensor& x) {
  return Elementwise(x, [](float v) { return std::sqrt(v); });
}

Tensor Tanh(const Tensor& x) {
  return Elementwise(x, [](float v) { return TanhApprox(v); });
}

Tensor Sigmoid(const Tensor& x) {
  return Elementwise(x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Tensor Relu(const Tensor& x) {
  return Elementwise(x, [](float v) { return Relu(v); });
}

Tensor ReluGrad(const Tensor& dy, const Tensor& x) {
  return Binary(
      dy, x, [](float g, float v) { return ActivateGrad<Act::kRelu>(g, v); },
      "ReluGrad");
}

Tensor Gelu(const Tensor& x) {
  return Elementwise(x, [](float v) { return Gelu(v); });
}

Tensor GeluGrad(const Tensor& dy, const Tensor& x) {
  return Binary(
      dy, x, [](float g, float v) { return ActivateGrad<Act::kGelu>(g, v); },
      "GeluGrad");
}

Tensor Dropout(const Tensor& x, uint64_t seed, float p) {
  EMX_TRACE_SPAN("kernel.dropout",
                 [&] { return obs::KeyValues({{"size", x.size()}}); });
  const uint64_t thresh = DropoutThreshold(p);
  const float scale = 1.0f / (1.0f - p);
  Tensor out(x.shape());
  const float* in = x.data();
  float* o = out.data();
  ParallelFor(x.size(), kElemGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      o[i] = in[i] * Select(DropoutHash(seed, i) < thresh, 0.0f, scale);
    }
  });
  return out;
}

Tensor TanhGradFromOutput(const Tensor& dy, const Tensor& y) {
  return Binary(
      dy, y, [](float g, float t) { return g * MulAdd(-t, t, 1.0f); },
      "TanhGrad");
}

Tensor Activate(const Tensor& x, Act act) {
  switch (act) {
    case Act::kNone:
      return x;
    case Act::kGelu:
      return Gelu(x);
    case Act::kRelu:
      return Relu(x);
    case Act::kTanh:
      return Tanh(x);
  }
  EMX_CHECK(false) << "unknown activation";
  return x;
}

namespace {

/// Rows per block of ActGradWithBiasGrad; fixed, so the bias-gradient
/// summation order is the same at every thread count.
constexpr int64_t kBiasGradRows = 64;

template <Act A>
void ActGradBlock(const float* dy, const float* u, float* dz, int64_t rows,
                  int64_t n, float* dbias) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* g = dy + r * n;
    const float* ur = u + r * n;
    float* d = dz + r * n;
    for (int64_t j = 0; j < n; ++j) {
      d[j] = ActivateGrad<A>(g[j], ur[j]);
      dbias[j] += d[j];
    }
  }
}

}  // namespace

Tensor ActGradWithBiasGrad(const Tensor& dy, const Tensor& u, Act act,
                           Tensor* dbias) {
  const int64_t n = dy.dim(-1);
  const int64_t rows = dy.size() / n;
  *dbias = Tensor({n});
  Tensor dz = dy;
  if (act != Act::kNone) {
    CheckSameShape(dy, u, "ActGradWithBiasGrad");
    dz = Tensor(dy.shape());
  }
  const int64_t blocks = (rows + kBiasGradRows - 1) / kBiasGradRows;
  std::vector<float> partial(static_cast<size_t>(blocks * n), 0.0f);
  const float* pg = dy.data();
  const float* pu = act == Act::kNone ? nullptr : u.data();
  float* pd = dz.data();
  ParallelFor(blocks, std::max<int64_t>(1, kElemGrain / (kBiasGradRows * n)),
              [&](int64_t begin, int64_t end) {
    for (int64_t blk = begin; blk < end; ++blk) {
      const int64_t r0 = blk * kBiasGradRows;
      const int64_t nr = std::min(kBiasGradRows, rows - r0);
      float* db = partial.data() + blk * n;
      const float* g = pg + r0 * n;
      switch (act) {
        case Act::kNone:
          for (int64_t r = 0; r < nr; ++r) {
            for (int64_t j = 0; j < n; ++j) db[j] += g[r * n + j];
          }
          break;
        case Act::kGelu:
          ActGradBlock<Act::kGelu>(g, pu + r0 * n, pd + r0 * n, nr, n, db);
          break;
        case Act::kRelu:
          ActGradBlock<Act::kRelu>(g, pu + r0 * n, pd + r0 * n, nr, n, db);
          break;
        case Act::kTanh:
          ActGradBlock<Act::kTanh>(g, pu + r0 * n, pd + r0 * n, nr, n, db);
          break;
      }
    }
  });
  float* pb = dbias->data();
  for (int64_t blk = 0; blk < blocks; ++blk) {
    const float* db = partial.data() + blk * n;
    for (int64_t j = 0; j < n; ++j) pb[j] += db[j];
  }
  return dz;
}

namespace {

// ---- Blocked GEMM ----------------------------------------------------
//
// GotoBLAS/llama.cpp-style MC/KC/NC cache tiling with an MR x NR register
// micro-kernel. Operand blocks are packed into contiguous per-thread
// scratch before the inner loops, so one code path serves all four
// trans_a/trans_b combinations: transposition is absorbed entirely by the
// packing strides. The micro-kernel loads the C tile, accumulates k in
// ascending order, and stores the tile back once per KC block; every
// output element therefore sees the exact addition sequence of the naive
// ascending-k loop, making results bit-identical to it at any thread
// count. An optional epilogue (MatMulBiasAct) adds the bias and applies the
// activation to each C block once its last KC block is done.
constexpr int64_t kMC = 64;   // A block rows per task
constexpr int64_t kKC = 256;  // packed panel depth
constexpr int64_t kNC = 128;  // packed B panel width
constexpr int64_t kMR = 4;    // register tile rows
constexpr int64_t kNR = 16;   // register tile cols

/// Logical dims and element strides of C = op(A) * op(B) for one matrix.
/// A(i,kk) = pa[i * a_rs + kk * a_cs]; B(kk,j) = pb[kk * b_rs + j * b_cs].
struct GemmShape {
  int64_t m, n, k;
  int64_t a_rs, a_cs, b_rs, b_cs;
};

// MulAdd (kernel_math.h) pins one rounding behaviour for every GEMM
// accumulation; the fused attention kernel shares it so its score and
// context chains stay bit-identical to this GEMM's.

/// Copies a rows x cols logical block (strided source) into row-major dst.
void PackPanel(const float* src, int64_t row_stride, int64_t col_stride,
               int64_t rows, int64_t cols, float* dst) {
  if (col_stride == 1) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* s = src + r * row_stride;
      std::copy(s, s + cols, dst + r * cols);
    }
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      const float* s = src + r * row_stride;
      float* d = dst + r * cols;
      for (int64_t c = 0; c < cols; ++c) d[c] = s[c * col_stride];
    }
  }
}

/// Full MR x NR register tile: C += Ap[0:MR, 0:kc] * Bp[0:kc, 0:NR].
void MicroKernel(int64_t kc, const float* __restrict__ ap, int64_t lda,
                 const float* __restrict__ bp, int64_t ldb,
                 float* __restrict__ c, int64_t ldc) {
  // One named accumulator array per tile row (kMR unrolled by hand): GCC
  // vectorizes each j-loop into NR-wide FMAs and keeps the whole tile in
  // registers, where the acc[kMR][kNR] formulation degenerates into
  // shuffle-heavy scalar code. Per output element the accumulation is still
  // a single ascending-k MulAdd chain, so results stay bit-identical to
  // MicroKernelEdge and the naive loop.
  static_assert(kMR == 4, "accumulator rows below are unrolled for kMR == 4");
  float a0[kNR], a1[kNR], a2[kNR], a3[kNR];
  for (int64_t j = 0; j < kNR; ++j) {
    a0[j] = c[0 * ldc + j];
    a1[j] = c[1 * ldc + j];
    a2[j] = c[2 * ldc + j];
    a3[j] = c[3 * ldc + j];
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* __restrict__ b_row = bp + kk * ldb;
    const float v0 = ap[0 * lda + kk];
    const float v1 = ap[1 * lda + kk];
    const float v2 = ap[2 * lda + kk];
    const float v3 = ap[3 * lda + kk];
    for (int64_t j = 0; j < kNR; ++j) {
      a0[j] = MulAdd(v0, b_row[j], a0[j]);
      a1[j] = MulAdd(v1, b_row[j], a1[j]);
      a2[j] = MulAdd(v2, b_row[j], a2[j]);
      a3[j] = MulAdd(v3, b_row[j], a3[j]);
    }
  }
  for (int64_t j = 0; j < kNR; ++j) {
    c[0 * ldc + j] = a0[j];
    c[1 * ldc + j] = a1[j];
    c[2 * ldc + j] = a2[j];
    c[3 * ldc + j] = a3[j];
  }
}

/// Partial tile at the block edges; same ascending-k accumulation order.
void MicroKernelEdge(int64_t mr, int64_t nr, int64_t kc,
                     const float* __restrict__ ap, int64_t lda,
                     const float* __restrict__ bp, int64_t ldb,
                     float* __restrict__ c, int64_t ldc) {
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j) {
      float acc = c[i * ldc + j];
      for (int64_t kk = 0; kk < kc; ++kk) {
        acc = MulAdd(ap[i * lda + kk], bp[kk * ldb + j], acc);
      }
      c[i * ldc + j] = acc;
    }
  }
}

/// Bias + activation applied to each finished C block (MatMulBiasAct).
struct Epilogue {
  const float* bias;  // [n]
  Act act;
  float* pre;  // receives the [m, n] pre-activation, or null
};

template <Act A>
void BiasActBlock(float* c, float* pre, int64_t ldc, int64_t rows,
                  int64_t cols, const float* bias) {
  for (int64_t i = 0; i < rows; ++i) {
    float* cr = c + i * ldc;
    if (pre != nullptr) {
      float* ur = pre + i * ldc;
      for (int64_t j = 0; j < cols; ++j) {
        const float u = cr[j] + bias[j];
        ur[j] = u;
        cr[j] = Activate<A>(u);
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) cr[j] = Activate<A>(cr[j] + bias[j]);
    }
  }
}

/// Runs the epilogue on the C block at (row, col) of `rows` x `cols`.
void ApplyEpilogue(const Epilogue& ep, float* pc, int64_t ldc, int64_t row,
                   int64_t col, int64_t rows, int64_t cols) {
  float* c = pc + row * ldc + col;
  float* pre = ep.pre == nullptr ? nullptr : ep.pre + row * ldc + col;
  const float* bias = ep.bias + col;
  switch (ep.act) {
    case Act::kNone:
      BiasActBlock<Act::kNone>(c, pre, ldc, rows, cols, bias);
      break;
    case Act::kGelu:
      BiasActBlock<Act::kGelu>(c, pre, ldc, rows, cols, bias);
      break;
    case Act::kRelu:
      BiasActBlock<Act::kRelu>(c, pre, ldc, rows, cols, bias);
      break;
    case Act::kTanh:
      BiasActBlock<Act::kTanh>(c, pre, ldc, rows, cols, bias);
      break;
  }
}

/// Computes output rows [i_begin, i_end) of one C = op(A) * op(B), then
/// the epilogue when `ep` is non-null. abuf/bbuf are caller-provided
/// scratch of kMC*kKC and kKC*kNC floats.
void GemmRowRange(const GemmShape& d, const float* pa, const float* pb,
                  float* pc, int64_t i_begin, int64_t i_end, float* abuf,
                  float* bbuf, const Epilogue* ep) {
  for (int64_t jc = 0; jc < d.n; jc += kNC) {
    const int64_t ncb = std::min(kNC, d.n - jc);
    // k == 0 still makes one (empty) pass, so the epilogue runs.
    for (int64_t p = 0; p < d.k || p == 0; p += kKC) {
      const int64_t kcb = std::min(kKC, d.k - p);
      const bool last_k = p + kcb == d.k;
      PackPanel(pb + p * d.b_rs + jc * d.b_cs, d.b_rs, d.b_cs, kcb, ncb, bbuf);
      for (int64_t ic = i_begin; ic < i_end; ic += kMC) {
        const int64_t mcb = std::min(kMC, i_end - ic);
        PackPanel(pa + ic * d.a_rs + p * d.a_cs, d.a_rs, d.a_cs, mcb, kcb,
                  abuf);
        for (int64_t ir = 0; ir < mcb; ir += kMR) {
          const int64_t mr = std::min(kMR, mcb - ir);
          float* c_tile_row = pc + (ic + ir) * d.n + jc;
          for (int64_t jr = 0; jr < ncb; jr += kNR) {
            const int64_t nr = std::min(kNR, ncb - jr);
            if (mr == kMR && nr == kNR) {
              MicroKernel(kcb, abuf + ir * kcb, kcb, bbuf + jr, ncb,
                          c_tile_row + jr, d.n);
            } else {
              MicroKernelEdge(mr, nr, kcb, abuf + ir * kcb, kcb, bbuf + jr,
                              ncb, c_tile_row + jr, d.n);
            }
          }
        }
        // The (ic, jc) block is final and still in cache.
        if (ep != nullptr && last_k) {
          ApplyEpilogue(*ep, pc, d.n, ic, jc, mcb, ncb);
        }
      }
    }
  }
}

/// Resolves shapes/batching for MatMul. Returns the zero-initialized
/// output; the strides in *dims absorb the trans flags.
Tensor PrepareMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                     bool trans_b, GemmShape* dims, int64_t* batch,
                     bool* a_broadcast, bool* b_broadcast) {
  EMX_CHECK_GE(a.ndim(), 2);
  EMX_CHECK_GE(b.ndim(), 2);
  const int64_t a_rows = a.dim(-2), a_cols = a.dim(-1);
  const int64_t b_rows = b.dim(-2), b_cols = b.dim(-1);
  dims->m = trans_a ? a_cols : a_rows;
  dims->k = trans_a ? a_rows : a_cols;
  const int64_t kb = trans_b ? b_cols : b_rows;
  dims->n = trans_b ? b_rows : b_cols;
  EMX_CHECK_EQ(dims->k, kb) << "MatMul inner dim mismatch: "
                            << ShapeToString(a.shape()) << (trans_a ? "^T" : "")
                            << " x " << ShapeToString(b.shape())
                            << (trans_b ? "^T" : "");
  dims->a_rs = trans_a ? 1 : a_cols;
  dims->a_cs = trans_a ? a_cols : 1;
  dims->b_rs = trans_b ? 1 : b_cols;
  dims->b_cs = trans_b ? b_cols : 1;

  // Batch handling: equal leading dims, or rank-2 broadcast.
  Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  Shape out_batch;
  if (a_batch == b_batch) {
    out_batch = a_batch;
  } else if (b_batch.empty()) {
    out_batch = a_batch;
  } else if (a_batch.empty()) {
    out_batch = b_batch;
  } else {
    EMX_CHECK(false) << "MatMul batch mismatch: " << ShapeToString(a.shape())
                     << " x " << ShapeToString(b.shape());
  }
  *batch = NumElements(out_batch);
  *a_broadcast = a_batch.empty() && !out_batch.empty();
  *b_broadcast = b_batch.empty() && !out_batch.empty();

  Shape out_shape = out_batch;
  out_shape.push_back(dims->m);
  out_shape.push_back(dims->n);
  return Tensor(out_shape);
}

/// Runs `batch` GEMMs of shape `dims` into pc0 (zeroed, contiguous
/// [batch, m, n]); a_stride/b_stride are 0 for a broadcast operand. The
/// epilogue, when given, applies to a single matrix (batch == 1).
void RunGemm(const GemmShape& dims, int64_t batch, const float* pa0,
             int64_t a_stride, const float* pb0, int64_t b_stride,
             float* pc0, const Epilogue* ep) {
  // One work item = one kMC row block of one batch matrix. Chunks are
  // contiguous item ranges, so a worker sweeps whole row blocks and packs
  // its own B panels into private scratch.
  const int64_t c_stride = dims.m * dims.n;
  const int64_t blocks_per_mat = (dims.m + kMC - 1) / kMC;
  const int64_t total_items = batch * blocks_per_mat;
  const int64_t item_flops = std::max<int64_t>(
      1, 2 * std::min(kMC, dims.m) * dims.k * dims.n);
  const int64_t grain = std::max<int64_t>(1, (1 << 18) / item_flops);

  ParallelFor(total_items, grain, [&](int64_t begin, int64_t end) {
    std::vector<float> abuf(kMC * kKC);
    std::vector<float> bbuf(kKC * kNC);
    for (int64_t item = begin; item < end; ++item) {
      const int64_t bi = item / blocks_per_mat;
      const int64_t blk = item % blocks_per_mat;
      const int64_t i0 = blk * kMC;
      const int64_t i1 = std::min(i0 + kMC, dims.m);
      GemmRowRange(dims, pa0 + bi * a_stride, pb0 + bi * b_stride,
                   pc0 + bi * c_stride, i0, i1, abuf.data(), bbuf.data(), ep);
    }
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  GemmShape dims;
  int64_t batch;
  bool a_broadcast, b_broadcast;
  Tensor out = PrepareMatMul(a, b, trans_a, trans_b, &dims, &batch,
                             &a_broadcast, &b_broadcast);
  EMX_TRACE_SPAN("kernel.matmul", [&] {
    return obs::KeyValues(
        {{"m", dims.m}, {"n", dims.n}, {"k", dims.k}, {"batch", batch}});
  });
  RunGemm(dims, batch, a.data(), a_broadcast ? 0 : a.dim(-2) * a.dim(-1),
          b.data(), b_broadcast ? 0 : b.dim(-2) * b.dim(-1), out.data(),
          /*ep=*/nullptr);
  return out;
}

Tensor MatMulBiasAct(const Tensor& x, const Tensor& w, const Tensor& bias,
                     Act act, Tensor* pre_act) {
  EMX_CHECK_GE(x.ndim(), 1);
  EMX_CHECK_EQ(w.ndim(), 2);
  EMX_CHECK_EQ(bias.ndim(), 1);
  const int64_t k = w.dim(0);
  const int64_t n = w.dim(1);
  EMX_CHECK_EQ(x.dim(-1), k) << "MatMulBiasAct inner dim mismatch: "
                             << ShapeToString(x.shape()) << " x "
                             << ShapeToString(w.shape());
  EMX_CHECK_EQ(bias.dim(0), n) << "MatMulBiasAct: bias size mismatch";
  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  const GemmShape dims{.m = NumElements(out_shape),
                       .n = n,
                       .k = k,
                       .a_rs = k,
                       .a_cs = 1,
                       .b_rs = n,
                       .b_cs = 1};
  out_shape.push_back(n);
  Tensor out(out_shape);
  if (pre_act != nullptr) *pre_act = Tensor(out_shape);
  EMX_TRACE_SPAN("kernel.matmul_bias_act", [&] {
    return obs::KeyValues({{"m", dims.m},
                           {"n", n},
                           {"k", k},
                           {"act", static_cast<int64_t>(act)}});
  });
  const Epilogue ep{bias.data(), act,
                    pre_act == nullptr ? nullptr : pre_act->data()};
  RunGemm(dims, /*batch=*/1, x.data(), 0, w.data(), 0, out.data(), &ep);
  return out;
}

Tensor Permute(const Tensor& x, const std::vector<int64_t>& perm) {
  const int64_t nd = x.ndim();
  EMX_CHECK_EQ(static_cast<int64_t>(perm.size()), nd);
  std::vector<int64_t> seen(nd, 0);
  for (int64_t p : perm) {
    EMX_CHECK(p >= 0 && p < nd) << "bad permutation";
    seen[p]++;
  }
  for (int64_t s : seen) EMX_CHECK_EQ(s, 1) << "perm is not a permutation";

  Shape out_shape(nd);
  for (int64_t i = 0; i < nd; ++i) out_shape[i] = x.dim(perm[i]);
  Tensor out(out_shape);

  // Input strides.
  std::vector<int64_t> in_strides(nd, 1);
  for (int64_t i = nd - 2; i >= 0; --i) {
    in_strides[i] = in_strides[i + 1] * x.dim(i + 1);
  }
  // For each output element, the input stride per output axis.
  std::vector<int64_t> gather_strides(nd);
  for (int64_t i = 0; i < nd; ++i) gather_strides[i] = in_strides[perm[i]];

  const float* in = x.data();
  float* o = out.data();
  const int64_t n = x.size();
  std::vector<int64_t> idx(nd, 0);
  int64_t src = 0;
  for (int64_t flat = 0; flat < n; ++flat) {
    o[flat] = in[src];
    // Increment the mixed-radix counter and the running source offset.
    for (int64_t d = nd - 1; d >= 0; --d) {
      idx[d]++;
      src += gather_strides[d];
      if (idx[d] < out_shape[d]) break;
      src -= idx[d] * gather_strides[d];
      idx[d] = 0;
    }
  }
  return out;
}

Tensor TransposeLast2(const Tensor& x) {
  const int64_t nd = x.ndim();
  EMX_CHECK_GE(nd, 2);
  std::vector<int64_t> perm(nd);
  for (int64_t i = 0; i < nd; ++i) perm[i] = i;
  std::swap(perm[nd - 1], perm[nd - 2]);
  return Permute(x, perm);
}

Tensor SumAll(const Tensor& x) {
  double acc = 0.0;
  const float* p = x.data();
  for (int64_t i = 0; i < x.size(); ++i) acc += p[i];
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor MeanAll(const Tensor& x) {
  EMX_CHECK_GT(x.size(), 0);
  Tensor s = SumAll(x);
  s[0] /= static_cast<float>(x.size());
  return s;
}

Tensor SumLastAxis(const Tensor& x) {
  const int64_t n = x.dim(-1);
  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out(out_shape);
  const float* p = x.data();
  float* o = out.data();
  const int64_t rows = x.size() / n;
  for (int64_t r = 0; r < rows; ++r) {
    float acc = 0.0f;
    const float* src = p + r * n;
    for (int64_t j = 0; j < n; ++j) acc += src[j];
    o[r] = acc;
  }
  return out;
}

std::vector<int64_t> ArgMaxLastAxis(const Tensor& x) {
  const int64_t n = x.dim(-1);
  const int64_t rows = x.size() / n;
  std::vector<int64_t> result(rows);
  const float* p = x.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = p + r * n;
    int64_t best = 0;
    for (int64_t j = 1; j < n; ++j) {
      if (src[j] > src[best]) best = j;
    }
    result[static_cast<size_t>(r)] = best;
  }
  return result;
}

Tensor Softmax(const Tensor& x) {
  const int64_t n = x.dim(-1);
  EMX_TRACE_SPAN("kernel.softmax", [&] {
    return obs::KeyValues({{"rows", x.size() / n}, {"cols", n}});
  });
  Tensor out(x.shape());
  const float* p = x.data();
  float* o = out.data();
  const int64_t rows = x.size() / n;
  ParallelFor(rows, RowGrain(n), [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const float* src = p + r * n;
      float* dst = o + r * n;
      float mx = src[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, src[j]);
      for (int64_t j = 0; j < n; ++j) dst[j] = ExpApprox(src[j] - mx);
      const float inv = 1.0f / LaneSum(dst, n);
      for (int64_t j = 0; j < n; ++j) dst[j] *= inv;
    }
  });
  return out;
}

Tensor SoftmaxGradFromOutput(const Tensor& dy, const Tensor& y) {
  CheckSameShape(dy, y, "SoftmaxGrad");
  const int64_t n = y.dim(-1);
  Tensor dx(y.shape());
  const float* pdy = dy.data();
  const float* py = y.data();
  float* pdx = dx.data();
  const int64_t rows = y.size() / n;
  ParallelFor(rows, RowGrain(n), [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const float* gy = pdy + r * n;
      const float* yy = py + r * n;
      float* gx = pdx + r * n;
      float dot = 0.0f;
      for (int64_t j = 0; j < n; ++j) dot += gy[j] * yy[j];
      for (int64_t j = 0; j < n; ++j) gx[j] = yy[j] * (gy[j] - dot);
    }
  });
  return dx;
}

Tensor LogSoftmax(const Tensor& x) {
  const int64_t n = x.dim(-1);
  Tensor out(x.shape());
  const float* p = x.data();
  float* o = out.data();
  const int64_t rows = x.size() / n;
  ParallelFor(rows, RowGrain(n), [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const float* src = p + r * n;
      float* dst = o + r * n;
      float mx = src[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, src[j]);
      // dst holds the exps until the last loop overwrites them.
      for (int64_t j = 0; j < n; ++j) dst[j] = ExpApprox(src[j] - mx);
      const float log_denom = std::log(LaneSum(dst, n)) + mx;
      for (int64_t j = 0; j < n; ++j) dst[j] = src[j] - log_denom;
    }
  });
  return out;
}

Tensor MaskedAdd(const Tensor& x, const Tensor& mask, float value) {
  Tensor out = x.Clone();
  float* o = out.data();
  const float* m = mask.data();
  if (x.shape() == mask.shape()) {
    for (int64_t i = 0; i < x.size(); ++i) {
      if (m[i] != 0.0f) o[i] += value;
    }
    return out;
  }
  // Broadcast: x is [B, ..., S]; mask is [B, 1, ..., S] or [B, 1, T, S].
  EMX_CHECK_EQ(x.ndim(), mask.ndim())
      << "MaskedAdd: rank mismatch " << ShapeToString(x.shape()) << " vs "
      << ShapeToString(mask.shape());
  const int64_t nd = x.ndim();
  std::vector<int64_t> x_strides(nd, 1), m_strides(nd, 1);
  for (int64_t i = nd - 2; i >= 0; --i) {
    x_strides[i] = x_strides[i + 1] * x.dim(i + 1);
    m_strides[i] = m_strides[i + 1] * mask.dim(i + 1);
  }
  for (int64_t i = 0; i < nd; ++i) {
    EMX_CHECK(mask.dim(i) == x.dim(i) || mask.dim(i) == 1)
        << "MaskedAdd: dim " << i << " not broadcastable";
  }
  std::vector<int64_t> idx(nd, 0);
  for (int64_t flat = 0; flat < x.size(); ++flat) {
    int64_t moff = 0;
    for (int64_t d = 0; d < nd; ++d) {
      moff += (mask.dim(d) == 1 ? 0 : idx[d]) * m_strides[d];
    }
    if (m[moff] != 0.0f) o[flat] += value;
    for (int64_t d = nd - 1; d >= 0; --d) {
      if (++idx[d] < x.dim(d)) break;
      idx[d] = 0;
    }
  }
  return out;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids) {
  EMX_CHECK_EQ(table.ndim(), 2);
  const int64_t v = table.dim(0);
  const int64_t h = table.dim(1);
  Tensor out({static_cast<int64_t>(ids.size()), h});
  const float* t = table.data();
  float* o = out.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    EMX_CHECK(id >= 0 && id < v) << "GatherRows: id " << id << " out of range "
                                 << v;
    std::copy(t + id * h, t + (id + 1) * h, o + static_cast<int64_t>(i) * h);
  }
  return out;
}

void ScatterAddRows(const Tensor& grad, const std::vector<int64_t>& ids,
                    Tensor* table_grad) {
  EMX_CHECK_EQ(grad.ndim(), 2);
  EMX_CHECK_EQ(table_grad->ndim(), 2);
  const int64_t h = table_grad->dim(1);
  EMX_CHECK_EQ(grad.dim(1), h);
  EMX_CHECK_EQ(grad.dim(0), static_cast<int64_t>(ids.size()));
  const float* g = grad.data();
  float* t = table_grad->data();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    float* dst = t + id * h;
    const float* src = g + static_cast<int64_t>(i) * h;
    for (int64_t j = 0; j < h; ++j) dst[j] += src[j];
  }
}

Tensor SelectTimeStep(const Tensor& x, int64_t t) {
  EMX_CHECK_EQ(x.ndim(), 3);
  const int64_t b = x.dim(0), seq = x.dim(1), h = x.dim(2);
  EMX_CHECK(t >= 0 && t < seq);
  Tensor out({b, h});
  const float* p = x.data();
  float* o = out.data();
  for (int64_t i = 0; i < b; ++i) {
    std::copy(p + (i * seq + t) * h, p + (i * seq + t + 1) * h, o + i * h);
  }
  return out;
}

void AddToTimeStep(const Tensor& grad_bh, int64_t t, Tensor* grad_bth) {
  EMX_CHECK_EQ(grad_bh.ndim(), 2);
  EMX_CHECK_EQ(grad_bth->ndim(), 3);
  const int64_t b = grad_bth->dim(0), seq = grad_bth->dim(1), h = grad_bth->dim(2);
  EMX_CHECK(t >= 0 && t < seq);
  const float* g = grad_bh.data();
  float* o = grad_bth->data();
  for (int64_t i = 0; i < b; ++i) {
    float* dst = o + (i * seq + t) * h;
    const float* src = g + i * h;
    for (int64_t j = 0; j < h; ++j) dst[j] += src[j];
  }
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  EMX_CHECK(!parts.empty());
  const int64_t nd = parts[0].ndim();
  if (axis < 0) axis += nd;
  EMX_CHECK(axis >= 0 && axis < nd);
  int64_t concat_dim = 0;
  for (const auto& p : parts) {
    EMX_CHECK_EQ(p.ndim(), nd);
    for (int64_t d = 0; d < nd; ++d) {
      if (d != axis) EMX_CHECK_EQ(p.dim(d), parts[0].dim(d));
    }
    concat_dim += p.dim(axis);
  }
  Shape out_shape = parts[0].shape();
  out_shape[static_cast<size_t>(axis)] = concat_dim;
  Tensor out(out_shape);

  // outer = product of dims before axis; inner = product after axis.
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= parts[0].dim(d);
  for (int64_t d = axis + 1; d < nd; ++d) inner *= parts[0].dim(d);

  float* o = out.data();
  const int64_t out_row = concat_dim * inner;
  int64_t offset = 0;
  for (const auto& p : parts) {
    const int64_t rows = p.dim(axis) * inner;
    const float* src = p.data();
    for (int64_t r = 0; r < outer; ++r) {
      std::copy(src + r * rows, src + (r + 1) * rows, o + r * out_row + offset);
    }
    offset += rows;
  }
  return out;
}

std::vector<Tensor> SplitAxis(const Tensor& x, int64_t axis,
                              const std::vector<int64_t>& sizes) {
  const int64_t nd = x.ndim();
  if (axis < 0) axis += nd;
  EMX_CHECK(axis >= 0 && axis < nd);
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  EMX_CHECK_EQ(total, x.dim(axis));

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= x.dim(d);
  for (int64_t d = axis + 1; d < nd; ++d) inner *= x.dim(d);

  std::vector<Tensor> parts;
  parts.reserve(sizes.size());
  const float* src = x.data();
  const int64_t in_row = x.dim(axis) * inner;
  int64_t offset = 0;
  for (int64_t s : sizes) {
    Shape shape = x.shape();
    shape[static_cast<size_t>(axis)] = s;
    Tensor part(shape);
    float* dst = part.data();
    const int64_t rows = s * inner;
    for (int64_t r = 0; r < outer; ++r) {
      std::copy(src + r * in_row + offset, src + r * in_row + offset + rows,
                dst + r * rows);
    }
    offset += rows;
    parts.push_back(std::move(part));
  }
  return parts;
}

Tensor LayerNormForward(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, float eps, Tensor* mean,
                        Tensor* rstd) {
  const int64_t h = x.dim(-1);
  EMX_CHECK_EQ(gamma.size(), h);
  EMX_CHECK_EQ(beta.size(), h);
  const int64_t rows = x.size() / h;
  EMX_TRACE_SPAN("kernel.layernorm", [&] {
    return obs::KeyValues({{"rows", rows}, {"hidden", h}});
  });
  Tensor out(x.shape());
  *mean = Tensor({rows});
  *rstd = Tensor({rows});
  const float* p = x.data();
  const float* g = gamma.data();
  const float* b = beta.data();
  float* o = out.data();
  float* pm = mean->data();
  float* pr = rstd->data();
  ParallelFor(rows, RowGrain(h), [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const float* src = p + r * h;
      float* dst = o + r * h;
      float mu = 0.0f;
      for (int64_t j = 0; j < h; ++j) mu += src[j];
      mu /= static_cast<float>(h);
      float var = 0.0f;
      for (int64_t j = 0; j < h; ++j) {
        const float d = src[j] - mu;
        var += d * d;
      }
      var /= static_cast<float>(h);
      const float r_std = 1.0f / std::sqrt(var + eps);
      pm[r] = mu;
      pr[r] = r_std;
      for (int64_t j = 0; j < h; ++j) {
        dst[j] = (src[j] - mu) * r_std * g[j] + b[j];
      }
    }
  });
  return out;
}

Tensor LayerNormBackward(const Tensor& dy, const Tensor& x,
                         const Tensor& gamma, const Tensor& mean,
                         const Tensor& rstd, Tensor* dgamma, Tensor* dbeta) {
  const int64_t h = x.dim(-1);
  const int64_t rows = x.size() / h;
  Tensor dx(x.shape());
  const float* pdy = dy.data();
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pm = mean.data();
  const float* pr = rstd.data();
  float* pdx = dx.data();
  float* pdg = dgamma->data();
  float* pdb = dbeta->data();
  // Rows are independent for dx, but dgamma/dbeta reduce across rows: each
  // chunk accumulates private partials and merges them under a mutex.
  std::mutex merge_mu;
  ParallelFor(rows, RowGrain(h), [&](int64_t begin, int64_t end) {
    std::vector<float> local_dg(h, 0.0f);
    std::vector<float> local_db(h, 0.0f);
    for (int64_t r = begin; r < end; ++r) {
      const float* gy = pdy + r * h;
      const float* xx = px + r * h;
      float* gx = pdx + r * h;
      const float mu = pm[r];
      const float rs = pr[r];
      // xhat_j = (x_j - mu) * rs; dxhat_j = gy_j * gamma_j.
      float sum_dxhat = 0.0f;
      float sum_dxhat_xhat = 0.0f;
      for (int64_t j = 0; j < h; ++j) {
        const float xhat = (xx[j] - mu) * rs;
        const float dxhat = gy[j] * pg[j];
        sum_dxhat += dxhat;
        sum_dxhat_xhat += dxhat * xhat;
        local_dg[j] += gy[j] * xhat;
        local_db[j] += gy[j];
      }
      const float inv_h = 1.0f / static_cast<float>(h);
      for (int64_t j = 0; j < h; ++j) {
        const float xhat = (xx[j] - mu) * rs;
        const float dxhat = gy[j] * pg[j];
        gx[j] = rs * (dxhat - inv_h * sum_dxhat - xhat * inv_h * sum_dxhat_xhat);
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    for (int64_t j = 0; j < h; ++j) {
      pdg[j] += local_dg[j];
      pdb[j] += local_db[j];
    }
  });
  return dx;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EMX_CHECK_EQ(a.size(), b.size());
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::abs(pa[i] - pb[i]));
  }
  return mx;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(pa[i] - pb[i]) > atol + rtol * std::abs(pb[i])) return false;
  }
  return true;
}

}  // namespace ops
}  // namespace emx
