// Host helpers the workloads share (medians, RSS, pinning, steal), and the
// layer probes of the traced run: after the timed phase, a sample of the
// workload's own inputs is replayed through each layer's public functions
// at the shapes the run saw. Every call is wrapped in a benchmark span.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>

#include "bench.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/int8_gemm.h"
#include "quant/quantized_linear.h"
#include "tensor/fused_attention.h"
#include "tensor/tensor_ops.h"
#include "tensor/variable.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {
constexpr int kReps = 15;
}  // namespace

emx::obs::ObsOptions TraceOptions() {
  emx::obs::ObsOptions options;
  options.max_events_per_thread = size_t{1} << 19;
  return options;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void PinToLastCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

int PinnedCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) != 1) {
    return -1;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) return c;
  }
  return -1;
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks ticks;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    int64_t v = 0;
    if (!(in >> v)) return {};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

namespace {
/// A "Vm...:  N kB" field of /proc/self/status, MB.
double StatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}
}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }
double RssMb() { return StatusMb("VmRSS:"); }

namespace {

/// Sum of the per-worker busy counters of workers [0, workers) (ns). Every
/// pool registers worker i under the same name; the pool updates them
/// only while profiling is on.
int64_t PoolBusyNs(size_t workers) {
  int64_t total = 0;
  for (size_t i = 0; i < workers; ++i) {
    total += emx::obs::MetricsRegistry::Global()
                 ->GetCounter("threadpool.worker." + std::to_string(i) +
                              ".busy_ns")
                 ->Value();
  }
  return total;
}

/// util: ParallelFor of a two-worker pool over the rows of the model's
/// largest GEMM (FFN fc1: [B*T, H] x [H, I]) at the run's shape. The runs
/// keep the global kernel pool at one thread, whose ParallelFor always runs
/// inline, so the probe builds its own pool; the global pool's single
/// worker never runs a task and adds nothing to the shared counters.
void ProbeThreadPool(int64_t rows, int64_t h, int64_t inter,
                     RunResult* out) {
  constexpr size_t kWorkers = 2;
  emx::ThreadPool pool(kWorkers);
  emx::Rng rng(2);
  const emx::Tensor a = emx::Tensor::Randn({rows, h}, &rng);
  const emx::Tensor w = emx::Tensor::Randn({h, inter}, &rng);
  std::vector<float> c(static_cast<size_t>(rows * inter));
  const float* ap = a.data();
  const float* wp = w.data();
  auto gemm_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      float* ci = c.data() + i * inter;
      std::fill(ci, ci + inter, 0.0f);
      for (int64_t k = 0; k < h; ++k) {
        const float aik = ap[i * h + k];
        const float* wk = wp + k * inter;
        for (int64_t j = 0; j < inter; ++j) ci[j] += aik * wk[j];
      }
    }
  };
  const int64_t busy0 = PoolBusyNs(kWorkers);
  const Clock::time_point t0 = Clock::now();
  const double ms = MedianMs(kReps, [&] {
    emx::obs::TraceSpan span("pb.util.parallel_for");
    pool.ParallelFor(rows, /*grain=*/16, gemm_rows);
  });
  const double wall_ns = 1e6 * MsBetween(t0, Clock::now());
  out->Set("util.parallel_for_us", 1000.0 * ms);
  out->Set("util.pool_busy_frac",
           static_cast<double>(PoolBusyNs(kWorkers) - busy0) /
               (wall_ns * static_cast<double>(kWorkers)));
}

}  // namespace

void ProbeLayers(emx::core::EntityMatcher* matcher,
                 const std::vector<TextPair>& sample, ProbeShape shape,
                 bool int8, RunResult* out) {
  if (sample.empty()) return;
  const emx::models::TransformerConfig& cfg =
      matcher->classifier()->config();
  const int64_t b = shape.batch;
  const int64_t t = shape.seq;
  const int64_t h = cfg.hidden;
  const int64_t inter = cfg.intermediate;

  // tokenizers: EncodePair over the sample.
  {
    const size_t n = std::min<size_t>(sample.size(), 256);
    double real_tokens = 0;
    const Clock::time_point t0 = Clock::now();
    {
      emx::obs::TraceSpan span("pb.tokenizers.encode_pair");
      for (size_t i = 0; i < n; ++i) {
        const emx::tokenizers::EncodedPair enc = matcher->tokenizer().EncodePair(
            sample[i].first, sample[i].second, cfg.max_seq_len);
        for (float pad : enc.attention_mask) real_tokens += pad == 0 ? 1 : 0;
      }
    }
    out->Set("tokenizers.encode_pair_us",
             1000.0 * MsBetween(t0, Clock::now()) / static_cast<double>(n));
    out->Set("tokenizers.tokens_per_pair",
             real_tokens / static_cast<double>(n));
  }

  // models: one micro-batch of the run's shape through Logits.
  std::vector<std::string> as, bs;
  for (int64_t i = 0; i < b; ++i) {
    const TextPair& p = sample[static_cast<size_t>(i) % sample.size()];
    as.push_back(p.first);
    bs.push_back(p.second);
  }
  const emx::models::Batch batch = matcher->BuildBatch(as, bs, t);
  emx::Rng rng(1);
  emx::NoGradGuard no_grad;
  auto logits_ms = [&](bool quantized) {
    emx::nn::QuantModeGuard mode(quantized);
    return MedianMs(kReps, [&] {
      emx::obs::TraceSpan span("pb.models.logits");
      (void)matcher->classifier()->Logits(batch, /*train=*/false, &rng);
    });
  };
  const double fp32_ms = logits_ms(false);
  out->Set("models.forward_fp32_ms", fp32_ms);
  if (int8) out->Set("models.forward_int8_ms", logits_ms(true));
  // Per layer and token: Q/K/V/O projections (4 * 2 H^2), FFN
  // (2 * 2 H I) and the two attention products (2 * 2 T H); plus the
  // pooler and the two-layer head on the CLS row.
  const double per_layer = static_cast<double>(t) *
                           (8.0 * h * h + 4.0 * h * inter + 4.0 * t * h);
  const double flops_per_pair =
      static_cast<double>(cfg.num_layers) * per_layer + 2.0 * h * h * 2 +
      2.0 * h * 2;
  out->Set("models.flops_per_pair", flops_per_pair);
  out->Set("models.forward_gflops",
           flops_per_pair * static_cast<double>(b) / (fp32_ms * 1e6));

  // nn: the model's own FeedForward (reached through CollectQuantTargets,
  // so the int8 pipeline runs when the matcher is quantized), and
  // attention / LayerNorm modules of the model's geometry.
  emx::Variable x(emx::Tensor::Randn({b, t, h}, &rng));
  {
    emx::nn::QuantTargets targets;
    matcher->classifier()->CollectQuantTargets("", &targets);
    if (!targets.ffns.empty()) {
      const emx::nn::FeedForward* ffn = targets.ffns.front().second;
      emx::nn::QuantModeGuard mode(int8);
      out->Set("nn.ffn_ms", MedianMs(kReps, [&] {
                 emx::obs::TraceSpan span("pb.nn.ffn");
                 (void)ffn->Forward(x, 0.0f, /*train=*/false, &rng);
               }));
      if (int8) {
        auto backend =
            std::dynamic_pointer_cast<const emx::quant::Int8FfnBackend>(
                ffn->backend());
        if (backend != nullptr) {
          // quant: the fc1 GEMM of the model's int8 FFN at the run's rows.
          const emx::quant::PackedWeights& w = backend->fc1();
          const int64_t m = b * t;
          std::vector<float> y(static_cast<size_t>(m * w.out));
          const double ms = MedianMs(kReps, [&] {
            emx::obs::TraceSpan span("pb.quant.int8_linear");
            emx::quant::Int8LinearForward(x.value().data(), m, w, y.data());
          });
          out->Set("quant.int8_gemm_gflops",
                   2.0 * m * w.in * w.out / (ms * 1e6));
        }
      }
    }
    emx::nn::MultiHeadAttention attention(h, cfg.num_heads, &rng,
                                          cfg.InitStddev());
    out->Set("nn.attention_ms", MedianMs(kReps, [&] {
               emx::obs::TraceSpan span("pb.nn.attention");
               (void)attention.Forward(x, x, batch.attention_mask, 0.0f,
                                       /*train=*/false, &rng);
             }));
    emx::nn::LayerNorm norm(h);
    out->Set("nn.layernorm_ms", MedianMs(kReps, [&] {
               emx::obs::TraceSpan span("pb.nn.layernorm");
               (void)norm.Forward(x);
             }));
  }

  // tensor: the model's largest GEMM (FFN fc1: [B*T, H] x [H, I]) and the
  // fused attention kernels at [B, T, H].
  {
    const emx::Tensor a = emx::Tensor::Randn({b * t, h}, &rng);
    const emx::Tensor w = emx::Tensor::Randn({h, inter}, &rng);
    const double ms = MedianMs(kReps, [&] {
      emx::obs::TraceSpan span("pb.tensor.matmul");
      (void)emx::ops::MatMul(a, w);
    });
    out->Set("tensor.matmul_gflops", 2.0 * b * t * h * inter / (ms * 1e6));

    const emx::Tensor q = emx::Tensor::Randn({b, t, h}, &rng);
    const emx::Tensor k = emx::Tensor::Randn({b, t, h}, &rng);
    const emx::Tensor v = emx::Tensor::Randn({b, t, h}, &rng);
    emx::ops::FusedAttentionConfig acfg;
    acfg.num_heads = cfg.num_heads;
    acfg.scale = 1.0f / std::sqrt(static_cast<float>(h / cfg.num_heads));
    emx::Tensor row_max, row_sum;
    out->Set("tensor.attention_fwd_us", 1000.0 * MedianMs(kReps, [&] {
               emx::obs::TraceSpan span("pb.tensor.attention_fwd");
               (void)emx::ops::FusedAttentionForward(
                   q, k, v, batch.attention_mask, acfg, &row_max, &row_sum);
             }));
    const emx::Tensor dout = emx::Tensor::Randn({b, t, h}, &rng);
    out->Set("tensor.attention_bwd_us", 1000.0 * MedianMs(kReps, [&] {
               emx::Tensor dq = emx::Tensor::Zeros({b, t, h});
               emx::Tensor dk = emx::Tensor::Zeros({b, t, h});
               emx::Tensor dv = emx::Tensor::Zeros({b, t, h});
               emx::obs::TraceSpan span("pb.tensor.attention_bwd");
               emx::ops::FusedAttentionBackward(dout, q, k, v,
                                                batch.attention_mask, acfg,
                                                row_max, row_sum, &dq, &dk,
                                                &dv);
             }));
  }

  ProbeThreadPool(b * t, h, inter, out);
}

}  // namespace perfbench
