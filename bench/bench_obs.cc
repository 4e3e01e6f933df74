// Overhead gate for the emx::obs tracing/metrics subsystem.
//
// The subsystem's contract is that instrumentation left compiled into the
// hot kernels costs effectively nothing while profiling is stopped: every
// EMX_TRACE_SPAN site degenerates to one relaxed atomic load and a branch.
// This harness measures that cost directly and relates it to the kernels it
// decorates:
//
//   span_off_ns    per-site cost of a disabled span (tight loop, best-of),
//   span_on_ns     per-event cost of a recording span (clock reads + push),
//   matmul_off_ms  a bench_micro_kernels-representative MatMul (128^3,
//                  grad-free) with profiling stopped,
//   matmul_on_ms   the same MatMul while recording,
//
// and gates on:
//
//   disabled overhead   span_off_ns / matmul_off_ns < 1%  (the ISSUE gate;
//                       each kernel call crosses one span site),
//   trace validity      a recorded trace exports to Chrome-trace JSON that
//                       the strict emx::obs parser accepts, with the
//                       expected event count,
//   metrics validity    the global registry snapshot strict-parses.
//
// Results go to BENCH_obs.json. `--smoke` shrinks iteration counts for the
// CTest/CI entry but keeps every gate (the disabled-overhead ratio is loose
// enough to be timing-robust even on loaded CI machines).
//
// Environment knobs:
//   EMX_NUM_THREADS   pool size (default 1 here, so matmul times are
//                     kernel times, not scheduling times)
//   EMX_OBS_REPS      best-of reps for the matmul timings (default 5)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/report.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/timer.h"

namespace emx {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoll(v);
}

template <typename Fn>
double BestOfSeconds(int64_t reps, Fn&& fn) {
  double best = 1e30;
  for (int64_t r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// Per-iteration cost of one span site, in ns. The span name is a distinct
/// literal so enabled runs are attributable in the exported trace.
double SpanSiteNs(int64_t iters) {
  Timer timer;
  for (int64_t i = 0; i < iters; ++i) {
    EMX_TRACE_SPAN("bench.span_site");
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

}  // namespace
}  // namespace emx

int main(int argc, char** argv) {
  using namespace emx;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  setenv("EMX_NUM_THREADS", "1", /*overwrite=*/0);

  const int64_t reps = EnvInt("EMX_OBS_REPS", smoke ? 3 : 5);
  const int64_t off_iters = smoke ? 2'000'000 : 20'000'000;
  const int64_t on_iters = smoke ? 20'000 : 100'000;
  const int64_t m = 128, n = 128, k = 128;

  obs::StopProfiling();
  obs::ClearTrace();

  // ---- disabled span site: relaxed load + branch, amortized over a loop.
  const double span_off_ns = SpanSiteNs(off_iters);

  // ---- representative kernel (bench_micro_kernels' mid MatMul shape),
  // profiling stopped. One EMX_TRACE_SPAN site guards each MatMul call.
  Rng rng(42);
  Tensor a = Tensor::Randn({m, k}, &rng, 0.5f);
  Tensor b = Tensor::Randn({k, n}, &rng, 0.5f);
  const double matmul_off_ms =
      BestOfSeconds(reps, [&] { (void)ops::MatMul(a, b); }) * 1e3;

  // ---- enabled: per-event recording cost and the same kernel while hot.
  obs::ObsOptions opts;
  opts.max_events_per_thread =
      static_cast<size_t>(on_iters) + 4096;  // no drops during the measure
  obs::StartProfiling(opts);
  const double span_on_ns = SpanSiteNs(on_iters);
  const double matmul_on_ms =
      BestOfSeconds(reps, [&] { (void)ops::MatMul(a, b); }) * 1e3;
  obs::StopProfiling();

  // ---- validity: the recorded trace and the metrics registry must both
  // survive the strict parser, and the trace must carry the span events.
  const std::string trace_json = obs::ExportChromeTrace();
  obs::JsonValue trace_doc;
  std::string error;
  bool trace_ok = obs::JsonParse(trace_json, &trace_doc, &error);
  int64_t span_events = 0;
  if (trace_ok) {
    const obs::JsonValue* events = trace_doc.Find("traceEvents");
    trace_ok = events != nullptr && events->is_array();
    if (trace_ok) {
      for (const obs::JsonValue& e : events->array) {
        const obs::JsonValue* name = e.Find("name");
        if (name != nullptr && name->string_value == "bench.span_site") {
          ++span_events;
        }
      }
      trace_ok = span_events >= on_iters;
    }
  } else {
    std::printf("trace parse error: %s\n", error.c_str());
  }

  obs::JsonValue metrics_doc;
  const bool metrics_ok =
      obs::JsonParse(obs::MetricsRegistry::Global()->ToJson(), &metrics_doc,
                     &error) &&
      metrics_doc.Find("counters") != nullptr;
  if (!metrics_ok) std::printf("metrics parse error: %s\n", error.c_str());

  const double matmul_off_ns = matmul_off_ms * 1e6;
  const double overhead_pct = 100.0 * span_off_ns / matmul_off_ns;

  std::printf("bench_obs — emx::obs overhead%s\n\n", smoke ? " (--smoke)" : "");
  std::printf("  disabled span site        %8.2f ns\n", span_off_ns);
  std::printf("  recording span            %8.2f ns\n", span_on_ns);
  std::printf("  MatMul %lldx%lldx%lld off     %8.3f ms\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k), matmul_off_ms);
  std::printf("  MatMul %lldx%lldx%lld traced  %8.3f ms\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k), matmul_on_ms);
  std::printf("  disabled overhead/kernel  %8.5f %%\n", overhead_pct);
  std::printf("  trace events exported     %8lld (dropped %lld)\n",
              static_cast<long long>(obs::TraceEventCount()),
              static_cast<long long>(obs::TraceDroppedCount()));

  bench::Report report("obs");
  report.Set("smoke", smoke)
      .Set("span_disabled_ns", span_off_ns)
      .Set("span_enabled_ns", span_on_ns)
      .Set("matmul_off_ms", matmul_off_ms, 4)
      .Set("matmul_traced_ms", matmul_on_ms, 4)
      .Set("disabled_overhead_pct", overhead_pct, 6)
      .Set("trace_events", span_events)
      .Set("trace_valid", trace_ok)
      .Set("metrics_valid", metrics_ok);
  report.Gate("disabled overhead %", overhead_pct, "<", 1.0);
  report.Check("trace strict-parses", trace_ok);
  report.Check("metrics strict-parse", metrics_ok);
  return report.Finish();
}
