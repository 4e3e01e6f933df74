// perfbench: the repository's end-to-end benchmark.
//
//   perfbench prepare --artefacts DIR
//       Builds every artefact the workloads read (tokenizer, fp32
//       checkpoint, int8 EMXM container, base catalog, query set).
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --artefacts DIR --spec BENCHMARK.json [--report FILE]
//                 [--trace-out FILE]
//       Runs one workload (pair_stream, catalog_zipf or finetune), checks
//       its outputs, writes the full JSON report and prints the result
//       line last: the end-to-end metrics BENCHMARK.json declares when
//       untraced, its per-layer metrics when traced.
//
// Usually driven through run.py, which builds this binary, prepares the
// artefacts once and pins the thread counts.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "quant/int8_gemm.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

volatile uint64_t g_canary_sink = 0;

/// A fixed single-thread integer loop: host speed before and after a run.
/// Diagnostic only — never used to adjust or drop a run.
double CanaryMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 10000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_canary_sink = x;
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(ms);
}

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string IsaFlags() {
  std::istringstream flags(CpuInfoField("flags"));
  std::string flag, kept;
  while (flags >> flag) {
    for (const char* want : {"avx2", "fma", "avx512f", "avx512_vnni",
                             "avx_vnni", "avx512_bf16"}) {
      if (flag == want) kept += (kept.empty() ? "" : " ") + flag;
    }
  }
  return kept;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string Arg(int argc, char** argv, const std::string& key,
                const std::string& fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == key) return argv[i + 1];
  }
  return fallback;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --artefacts DIR\n"
               "       perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --artefacts DIR --spec BENCHMARK.json "
               "[--report FILE] [--trace-out FILE]\n");
  return 2;
}

int Run(const RunConfig& cfg, const std::string& spec_path,
        const std::string& report_path) {
  std::vector<MetricSpec> catalog;
  {
    std::ifstream in(spec_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    if (!in || !ParseMetricCatalog(text.str(),
                                   cfg.trace ? "per_layer" : "end_to_end",
                                   &catalog, &error)) {
      std::fprintf(stderr, "perfbench: cannot read metrics from %s: %s\n",
                   spec_path.c_str(), error.c_str());
      return 1;
    }
  }
  const Artefacts a(cfg.artefacts);
  if (!std::ifstream(a.ready()).good()) {
    std::fprintf(stderr, "perfbench: artefacts not prepared in %s\n",
                 cfg.artefacts.c_str());
    return 1;
  }
  // Every thread of the run — the benchmark's and the library's — shares
  // one vCPU. Hand-offs between the load generator, server, engine worker
  // and client then never wait for another vCPU to wake: unpinned on a
  // 4-vCPU VM, catalog_zipf queries/s followed the host's steal time (37%
  // interquartile spread over ten runs, 5% pinned) and pair_stream's paced
  // p50 flipped between ~3.2 ms and ~5.2 ms from run to run.
  PinToLastCpu();
  const double canary_before = CanaryMs();
  const HostTicks ticks_before = ReadHostTicks();
  RunResult result;
  if (cfg.workload == "pair_stream") {
    RunPairStream(cfg, &result);
  } else if (cfg.workload == "catalog_zipf") {
    RunCatalogZipf(cfg, &result);
  } else if (cfg.workload == "finetune") {
    RunFineTune(cfg, &result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }
  const HostTicks ticks_after = ReadHostTicks();
  const double canary_after = CanaryMs();
  if (cfg.trace) {
    if (!cfg.trace_path.empty() &&
        !emx::obs::WriteChromeTrace(cfg.trace_path)) {
      result.Fail("cannot write trace " + cfg.trace_path);
    }
    result.Set("trace.dropped_events",
               static_cast<double>(emx::obs::TraceDroppedCount()));
    result.Diag("trace.events",
                static_cast<double>(emx::obs::TraceEventCount()));
  }
  if (result.attempted < 1) {
    // A run that could not attempt anything still reports, as a failure.
    result.attempted = 1;
    result.failed = 1;
    result.Fail("no operation attempted");
  }
  result.Diag("canary.before_ms", canary_before);
  result.Diag("canary.after_ms", canary_after);
  const int64_t ticks = ticks_after.total - ticks_before.total;
  result.Diag("host.steal_frac",
              ticks > 0 ? static_cast<double>(ticks_after.steal -
                                              ticks_before.steal) /
                              static_cast<double>(ticks)
                        : 0);

  ConformToCatalog(catalog, &result);
  if (!cfg.trace) {
    // Every workload measures every end-to-end metric.
    for (const std::string& name : result.not_exercised) {
      result.Fail("end-to-end metric not measured: " + name);
    }
  }

  const std::vector<MetaField> meta = {
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", std::to_string(cfg.seconds)},
      {"trace", cfg.trace ? "1" : "0"},
      {"source", EnvOr("PERFBENCH_SOURCE_ID", "unknown")},
      {"git_sha", EnvOr("PERFBENCH_GIT_SHA", "unknown")},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cpu_model", CpuInfoField("model name")},
      {"isa_flags", IsaFlags()},
      {"vnni_kernel", emx::quant::HasVnniKernel() ? "true" : "false"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"kernel_pool_threads",
       std::to_string(emx::GlobalThreadPool()->num_threads())},
      {"engine_workers", std::to_string(kEngineWorkers)},
      {"load_generator_threads", "1"},
      {"pinned_cpu", std::to_string(PinnedCpu())},
  };
  const std::string report = FullReport(catalog, result, meta);
  std::string error;
  if (!emx::obs::JsonParse(report, nullptr, &error)) {
    std::fprintf(stderr, "perfbench: report does not parse: %s\n",
                 error.c_str());
    return 1;
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::trunc);
    out << report << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   report_path.c_str());
      return 1;
    }
  }
  const std::string line = ResultLine(catalog, result);
  if (!ValidateResultLine(line, catalog, &error)) {
    std::fprintf(stderr, "perfbench: result line invalid: %s\n",
                 error.c_str());
    return 1;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d pool=%zu "
              "canary=%.1f/%.1f ms\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0,
              emx::GlobalThreadPool()->num_threads(), canary_before,
              canary_after);
  for (size_t i = 0; i < catalog.size(); ++i) {
    std::printf("  %-32s %16.4f %s\n", catalog[i].name.c_str(),
                result.metrics[i].value, catalog[i].unit.c_str());
  }
  for (const std::string& p : result.problems) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const std::string artefacts = Arg(argc, argv, "--artefacts", "");
  if (artefacts.empty()) return Usage();
  if (cmd == "prepare") {
    const emx::Status s = PrepareArtefacts(Artefacts(artefacts));
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: prepare failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (cmd != "run") return Usage();
  RunConfig cfg;
  cfg.workload = Arg(argc, argv, "--workload", "");
  cfg.seed = std::strtoull(Arg(argc, argv, "--seed", "1").c_str(), nullptr,
                           10);
  cfg.seconds = std::atof(Arg(argc, argv, "--seconds", "10").c_str());
  cfg.trace = Arg(argc, argv, "--trace", "0") == "1";
  cfg.artefacts = artefacts;
  cfg.trace_path = Arg(argc, argv, "--trace-out", "");
  if (cfg.workload.empty() || cfg.seconds <= 0) return Usage();
  const std::string spec = Arg(argc, argv, "--spec", "");
  if (spec.empty()) return Usage();
  return Run(cfg, spec, Arg(argc, argv, "--report", ""));
}
