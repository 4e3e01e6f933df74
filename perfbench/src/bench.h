#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the three workloads: run configuration, the prepared
// artefacts, matcher construction, and the layer probes of the traced run.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/entity_matcher.h"
#include "inputs.h"
#include "obs/trace.h"
#include "report.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Engine batch workers on the serving workloads (recorded in the report).
inline constexpr int64_t kEngineWorkers = 1;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string artefacts;   // prepared artefact directory
  std::string trace_path;  // chrome trace output (traced runs)
};

/// File layout of the prepared artefacts. Everything derives from a fixed
/// artefact seed, so one preparation serves every run in a checkout; the
/// run's --seed drives only the workload inputs.
struct Artefacts {
  explicit Artefacts(std::string d) : dir(std::move(d)) {}
  std::string dir;
  std::string zoo() const { return dir + "/zoo"; }
  std::string model_fp32() const { return dir + "/model_fp32.emxp"; }
  std::string model_int8() const { return dir + "/model_int8.emxm"; }
  std::string catalog() const { return dir + "/catalog.emxcat"; }
  std::string queries() const { return dir + "/queries.txt"; }
  std::string ready() const { return dir + "/READY"; }
};

inline constexpr uint64_t kArtefactSeed = 20200330;

/// Trains the tokenizer, builds, calibrates, quantizes and saves the model
/// (fp32 checkpoint + int8 EMXM container), and builds and saves the base
/// catalog with its query set. Writes READY last.
emx::Status PrepareArtefacts(const Artefacts& a);

/// Loads the cached tokenizer and builds a BERT matcher of the canonical
/// scaled geometry with seeded random weights (callers then load saved
/// weights into it).
emx::Result<std::unique_ptr<emx::core::EntityMatcher>> NewMatcher(
    const Artefacts& a);

/// Catalog queries and the catalog id of each query's true match.
struct QuerySet {
  std::vector<std::string> texts;
  std::vector<int64_t> truth;
};
emx::Result<QuerySet> LoadQueries(const Artefacts& a);

void RunPairStream(const RunConfig& cfg, RunResult* out);
void RunCatalogZipf(const RunConfig& cfg, RunResult* out);
void RunFineTune(const RunConfig& cfg, RunResult* out);

/// Shapes the layer probes replay: micro-batch rows and padded tokens.
struct ProbeShape {
  int64_t batch = 16;
  int64_t seq = 64;
};

/// Layer probes shared by all workloads, at the workload's shapes and
/// precision: tokenizers.*, models.forward_*, models.flops_per_pair,
/// nn.*, tensor.* and (int8 matchers) quant.*. `sample` supplies real
/// text for the tokenizer and model batches.
void ProbeLayers(emx::core::EntityMatcher* matcher,
                 const std::vector<TextPair>& sample, ProbeShape shape,
                 bool int8, RunResult* out);

/// Profiling options of the traced run: per-thread buffers large enough
/// that a traced pair_stream run keeps every kernel span.
emx::obs::ObsOptions TraceOptions();

/// Median of a vector (0 when empty).
double Median(std::vector<double> v);

/// `texts` cut into consecutive slices of `size` (the last may be shorter).
inline std::vector<std::vector<std::string>> BulkSlices(
    const std::vector<std::string>& texts, int64_t size) {
  std::vector<std::vector<std::string>> slices;
  for (size_t i = 0; i < texts.size(); i += static_cast<size_t>(size)) {
    slices.emplace_back(
        texts.begin() + static_cast<std::ptrdiff_t>(i),
        texts.begin() + static_cast<std::ptrdiff_t>(std::min(
                            texts.size(), i + static_cast<size_t>(size))));
  }
  return slices;
}
/// Times `fn` `reps` times and returns the median in milliseconds.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(std::move(ms));
}

/// Pins the calling thread — and every thread it starts afterwards — to
/// the last CPU this process may run on (CPU 0 takes most device
/// interrupts).
void PinToLastCpu();
/// The CPU the calling thread is pinned to, or -1 when it may use several.
int PinnedCpu();

/// Host CPU time stolen by the hypervisor: cumulative steal and total
/// jiffies over all CPUs (/proc/stat). Diagnostic only.
struct HostTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
HostTicks ReadHostTicks();

/// Peak resident set size of this process (VmHWM), MB.
double PeakRssMb();
/// Current resident set size of this process (VmRSS), MB.
double RssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
