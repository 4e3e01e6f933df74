// Zero-copy mmap model container ("EMXM1") bench: cold start, exactness,
// hot-swap under traffic, and page sharing across processes.
//
// Four sections, four gates, written to BENCH_mmap.json:
//
//   1. Cold start — time from opening the model file to the first int8
//      match probability, served zero-copy from the mapped pages (fp32
//      parameters, packed int8 weights and their col_sums). Reported, not
//      gated: the property it stands for is that the load reads only what
//      inference touches, which the residency gate checks directly.
//      GATE: after the load and the first inference, the container
//      mapping's Rss (from /proc/self/smaps) is <= 25% of the file. A
//      loader that copies or touches every weight reaches ~100%.
//
//   2. Exactness — the mapped matcher and an owned EntityMatcher::Load of
//      the same file must be indistinguishable from the in-memory
//      original: MatchProbability identical (==, not NEAR) on every probe
//      pair, fp32 for both loads and int8 for the mapped one (the owned
//      load copies fp32 parameters only).
//      GATE: zero mismatches.
//
//   3. Hot-swap hammer — client threads hammer a serving engine while a
//      swapper thread rotates between freshly mapped containers as fast
//      as it can. In-flight batches finish on the model they were
//      submitted against (each request pins its model snapshot).
//      GATE: zero failed requests, every swap accepted, and results span
//      multiple model versions.
//
//   4. Page sharing — two forked children map the same container and
//      touch every byte; /proc/self/smaps must show the mapping's pages
//      shared between them (Pss well under Rss), which is the property
//      that lets a shard fleet serve one model image from one physical
//      copy.
//      GATE: Pss <= 0.7x Rss for the container mapping in every child.
//
// Knobs:
//   EMX_MMAP_LAYERS   encoder depth   (default 4; smoke 2)
//   EMX_MMAP_HIDDEN   encoder width   (default 512; smoke 64)
//   EMX_MMAP_REPS     cold-start reps, median time and worst residency
//                     reported (default 3)
//   EMX_CACHE_DIR     tokenizer/zoo cache (default /tmp/emx_zoo_bench)

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/report.h"
#include "core/entity_matcher.h"
#include "io/emxm.h"
#include "models/encoder.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "pretrain/model_zoo.h"
#include "quant/model_file.h"
#include "quant/quantize_matcher.h"
#include "serve/matcher_engine.h"
#include "util/rng.h"
#include "util/timer.h"

namespace emx {
namespace {

constexpr int64_t kMaxSeqLen = 48;

/// Production-shaped vocabulary table. The zoo's synthetic tokenizer only
/// emits ~1000 distinct ids, but a deployed BERT-class matcher ships the
/// full WordPiece table — and those embedding rows are pure checkpoint
/// bytes (a lookup never touches more than T of them), which is exactly
/// the fp32 payload a mapped container pages in lazily instead of parsing.
constexpr int64_t kVocabRows = 30522;

/// Zoo-trained tokenizer under a manually sized random-weight encoder
/// (values do not matter for load timing; shapes and bytes do).
std::unique_ptr<core::EntityMatcher> BuildMatcher(
    const pretrain::ZooOptions& zoo, int64_t layers, int64_t hidden,
    uint64_t seed) {
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return nullptr;
  }
  models::TransformerConfig cfg = models::TransformerConfig::Scaled(
      models::Architecture::kBert, bundle.value().tokenizer->vocab_size());
  cfg.vocab_size = kVocabRows;
  cfg.num_layers = layers;
  cfg.hidden = hidden;
  cfg.num_heads = std::max<int64_t>(1, hidden / 32);
  cfg.intermediate = hidden * 4;
  cfg.max_seq_len = kMaxSeqLen;
  Rng rng(seed);
  pretrain::PretrainedBundle b;
  b.model = std::make_unique<models::EncoderModel>(cfg, &rng);
  b.tokenizer = std::move(bundle.value().tokenizer);
  auto matcher = std::make_unique<core::EntityMatcher>(std::move(b));
  matcher->set_eval_max_seq_len(kMaxSeqLen);
  return matcher;
}

std::vector<std::pair<std::string, std::string>> ProbePairs() {
  return {
      {"samsung zen sx440 phone compact black", "samsung sx440 zen phone"},
      {"logitech wireless mouse m185 grey", "logitech m185 mouse wireless"},
      {"canon prime zz910 camera optical zoom", "nikon d3500 dslr camera kit"},
      {"acer laptop zx1004 series 14 inch", "acer zx1004 laptop silver"},
  };
}

// ---- Sections 1 and 4: Rss/Pss of a mapping from smaps ---------------------

struct ShareSample {
  int64_t rss_kb = 0;
  int64_t pss_kb = 0;
};

/// Sums Rss/Pss over every smaps entry whose pathname contains `needle`.
ShareSample ReadSmaps(const std::string& needle) {
  ShareSample s;
  FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return s;
  char line[512];
  bool in_target = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // Mapping headers look like "addr-addr perms off dev inode  /path";
    // attribute lines ("Rss:  12 kB") never start with a hex range.
    unsigned long long lo = 0, hi = 0;
    if (std::sscanf(line, "%llx-%llx ", &lo, &hi) == 2) {
      in_target = std::strstr(line, needle.c_str()) != nullptr;
      continue;
    }
    if (!in_target) continue;
    long long kb = 0;
    if (std::sscanf(line, "Rss: %lld kB", &kb) == 1) s.rss_kb += kb;
    if (std::sscanf(line, "Pss: %lld kB", &kb) == 1) s.pss_kb += kb;
  }
  std::fclose(f);
  return s;
}

/// Forks `children` processes that each map `path`, touch every byte, and
/// report the mapping's Rss/Pss while all mappings are simultaneously
/// live. Returns one sample per child (empty on orchestration failure).
std::vector<ShareSample> MeasureSharing(const std::string& path,
                                        int children) {
  // ready: children -> parent ("mapped and touched"); go: parent ->
  // children ("everyone is up; measure now"); result: samples back; done:
  // parent -> children ("everyone has measured; exit now"), so no child
  // unmaps while another is still reading its smaps.
  int ready[2], go[2], result[2], done[2];
  if (pipe(ready) != 0 || pipe(go) != 0 || pipe(result) != 0 ||
      pipe(done) != 0) {
    return {};
  }
  std::vector<pid_t> pids;
  for (int c = 0; c < children; ++c) {
    const pid_t pid = fork();
    if (pid < 0) return {};
    if (pid == 0) {
      auto reader = io::EmxmReader::Open(path);
      volatile uint64_t sum = 0;
      if (reader.ok()) {
        const io::MmapFile& map = reader.value()->mapping();
        const uint8_t* p = static_cast<const uint8_t*>(map.data());
        for (uint64_t i = 0; i < map.size(); i += 512) sum = sum + p[i];
      }
      (void)sum;
      char ch = reader.ok() ? '+' : '-';
      (void)!write(ready[1], &ch, 1);
      (void)!read(go[0], &ch, 1);
      ShareSample s = ReadSmaps(path);
      (void)!write(result[1], &s, sizeof(s));
      (void)!read(done[0], &ch, 1);
      _exit(0);
    }
    pids.push_back(pid);
  }
  std::vector<ShareSample> samples;
  bool all_mapped = true;
  for (int c = 0; c < children; ++c) {
    char ch = '-';
    if (read(ready[0], &ch, 1) != 1 || ch != '+') all_mapped = false;
  }
  for (int c = 0; c < children; ++c) {
    char ch = 'g';
    (void)!write(go[1], &ch, 1);
  }
  for (int c = 0; c < children; ++c) {
    ShareSample s;
    if (read(result[0], &s, sizeof(s)) == sizeof(s)) samples.push_back(s);
  }
  for (int c = 0; c < children; ++c) {
    char ch = 'd';
    (void)!write(done[1], &ch, 1);
  }
  for (pid_t pid : pids) waitpid(pid, nullptr, 0);
  for (int fd : {ready[0], ready[1], go[0], go[1], result[0], result[1],
                 done[0], done[1]}) {
    close(fd);
  }
  if (!all_mapped) samples.clear();
  return samples;
}

}  // namespace
}  // namespace emx

int main(int argc, char** argv) {
  using namespace emx;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int64_t layers = bench::EnvInt("EMX_MMAP_LAYERS", smoke ? 2 : 4);
  const int64_t hidden = bench::EnvInt("EMX_MMAP_HIDDEN", smoke ? 64 : 512);
  const int64_t reps = bench::EnvInt("EMX_MMAP_REPS", 3);
  constexpr double kResidentCeiling = 0.25;

  pretrain::ZooOptions zoo = bench::BenchZoo();
  zoo.skip_pretraining = true;

  const std::string dir = "/tmp/emx_mmap_bench";
  ::mkdir(dir.c_str(), 0755);
  const std::string emxm = dir + "/model.emxm";

  std::printf("bench_mmap: %lld layers x %lld hidden%s\n",
              static_cast<long long>(layers), static_cast<long long>(hidden),
              smoke ? " (smoke)" : "");

  // ---- Reference matcher: quantize, then save the model file -------------
  auto ref = BuildMatcher(zoo, layers, hidden, /*seed=*/17);
  if (ref == nullptr) return 1;
  {
    quant::CalibrationData calib;
    for (const auto& [a, b] : ProbePairs()) {
      calib.texts_a.push_back(a);
      calib.texts_b.push_back(b);
    }
    auto report = quant::QuantizeMatcher(ref.get(), calib);
    if (!report.ok()) {
      std::printf("error: quantize: %s\n",
                  report.status().ToString().c_str());
      return 1;
    }
  }
  if (Status s = quant::SaveModelFile(ref.get(), emxm); !s.ok()) {
    std::printf("error: save: %s\n", s.ToString().c_str());
    return 1;
  }
  struct stat st;
  const int64_t emxm_bytes = ::stat(emxm.c_str(), &st) == 0 ? st.st_size : 0;

  // ---- Section 1: cold start and residency --------------------------------
  // The first inference is a minimal readiness ping — a short pair padded
  // to kPingSeqLen rather than the serving max_seq_len, because what this
  // section measures is time-to-servable, not steady-state latency.
  const int64_t kPingSeqLen = 8;
  const std::pair<std::string, std::string> ping{"acer", "acer"};
  const auto probe = ProbePairs();
  std::vector<double> mmap_ms_runs;
  int64_t resident_kb = 0;  // worst rep; 0 if smaps never showed the map
  for (int64_t r = 0; r < reps; ++r) {
    auto m = BuildMatcher(zoo, layers, hidden, /*seed=*/53 + r);
    m->set_eval_max_seq_len(kPingSeqLen);
    Timer t;
    auto info = quant::LoadModelFileMapped(m.get(), emxm);
    if (!info.ok()) {
      std::printf("error: mapped load: %s\n",
                  info.status().ToString().c_str());
      return 1;
    }
    (void)m->MatchProbability(ping.first, ping.second);
    mmap_ms_runs.push_back(t.ElapsedSeconds() * 1000.0);
    // Only this rep's matcher maps the file right now.
    resident_kb = std::max(resident_kb, ReadSmaps(emxm).rss_kb);
  }
  std::sort(mmap_ms_runs.begin(), mmap_ms_runs.end());
  const double mmap_ms = obs::Percentile(mmap_ms_runs, 0.5);
  const double resident_share =
      emxm_bytes > 0 ? static_cast<double>(resident_kb) * 1024.0 /
                           static_cast<double>(emxm_bytes)
                     : 1.0;
  std::printf("cold start (open -> first int8 inference, median of %lld): "
              "%.2f ms, container %.1f MB, %.1f%% resident\n",
              static_cast<long long>(reps), mmap_ms,
              static_cast<double>(emxm_bytes) / (1024.0 * 1024.0),
              100.0 * resident_share);

  // ---- Section 2: exactness -----------------------------------------------
  auto owned = BuildMatcher(zoo, layers, hidden, /*seed=*/71);
  auto mapped = BuildMatcher(zoo, layers, hidden, /*seed=*/73);
  if (owned == nullptr || mapped == nullptr) return 1;
  if (Status s = owned->Load(emxm); !s.ok()) {
    std::printf("error: owned load: %s\n", s.ToString().c_str());
    return 1;
  }
  if (auto info = quant::LoadModelFileMapped(mapped.get(), emxm);
      !info.ok() || !info.value().has_int8) {
    std::printf("error: mapped load lost int8 state\n");
    return 1;
  }
  int64_t mismatches = 0;
  for (const auto& [a, b] : probe) {
    {
      nn::QuantModeGuard fp32_only(false);
      const double p_ref = ref->MatchProbability(a, b);
      if (owned->MatchProbability(a, b) != p_ref) ++mismatches;
      if (mapped->MatchProbability(a, b) != p_ref) ++mismatches;
    }
    if (mapped->MatchProbability(a, b) != ref->MatchProbability(a, b)) {
      ++mismatches;
    }
  }
  std::printf("exactness: %lld mismatches over %zu pairs x {fp32 owned, "
              "fp32 mapped, int8 mapped}\n",
              static_cast<long long>(mismatches), probe.size());

  // ---- Section 3: hot-swap under traffic ----------------------------------
  // Three generations of the container, each mapped fresh per swap, so
  // every swap exercises the full open -> validate -> view -> attach path
  // while old mappings stay pinned by in-flight requests.
  std::atomic<int64_t> swap_count{0};
  int64_t swap_failures = 0;
  int64_t request_failures = 0;
  int64_t requests_sent = 0;
  int64_t versions_seen = 0;
  {
    serve::EngineOptions opts;
    opts.precision = serve::Precision::kInt8;
    opts.max_batch_size = 8;
    opts.max_wait_us = 500;
    opts.queue_capacity = 4096;
    opts.max_seq_len = kMaxSeqLen;
    serve::MatcherEngine engine(mapped.get(), opts);

    const int64_t kClients = 4;
    const int64_t kPerClient = smoke ? 60 : 200;
    // Traffic must actually overlap at least two swaps for the gate to
    // mean anything, so clients keep hammering past their quota until the
    // swapper has landed twice (with a generous cap so a wedged swapper
    // fails the gate instead of hanging the bench).
    const int64_t kPerClientCap = kPerClient * 50;
    std::atomic<bool> traffic_done{false};
    std::atomic<int64_t> failures{0};
    std::atomic<int64_t> sent{0};
    std::vector<uint64_t> max_version(static_cast<size_t>(kClients), 0);
    std::vector<std::thread> clients;
    for (int64_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int64_t i = 0;
             (i < kPerClient ||
              swap_count.load(std::memory_order_acquire) < 2) &&
             i < kPerClientCap;
             ++i) {
          const auto& p = probe[static_cast<size_t>(i) % probe.size()];
          serve::MatchResult r = engine.Submit(p.first, p.second).get();
          sent.fetch_add(1, std::memory_order_relaxed);
          if (!r.status.ok()) {
            failures.fetch_add(1);
          } else {
            max_version[static_cast<size_t>(c)] =
                std::max(max_version[static_cast<size_t>(c)],
                         r.model_version);
          }
        }
      });
    }
    std::thread swapper([&] {
      while (!traffic_done.load(std::memory_order_acquire)) {
        auto next = BuildMatcher(zoo, layers, hidden,
                                 /*seed=*/101 + swap_count.load());
        if (next == nullptr ||
            !quant::LoadModelFileMapped(next.get(), emxm).ok()) {
          ++swap_failures;
          continue;
        }
        std::shared_ptr<core::EntityMatcher> shared = std::move(next);
        if (Status s = engine.SwapModel(shared); !s.ok()) {
          ++swap_failures;
        } else {
          ++swap_count;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    for (auto& c : clients) c.join();
    traffic_done.store(true, std::memory_order_release);
    swapper.join();
    request_failures = failures.load();
    requests_sent = sent.load();
    versions_seen = static_cast<int64_t>(
        *std::max_element(max_version.begin(), max_version.end()));
    serve::MetricsSnapshot m = engine.Metrics();
    std::printf("hot-swap: %lld swaps under %lld requests — %lld request "
                "failures, %lld swap failures, newest served version v%lld "
                "(engine at v%lld)\n",
                static_cast<long long>(swap_count.load()),
                static_cast<long long>(requests_sent),
                static_cast<long long>(request_failures),
                static_cast<long long>(swap_failures),
                static_cast<long long>(versions_seen),
                static_cast<long long>(m.model_version));
  }

  // ---- Section 4: cross-process page sharing ------------------------------
  std::vector<ShareSample> shares = MeasureSharing(emxm, /*children=*/2);
  double worst_share = 0;
  bool all_resident = !shares.empty();
  for (const ShareSample& s : shares) {
    if (s.rss_kb > 0) {
      worst_share = std::max(
          worst_share, static_cast<double>(s.pss_kb) /
                           static_cast<double>(s.rss_kb));
    } else {
      all_resident = false;  // smaps did not show the mapping at all
    }
    std::printf("page sharing: child mapping rss=%lld kB pss=%lld kB\n",
                static_cast<long long>(s.rss_kb),
                static_cast<long long>(s.pss_kb));
  }

  bench::Report report("mmap");
  report.Set("smoke", smoke)
      .Set("layers", layers)
      .Set("hidden", hidden)
      .Set("container_bytes", emxm_bytes)
      .Set("cold_start_mmap_ms", mmap_ms, 2)
      .Set("cold_start_resident_share", resident_share)
      .Set("cold_start_resident_ceiling", kResidentCeiling, 2)
      .Set("exactness_mismatches", mismatches)
      .Set("swaps", swap_count.load())
      .Set("swap_failures", swap_failures)
      .Set("request_failures", request_failures)
      .Set("newest_served_version", versions_seen)
      .Set("share_children", shares.size())
      .Set("share_worst_pss_over_rss", worst_share);
  // A mapping smaps never showed proves nothing about residency.
  report.Check("resident share after first inference <= 25%",
               resident_kb > 0 && resident_share <= kResidentCeiling);
  report.Gate("exactness mismatches", mismatches, "==", 0);
  report.Check("zero-drop hot-swap", request_failures == 0 &&
                                         swap_failures == 0 &&
                                         swap_count >= 2 && versions_seen >= 2);
  report.Check("pages shared (pss/rss <= 0.7)",
               shares.size() == 2 && all_resident && worst_share <= 0.7);
  return report.Finish();
}
