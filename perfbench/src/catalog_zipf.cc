// catalog_zipf: 1-vs-N matching through retrieval::CatalogMatcher on an
// fp32 engine at the shipped DefaultSplitLayer. A base catalog of 10^5
// records is restored with CatalogMatcher::Load; one closed-loop client
// sends Zipf-distributed queries from a fixed query set, and every
// kWriteEvery-th operation is an AddBatch of new records on the same
// thread: writes beside reads.

#include <algorithm>
#include <unordered_set>

#include "bench.h"
#include "models/config.h"
#include "nn/layers.h"
#include "obs/trace.h"
#include "retrieval/catalog_matcher.h"
#include "serve/matcher_engine.h"
#include "stats.h"
#include "tensor/variable.h"

namespace perfbench {
namespace {

constexpr double kZipfS = 1.0;
constexpr int64_t kWriteEvery = 16;
constexpr int64_t kWriteBatch = 32;
/// Operations the query order is sized for, per second of run.
constexpr int64_t kMaxOpsPerSecond = 200;
constexpr int64_t kWarmupQueries = 8;
constexpr int64_t kCheckQueries = 16;
/// Set-ups per round (rounds and setup_s as in pair_stream.cc).
constexpr int kSetupsPerRound = 2;
/// The run is kRounds rounds of query loop and bulk scoring, so each
/// figure samples the whole run rather than one stretch of the host's
/// speed. Share of a round spent in the query loop; bulk scoring takes the
/// rest.
constexpr int kRounds = 8;
constexpr double kLoopShare = 0.8;
/// p50_ms reads the query latencies in chunks of this many consecutive
/// queries (about 0.2 s each), at the quiet quantile (stats.h).
constexpr int64_t kQueryChunk = 5;
/// Bulk scoring: passes of one evaluation batch (kBulkSlice pairs, cycling
/// through kBulkPairs) for its share of each round, at least
/// kMinBulkPasses per round.
constexpr int64_t kBulkPairs = 128;
constexpr int64_t kBulkSlice = 32;
constexpr int kMinBulkPasses = 3;

emx::serve::EngineOptions EngineFor(emx::core::EntityMatcher* m,
                                    int64_t cache_bytes) {
  emx::serve::EngineOptions eo;
  eo.num_workers = kEngineWorkers;
  eo.max_seq_len = m->eval_max_seq_len();
  eo.split_layer =
      emx::serve::DefaultSplitLayer(m->classifier()->config().num_layers);
  eo.activation_cache_bytes = cache_bytes;
  return eo;
}

struct Stack {
  std::unique_ptr<emx::core::EntityMatcher> matcher;
  std::unique_ptr<emx::serve::MatcherEngine> engine;
  std::unique_ptr<emx::retrieval::CatalogMatcher> catalog;
  double model_open_ms = 0;
  double catalog_load_ms = 0;
};

/// Tokenizer load + fp32 checkpoint + engine start + CatalogMatcher::Load.
emx::Status SetUp(const Artefacts& a, Stack* st) {
  EMX_ASSIGN_OR_RETURN(st->matcher, NewMatcher(a));
  Clock::time_point t0 = Clock::now();
  EMX_RETURN_IF_ERROR(st->matcher->Load(a.model_fp32()));
  st->model_open_ms = MsBetween(t0, Clock::now());
  EMX_ASSIGN_OR_RETURN(
      st->engine,
      emx::serve::MatcherEngine::Create(
          st->matcher.get(),
          EngineFor(st->matcher.get(),
                    emx::serve::EngineOptions().activation_cache_bytes)));
  t0 = Clock::now();
  EMX_ASSIGN_OR_RETURN(st->catalog, emx::retrieval::CatalogMatcher::Load(
                                        a.catalog(), st->engine.get()));
  st->catalog_load_ms = MsBetween(t0, Clock::now());
  return emx::Status::OK();
}

struct LoopStats {
  int64_t queries = 0;
  int64_t failed = 0;
  int64_t writes = 0;
  int64_t written_records = 0;
  double write_seconds = 0;
  double seconds = 0;
  std::vector<double> latency_ms;  // in issue order
};

/// Closed loop over `order` from `*next` for `seconds`; adds to `*ls`.
void Loop(Stack* st, const QuerySet& queries, const std::vector<int64_t>& order,
          const std::vector<std::string>& new_records, double seconds,
          int64_t* next, int64_t* next_record,
          std::vector<std::vector<int64_t>>* first_result, LoopStats* ls) {
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < seconds &&
         *next < static_cast<int64_t>(order.size())) {
    const int64_t op = (*next)++;
    if (op % kWriteEvery == kWriteEvery - 1 &&
        *next_record + kWriteBatch <=
            static_cast<int64_t>(new_records.size())) {
      std::vector<std::string> batch(
          new_records.begin() + *next_record,
          new_records.begin() + *next_record + kWriteBatch);
      *next_record += kWriteBatch;
      emx::obs::TraceSpan span("pb.retrieval.add_batch", [&] {
        return emx::obs::KeyValues({{"op", op}});
      });
      const Clock::time_point w0 = Clock::now();
      st->catalog->AddBatch(std::move(batch));
      ls->write_seconds += SecondsSince(w0);
      ++ls->writes;
      ls->written_records += kWriteBatch;
      continue;
    }
    const int64_t q = order[static_cast<size_t>(op)];
    emx::obs::TraceSpan span("pb.retrieval.find_matches", [&] {
      return emx::obs::KeyValues({{"op", op}, {"query", q}});
    });
    const Clock::time_point q0 = Clock::now();
    auto result = st->catalog->FindMatches(queries.texts[static_cast<size_t>(q)]);
    const Clock::time_point q1 = Clock::now();
    ls->latency_ms.push_back(MsBetween(q0, q1));
    ++ls->queries;
    if (!result.ok()) {
      ++ls->failed;
      continue;
    }
    auto& first = (*first_result)[static_cast<size_t>(q)];
    if (first.empty()) {
      for (const auto& match : result.value()) first.push_back(match.id);
      if (first.empty()) first.push_back(-1);
    }
  }
  ls->seconds += SecondsSince(t0);
}

}  // namespace

void RunCatalogZipf(const RunConfig& cfg, RunResult* out) {
  const Artefacts a(cfg.artefacts);
  auto loaded = LoadQueries(a);
  if (!loaded.ok()) {
    out->Fail(loaded.status().ToString());
    return;
  }
  const QuerySet queries = std::move(loaded).value();
  const int64_t n_ops =
      kWarmupQueries + kMaxOpsPerSecond * static_cast<int64_t>(cfg.seconds + 1);
  const std::vector<int64_t> order = MakeZipfQueryOrder(
      cfg.seed, static_cast<int64_t>(queries.texts.size()), n_ops, kZipfS);
  const std::vector<std::string> new_records = MakeNewCatalogRecords(
      cfg.seed ^ 0x9e3779b97f4a7c15ull, n_ops / kWriteEvery * kWriteBatch);
  // peak_rss_mb is the program's rise over the inputs the harness holds.
  const double rss_inputs_mb = RssMb();
  const double loop_seconds = cfg.seconds / kRounds * kLoopShare;
  const double bulk_seconds = cfg.seconds / kRounds - loop_seconds;

  // Set-up rounds. The last set-up of the first round serves the run;
  // every other stack is torn down as soon as it is up.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, open_ms, load_ms;
  auto setup_round = [&](bool keep) {
    for (int r = 0; r < kSetupsPerRound; ++r) {
      auto fresh = std::make_unique<Stack>();
      const Clock::time_point t0 = Clock::now();
      const emx::Status s = SetUp(a, fresh.get());
      if (!s.ok()) {
        out->Fail("set-up failed: " + s.ToString());
        return false;
      }
      setup_s.push_back(SecondsSince(t0));
      open_ms.push_back(fresh->model_open_ms);
      load_ms.push_back(fresh->catalog_load_ms);
      if (keep && r == kSetupsPerRound - 1) stack = std::move(fresh);
    }
    return true;
  };
  if (!setup_round(/*keep=*/true)) return;
  Stack& st = *stack;
  // Untimed warm-up of the stack that serves the run.
  for (int64_t k = 0; k < kWarmupQueries; ++k) {
    const auto warm = st.catalog->FindMatches(
        queries.texts[static_cast<size_t>(order[static_cast<size_t>(k)])]);
    if (!warm.ok()) {
      out->Fail("warm-up failed: " + warm.status().ToString());
      return;
    }
  }
  // Bulk scoring pairs: (query, retrieved candidate) over the first
  // queries of the set, on the fp32 path.
  std::vector<std::string> bulk_a, bulk_b;
  for (size_t q = 0; q < queries.texts.size() &&
                     static_cast<int64_t>(bulk_a.size()) < kBulkPairs;
       ++q) {
    const std::string& text = queries.texts[q];
    for (const auto& hit : st.catalog->index().TopK(text, 16)) {
      bulk_a.push_back(text);
      bulk_b.push_back(st.catalog->Text(hit.id));
    }
  }
  const std::vector<std::vector<std::string>> slices_a =
      BulkSlices(bulk_a, kBulkSlice);
  const std::vector<std::vector<std::string>> slices_b =
      BulkSlices(bulk_b, kBulkSlice);
  double bulk_pairs = 0, bulk_s = 0;
  size_t bulk_pass = 0;

  std::vector<std::vector<int64_t>> first_result(queries.texts.size());
  int64_t next = kWarmupQueries;
  int64_t next_record = 0;
  LoopStats ls, traced;
  emx::obs::MetricsRegistry* reg = st.catalog->registry();
  emx::obs::Histogram* retrieve_us =
      reg->GetHistogram("catalog.retrieve_us", {});
  emx::obs::Histogram* rerank_us = reg->GetHistogram("catalog.rerank_us", {});
  double retrieve0 = 0, rerank0 = 0;
  int64_t retrieve_n0 = 0, rerank_n0 = 0;
  // The traced run traces the second half of the rounds.
  for (int r = 0; r < kRounds; ++r) {
    const bool trace_round = cfg.trace && r >= kRounds / 2;
    if (trace_round && r == kRounds / 2) {
      emx::obs::StartProfiling(TraceOptions());
      retrieve0 = retrieve_us->sum();
      rerank0 = rerank_us->sum();
      retrieve_n0 = retrieve_us->count();
      rerank_n0 = rerank_us->count();
    }
    Loop(&st, queries, order, new_records, loop_seconds, &next, &next_record,
         &first_result, trace_round ? &traced : &ls);
    if (trace_round || slices_a.empty()) continue;
    const Clock::time_point bulk_t0 = Clock::now();
    for (int pass = 0; pass < kMinBulkPasses ||
                       SecondsSince(bulk_t0) < bulk_seconds;
         ++pass, ++bulk_pass) {
      const size_t k = bulk_pass % slices_a.size();
      emx::obs::TraceSpan bulk_span("pb.core.match_probabilities");
      const Clock::time_point t0 = Clock::now();
      (void)st.matcher->MatchProbabilities(slices_a[k], slices_b[k]);
      bulk_s += SecondsSince(t0);
      bulk_pairs += static_cast<double>(slices_a[k].size());
    }
  }
  out->Set("peak_rss_mb", PeakRssMb() - rss_inputs_mb);
  out->Diag("rss.inputs_mb", rss_inputs_mb);
  out->attempted = ls.queries + ls.writes + traced.queries + traced.writes;
  out->failed = ls.failed + traced.failed;
  const int64_t rerank_failures =
      reg->GetCounter("catalog.rerank_failures")->Value();
  out->failed += rerank_failures;
  out->Diag("catalog.rerank_failures", static_cast<double>(rerank_failures));

  const double qps = static_cast<double>(ls.queries) / ls.seconds;
  const double tail_q =
      TailQuantile(static_cast<int64_t>(ls.latency_ms.size()));
  out->Set("ops_per_s", qps);
  out->Set("p50_ms",
           QuietChunkMedian(ls.latency_ms,
                            static_cast<int64_t>(ls.latency_ms.size()) /
                                kQueryChunk));
  out->Set("eval_pairs_per_s", bulk_s > 0 ? bulk_pairs / bulk_s : 0);
  out->Diag("bulk.passes", static_cast<double>(bulk_pass));
  out->Diag("query.p50_ms", Percentile(ls.latency_ms, 0.5));
  out->Diag("tail_ms", Percentile(ls.latency_ms, tail_q));
  out->Diag("query.samples", static_cast<double>(ls.latency_ms.size()));
  out->Diag("query.retrieve_ms_mean",
            retrieve_us->count() > 0
                ? retrieve_us->sum() / 1000.0 / retrieve_us->count()
                : 0);
  out->Diag("query.rerank_ms_mean",
            rerank_us->count() > 0
                ? rerank_us->sum() / 1000.0 / rerank_us->count()
                : 0);
  out->Diag("query.tail_quantile", tail_q);
  out->Diag("write.records", static_cast<double>(ls.written_records));
  out->Diag("write.rec_per_s", ls.write_seconds > 0
                                   ? ls.written_records / ls.write_seconds
                                   : 0);

  // Truth-record recall over the distinct queries issued.
  int64_t distinct = 0, hits = 0;
  for (size_t q = 0; q < first_result.size(); ++q) {
    if (first_result[q].empty()) continue;
    ++distinct;
    for (int64_t id : first_result[q]) hits += id == queries.truth[q] ? 1 : 0;
  }
  const double recall =
      distinct > 0 ? static_cast<double>(hits) / distinct : 0;
  out->Diag("queries.distinct", static_cast<double>(distinct));
  out->Set("retrieval.truth_recall", recall);

  const emx::serve::MetricsSnapshot m = st.engine->Metrics();
  out->Set("serve.batch_size_mean", m.mean_batch_size);
  out->Set("serve.token_cache_hit_rate", m.cache_hit_rate);
  out->Set("serve.prefix_hit_rate", m.prefix_hit_rate);
  out->Set("serve.prefix_evictions", static_cast<double>(m.prefix_evictions));
  out->Set("serve.prefix_mb", static_cast<double>(m.prefix_bytes) / 1048576.0);

  if (cfg.trace) {
    const double traced_qps =
        static_cast<double>(traced.queries) / traced.seconds;
    out->Set("trace.overhead_ratio", traced_qps / qps);
    const double dr = retrieve_us->sum() - retrieve0;
    const double drr = rerank_us->sum() - rerank0;
    const int64_t nr = retrieve_us->count() - retrieve_n0;
    const int64_t nrr = rerank_us->count() - rerank_n0;
    out->Set("retrieval.retrieve_ms", nr > 0 ? dr / 1000.0 / nr : 0);
    out->Set("retrieval.rerank_ms", nrr > 0 ? drr / 1000.0 / nrr : 0);
    double find_ms = 0;
    for (double x : traced.latency_ms) find_ms += x;
    out->Set("trace.coverage", find_ms > 0 ? (dr + drr) / 1000.0 / find_ms : 0);
    out->Set("retrieval.add_batch_ms",
             traced.writes > 0 ? 1000.0 * traced.write_seconds / traced.writes
                               : 0);
    out->Set("retrieval.write_rec_per_s",
             traced.write_seconds > 0
                 ? traced.written_records / traced.write_seconds
                 : 0);
  }

  // Quiescent engine counters must balance.
  if (m.submitted != m.completed + m.rejected + m.timed_out) {
    out->Fail("engine counters do not balance: submitted " +
              std::to_string(m.submitted) + " != completed " +
              std::to_string(m.completed) + " + rejected " +
              std::to_string(m.rejected) + " + timed_out " +
              std::to_string(m.timed_out));
  }

  if (!setup_round(/*keep=*/false)) return;

  // Correctness: sampled queries return the same top-k as the same
  // pipeline without the prefix cache (activation_cache_bytes = 0) over
  // the same catalog state.
  std::vector<int64_t> check;
  {
    std::unordered_set<int64_t> seen;
    for (int64_t op = kWarmupQueries;
         op < next && static_cast<int64_t>(check.size()) < kCheckQueries;
         ++op) {
      const int64_t q = order[static_cast<size_t>(op)];
      if (seen.insert(q).second) check.push_back(q);
    }
  }
  if (check.empty()) {
    out->Fail("no query completed");
    return;
  }
  {
    auto ref_engine = emx::serve::MatcherEngine::Create(
        st.matcher.get(), EngineFor(st.matcher.get(), 0));
    if (!ref_engine.ok()) {
      out->Fail(ref_engine.status().ToString());
      return;
    }
    auto ref = emx::retrieval::CatalogMatcher::Load(a.catalog(),
                                                    ref_engine.value().get());
    if (!ref.ok()) {
      out->Fail(ref.status().ToString());
      return;
    }
    if (next_record > 0) {
      for (int64_t r = 0; r < next_record; r += kWriteBatch) {
        ref.value()->AddBatch(std::vector<std::string>(
            new_records.begin() + r, new_records.begin() + r + kWriteBatch));
      }
    }
    int64_t mismatches = 0;
    for (int64_t q : check) {
      const std::string& text = queries.texts[static_cast<size_t>(q)];
      auto got = st.catalog->FindMatches(text);
      auto want = ref.value()->FindMatches(text);
      bool same = got.ok() && want.ok() &&
                  got.value().size() == want.value().size();
      for (size_t i = 0; same && i < got.value().size(); ++i) {
        same = got.value()[i].id == want.value()[i].id &&
               got.value()[i].probability == want.value()[i].probability;
      }
      mismatches += same ? 0 : 1;
    }
    out->Diag("check.samples", static_cast<double>(check.size()));
    out->Diag("check.mismatches", static_cast<double>(mismatches));
    if (mismatches > 0) {
      out->Fail(std::to_string(mismatches) + " of " +
                std::to_string(check.size()) +
                " sampled queries differ from the uncached pipeline");
    }
    ref.value().reset();
  }

  if (!setup_round(/*keep=*/false)) return;
  out->Set("setup_s", Median(setup_s));
  out->Set("io.model_open_ms", Median(open_ms));
  out->Set("io.catalog_load_ms", Median(load_ms));

  if (cfg.trace) {
    // Retrieval probe: index TopK over the checked queries.
    std::vector<double> topk_ms;
    double candidates = 0;
    const int64_t k = st.catalog->options().retrieve_k;
    for (int64_t q : check) {
      const std::string& text = queries.texts[static_cast<size_t>(q)];
      emx::obs::TraceSpan span("pb.retrieval.topk");
      const Clock::time_point t0 = Clock::now();
      candidates += static_cast<double>(st.catalog->index().TopK(text, k).size());
      topk_ms.push_back(MsBetween(t0, Clock::now()));
    }
    out->Set("retrieval.topk_ms", Median(topk_ms));
    out->Set("retrieval.candidates_per_query",
             candidates / static_cast<double>(std::max<size_t>(1, check.size())));

    // Split-path probes: a query-side prefix (EncodeSegmentPrefix) and the
    // re-rank tail (LogitsFromHidden) at the re-rank micro-batch.
    const int64_t split = st.engine->options().split_layer;
    const emx::tokenizers::Tokenizer& tok = st.matcher->tokenizer();
    const auto& sp = tok.specials();
    emx::models::Batch seg;
    seg.batch_size = 1;
    seg.ids.push_back(sp.cls);
    for (int64_t id : tok.Encode(queries.texts[static_cast<size_t>(check[0])])) {
      if (static_cast<int64_t>(seg.ids.size()) >= 31) break;
      seg.ids.push_back(id);
    }
    seg.ids.push_back(sp.sep);
    seg.seq_len = static_cast<int64_t>(seg.ids.size());
    seg.segment_ids.assign(seg.ids.size(), 0);
    emx::NoGradGuard no_grad;
    emx::nn::QuantModeGuard fp32(false);
    emx::Rng rng(0);
    auto* backbone = st.matcher->classifier()->backbone();
    out->Set("models.split_prefix_ms", MedianMs(15, [&] {
               emx::obs::TraceSpan span("pb.models.split_prefix");
               (void)backbone->EncodeSegmentPrefix(seg, split, 0, &rng);
             }));
    const int64_t rb = st.catalog->options().rerank_k;
    const int64_t t = st.engine->options().max_seq_len;
    const int64_t h = st.matcher->classifier()->config().hidden;
    emx::Variable hidden(emx::Tensor::Randn({rb, t, h}, &rng));
    const emx::Tensor mask = emx::models::Batch::MakeMask(
        std::vector<float>(static_cast<size_t>(rb * t), 0.0f), rb, t);
    out->Set("models.split_tail_ms", MedianMs(15, [&] {
               emx::obs::TraceSpan span("pb.models.split_tail");
               (void)st.matcher->classifier()->LogitsFromHidden(
                   hidden, mask, split, /*train=*/false, &rng);
             }));

    ProbeShape shape;
    shape.batch = rb;
    shape.seq = t;
    std::vector<TextPair> bulk;
    for (size_t i = 0; i < bulk_a.size(); ++i) {
      bulk.emplace_back(bulk_a[i], bulk_b[i]);
    }
    ProbeLayers(st.matcher.get(), bulk, shape, /*int8=*/false, out);
    emx::obs::StopProfiling();
  }
}

}  // namespace perfbench
