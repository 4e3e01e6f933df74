// Catalog-scale retrieval bench: build a generated product catalog, index
// it, and answer 1-vs-millions queries with the retrieve → int8 re-rank
// pipeline. Reports ingest rate, retrieval-only QPS, recall@k, and
// end-to-end (retrieve + transformer re-rank) QPS, and writes
// BENCH_retrieval.json with three gates:
//
//   recall      recall@k >= 0.95 for the index tier (truth record among
//               the top-k candidates)
//   save_load   a saved index, reloaded through its mapping, returns
//               bit-identical candidates (load time and file size are
//               reported beside it)
//   e2e_qps     retrieve + int8 re-rank >= 50 queries/sec single-node
//               (>= 5 under --smoke, which runs the full ctest suite's
//               sanitizer jobs at a fraction of native speed)
//
// `--smoke` shrinks the catalog to seconds-long CI scale but keeps every
// gate. Environment knobs:
//
//   EMX_CATALOG_RECORDS  catalog size        (default 1000000; smoke 20000)
//   EMX_CATALOG_QUERIES  query count         (default 200; smoke 50)
//   EMX_RETRIEVE_K       candidates per query (default 50)
//   EMX_RERANK_K         re-ranked candidates (default 16)
//   EMX_CACHE_DIR        tokenizer/model cache

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/report.h"
#include "core/entity_matcher.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "quant/quantize_matcher.h"
#include "retrieval/catalog_matcher.h"
#include "retrieval/qgram_index.h"
#include "serve/matcher_engine.h"
#include "util/timer.h"

namespace emx {
namespace {

double HistogramMean(obs::MetricsRegistry* registry, const char* name) {
  // Re-looking up with empty bounds returns the existing histogram.
  return registry->GetHistogram(name, {})->mean();
}

}  // namespace
}  // namespace emx

int main(int argc, char** argv) {
  using namespace emx;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int64_t num_records =
      bench::EnvInt("EMX_CATALOG_RECORDS", smoke ? 20000 : 1000000);
  const int64_t num_queries =
      bench::EnvInt("EMX_CATALOG_QUERIES", smoke ? 50 : 200);
  const int64_t retrieve_k = bench::EnvInt("EMX_RETRIEVE_K", 50);
  const int64_t rerank_k = bench::EnvInt("EMX_RERANK_K", 16);

  std::printf("bench_retrieval — %lld records, %lld queries, k=%lld, "
              "rerank=%lld%s\n\n",
              static_cast<long long>(num_records),
              static_cast<long long>(num_queries),
              static_cast<long long>(retrieve_k),
              static_cast<long long>(rerank_k), smoke ? " (--smoke)" : "");

  // ---- Generate ------------------------------------------------------------
  data::CatalogSpec spec;
  spec.num_records = num_records;
  spec.num_queries = num_queries;
  Timer gen_timer;
  data::Catalog cat = data::GenerateCatalog(spec);
  const double gen_s = gen_timer.ElapsedSeconds();
  std::printf("%-22s %10.1fs\n", "generate", gen_s);

  // ---- Index ingest --------------------------------------------------------
  Timer build_timer;
  retrieval::QGramIndex index;
  index.AddBatch(cat.records);
  const double build_s = build_timer.ElapsedSeconds();
  const double ingest_rate = static_cast<double>(num_records) / build_s;
  std::printf("%-22s %10.1fs   (%.0f records/s, %lld features, %lld stopped)\n",
              "index ingest", build_s, ingest_rate,
              static_cast<long long>(index.num_features()),
              static_cast<long long>(index.num_stop_features()));

  // ---- Retrieval-only QPS + recall@k --------------------------------------
  Timer retrieve_timer;
  int64_t hits = 0;
  for (size_t q = 0; q < cat.queries.size(); ++q) {
    for (const retrieval::ScoredId& s : index.TopK(cat.queries[q], retrieve_k)) {
      if (s.id == cat.truth[q]) {
        ++hits;
        break;
      }
    }
  }
  const double retrieve_s = retrieve_timer.ElapsedSeconds();
  const double retrieval_qps = static_cast<double>(num_queries) / retrieve_s;
  const double recall =
      static_cast<double>(hits) / static_cast<double>(num_queries);
  std::printf("%-22s %10.1f queries/s   (recall@%lld %.3f)\n",
              "retrieval only", retrieval_qps,
              static_cast<long long>(retrieve_k), recall);

  // ---- Persistence gate ----------------------------------------------------
  // Load maps the EMXM1 file and checks every array in it before it
  // returns; the loaded index then serves TopK from the mapping.
  const std::string index_path = "/tmp/emx_bench_retrieval_index.emxm";
  Timer save_timer;
  bool save_load_ok = index.Save(index_path).ok();
  const double save_s = save_timer.ElapsedSeconds();
  double load_s = 0, file_mb = 0;
  if (save_load_ok) {
    file_mb = static_cast<double>(std::filesystem::file_size(index_path)) /
              (1024.0 * 1024.0);
    Timer load_timer;
    auto loaded = retrieval::QGramIndex::Load(index_path);
    load_s = load_timer.ElapsedSeconds();
    save_load_ok = loaded.ok();
    if (save_load_ok) {
      // Bit-identical candidate sets on every bench query.
      for (size_t q = 0; q < cat.queries.size() && save_load_ok; ++q) {
        auto a = index.TopK(cat.queries[q], retrieve_k);
        auto b = loaded.value().TopK(cat.queries[q], retrieve_k);
        save_load_ok = a.size() == b.size();
        for (size_t i = 0; i < a.size() && save_load_ok; ++i) {
          save_load_ok = a[i].id == b[i].id && a[i].score == b[i].score;
        }
      }
    }
  }
  std::filesystem::remove(index_path);
  std::printf("%-22s save %.2fs, mapped load %.1fms, file %.1f MB — %s\n",
              "persistence", save_s, load_s * 1e3, file_mb,
              save_load_ok ? "bit-identical" : "MISMATCH");

  // ---- End-to-end: retrieve + int8 re-rank --------------------------------
  pretrain::ZooOptions zoo = bench::BenchZoo();
  if (smoke) {
    // CI-scale zoo: tokenizer-only, tiny corpus, private cache.
    zoo.cache_dir = bench::EnvString("EMX_CACHE_DIR",
                                     "/tmp/emx_zoo_retrieval_bench");
    zoo.vocab_size = 500;
    zoo.corpus.num_documents = 150;
  }
  zoo.skip_pretraining = true;  // QPS does not depend on weight quality
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(48);
  quant::CalibrationData calib;
  for (size_t i = 0; i < 8 && i < cat.records.size(); ++i) {
    calib.texts_a.push_back(cat.queries[i % cat.queries.size()]);
    calib.texts_b.push_back(cat.records[i]);
  }
  calib.batch_size = 4;
  if (auto report = quant::QuantizeMatcher(&matcher, calib); !report.ok()) {
    std::printf("error: %s\n", report.status().ToString().c_str());
    return 1;
  }

  serve::EngineOptions eopts;
  eopts.precision = serve::Precision::kInt8;
  eopts.max_seq_len = 48;
  eopts.max_batch_size = rerank_k;  // one query's re-rank = one micro-batch
  eopts.max_wait_us = 2000;
  retrieval::CatalogOptions copts;
  copts.retrieve_k = retrieve_k;
  copts.rerank_k = rerank_k;
  copts.top_k = 5;
  serve::MatcherEngine engine(&matcher, eopts);
  retrieval::CatalogMatcher catalog(&engine, copts);
  catalog.AddBatch(cat.records);

  Timer e2e_timer;
  int64_t e2e_hits = 0;
  int64_t e2e_errors = 0;
  for (size_t q = 0; q < cat.queries.size(); ++q) {
    auto matches = catalog.FindMatches(cat.queries[q]);
    if (!matches.ok()) {
      ++e2e_errors;
      continue;
    }
    for (const retrieval::CatalogMatch& m : matches.value()) {
      if (m.id == cat.truth[q]) {
        ++e2e_hits;
        break;
      }
    }
  }
  const double e2e_s = e2e_timer.ElapsedSeconds();
  const double e2e_qps = static_cast<double>(num_queries) / e2e_s;
  const double e2e_recall =
      static_cast<double>(e2e_hits) / static_cast<double>(num_queries);
  const double retrieve_mean_us =
      HistogramMean(catalog.registry(), "catalog.retrieve_us");
  const double rerank_mean_us =
      HistogramMean(catalog.registry(), "catalog.rerank_us");
  std::printf("%-22s %10.1f queries/s   (top-%lld recall %.3f, retrieve "
              "%.0fus, rerank %.0fus, %lld errors)\n",
              "retrieve + int8 rerank", e2e_qps,
              static_cast<long long>(copts.top_k), e2e_recall,
              retrieve_mean_us, rerank_mean_us,
              static_cast<long long>(e2e_errors));

  bench::Report report("retrieval");
  report.Set("smoke", smoke)
      .Set("num_records", num_records)
      .Set("num_queries", num_queries)
      .Set("retrieve_k", retrieve_k)
      .Set("rerank_k", rerank_k)
      .Set("generate_seconds", gen_s, 2)
      .Set("ingest_records_per_sec", ingest_rate, 1)
      .Set("index_features", index.num_features())
      .Set("index_stop_features", index.num_stop_features())
      .Set("retrieval_qps", retrieval_qps, 2)
      .Set("recall_at_k", recall, 4)
      .Set("save_seconds", save_s, 2)
      .Set("load_seconds", load_s, 4)
      .Set("index_file_mb", file_mb, 2)
      .Set("save_load_bit_identical", save_load_ok)
      .Set("e2e_qps", e2e_qps, 2)
      .Set("e2e_recall_top5", e2e_recall, 4)
      .Set("e2e_errors", e2e_errors)
      .Set("retrieve_mean_us", retrieve_mean_us, 1)
      .Set("rerank_mean_us", rerank_mean_us, 1);
  report.Gate("recall@k", recall, ">=", 0.95);
  report.Check("save/load bit-identical", save_load_ok);
  report.Gate("e2e qps", e2e_qps, ">=", smoke ? 5.0 : 50.0);
  return report.Finish();
}
