// catalog_search: 1-vs-millions entity matching with the retrieval tier.
//
// Builds a generated product catalog, indexes it with the sharded q-gram
// index, and answers queries with the two-stage retrieve → re-rank
// pipeline: the index narrows millions of records to a candidate handful,
// and the serving engine re-scores those candidates with the transformer.
// Prints each query's candidates with their retrieval scores and match
// probabilities, then the catalog.* metrics snapshot.
//
//   ./catalog_search [--records N] [--queries N] [--save=PATH]
//
// --save=PATH round-trips the catalog through its EMXM1 file before
// querying: the reloaded catalog serves the index and texts from the
// mapping. Exits non-zero when a step or a query fails.
//
// The backbone keeps its random init so the demo starts in seconds; the
// retrieval tier's ranking (which needs no training) is what to watch.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/entity_matcher.h"
#include "data/generators.h"
#include "pretrain/model_zoo.h"
#include "retrieval/catalog_matcher.h"
#include "serve/matcher_engine.h"

int main(int argc, char** argv) {
  using namespace emx;

  int64_t num_records = 50000;
  int64_t num_queries = 5;
  std::string save_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--records", 9) == 0 && i + 1 < argc) {
      num_records = std::atoll(argv[++i]);
    } else if (std::strncmp(argv[i], "--queries", 9) == 0 && i + 1 < argc) {
      num_queries = std::atoll(argv[++i]);
    } else if (std::strncmp(argv[i], "--save=", 7) == 0) {
      save_path = argv[i] + 7;
    }
  }

  std::printf("generating a %lld-record catalog...\n",
              static_cast<long long>(num_records));
  data::CatalogSpec spec;
  spec.num_records = num_records;
  spec.num_queries = num_queries;
  data::Catalog cat = data::GenerateCatalog(spec);

  pretrain::ZooOptions zoo;
  zoo.cache_dir = "/tmp/emx_zoo_catalog_search";
  zoo.vocab_size = 500;
  zoo.corpus.num_documents = 150;
  zoo.skip_pretraining = true;
  auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
  if (!bundle.ok()) {
    std::printf("error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  core::EntityMatcher matcher(std::move(bundle).value());
  matcher.set_eval_max_seq_len(48);

  serve::EngineOptions eopts;
  eopts.max_seq_len = 48;
  serve::MatcherEngine engine(&matcher, eopts);

  retrieval::CatalogOptions copts;
  copts.retrieve_k = 50;
  copts.rerank_k = 8;
  copts.top_k = 3;
  retrieval::CatalogMatcher catalog(&engine, copts);
  std::printf("indexing (%lld shards, q=%lld)...\n",
              static_cast<long long>(copts.index.num_shards),
              static_cast<long long>(copts.index.qgram));
  catalog.AddBatch(cat.records);
  std::printf("indexed %lld records, %lld live features, %lld stop features\n",
              static_cast<long long>(catalog.index().size()),
              static_cast<long long>(catalog.index().num_features()),
              static_cast<long long>(catalog.index().num_stop_features()));

  std::unique_ptr<retrieval::CatalogMatcher> reloaded;
  retrieval::CatalogMatcher* serving = &catalog;
  if (!save_path.empty()) {
    if (Status s = catalog.Save(save_path); !s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return 1;
    }
    auto loaded = retrieval::CatalogMatcher::Load(save_path, &engine, copts);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    reloaded = std::move(loaded).value();
    serving = reloaded.get();
    std::printf("round-tripped the catalog through %s\n", save_path.c_str());
  }

  int failed = 0;
  for (size_t q = 0; q < cat.queries.size(); ++q) {
    std::printf("\nquery %zu: %s\n", q, cat.queries[q].c_str());
    auto matches = serving->FindMatches(cat.queries[q]);
    if (!matches.ok()) {
      std::printf("  error: %s\n", matches.status().ToString().c_str());
      ++failed;
      continue;
    }
    for (const retrieval::CatalogMatch& m : matches.value()) {
      std::printf("  %s id %-8lld retrieval %6.2f  p(match) %.3f  %s\n",
                  m.id == cat.truth[q] ? "*" : " ",
                  static_cast<long long>(m.id), m.retrieval_score,
                  m.probability, m.text.substr(0, 60).c_str());
    }
    // The reloaded catalog must retrieve exactly what the built one does.
    const auto want = catalog.index().TopK(cat.queries[q], copts.retrieve_k);
    const auto got = serving->index().TopK(cat.queries[q], copts.retrieve_k);
    bool same = want.size() == got.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].id == want[i].id && got[i].score == want[i].score &&
             serving->Text(got[i].id) == catalog.Text(want[i].id);
    }
    if (!same) {
      std::printf("  error: reloaded candidates differ from the built ones\n");
      ++failed;
    }
  }

  std::printf("\ncatalog metrics: %s\n",
              serving->registry()->ToJson().c_str());
  return failed == 0 ? 0 : 1;
}
