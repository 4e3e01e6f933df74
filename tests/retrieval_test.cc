#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/entity_matcher.h"
#include "data/blocking.h"
#include "file_fuzz.h"
#include "data/generators.h"
#include "data/record.h"
#include "pretrain/model_zoo.h"
#include "retrieval/catalog_matcher.h"
#include "retrieval/qgram_index.h"
#include "serve/matcher_engine.h"

namespace emx {
namespace retrieval {
namespace {

// ---- Feature extraction ----------------------------------------------------

TEST(QGramIndexTest, FeaturesArePaddedGramsAndWholeTokens) {
  QGramIndex index;
  auto feats = index.Features("Acer ZX-55");
  // Whole lower-cased tokens are features...
  EXPECT_NE(std::find(feats.begin(), feats.end(), "acer"), feats.end());
  EXPECT_NE(std::find(feats.begin(), feats.end(), "zx-55"), feats.end());
  // ...and so are boundary-padded 3-grams, which "zx55" shares.
  EXPECT_NE(std::find(feats.begin(), feats.end(), "^zx"), feats.end());
  EXPECT_NE(std::find(feats.begin(), feats.end(), "55$"), feats.end());
  // Deduplicated.
  auto sorted = feats;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(QGramIndexTest, ModelNumberVariantsShareGrams) {
  QGramIndex index;
  auto a = index.Features("zx55");
  auto b = index.Features("zx-55");
  int64_t shared = 0;
  for (const auto& f : a) {
    if (std::find(b.begin(), b.end(), f) != b.end()) ++shared;
  }
  EXPECT_GE(shared, 2);  // at least the edge grams survive the hyphen
}

TEST(QGramIndexTest, VariantRenderingsCollapseToOneExactToken) {
  QGramIndex index;
  // Hyphenated, space-split, and unperturbed renderings of a model number
  // must all emit the exact token "zx55" — grams alone drown in coincidental
  // overlap at million-record scale.
  for (const char* text : {"acer zx55 laptop", "acer zx-55 laptop",
                           "acer zx 55 laptop"}) {
    auto feats = index.Features(text);
    EXPECT_NE(std::find(feats.begin(), feats.end(), "zx55"), feats.end())
        << "missing exact-token alias for: " << text;
  }
}

// ---- Scoring ---------------------------------------------------------------

TEST(QGramIndexTest, ExactModelMatchOutranksSiblingAndStranger) {
  QGramIndex index;
  EXPECT_EQ(index.AddRecord("acer zen zx55 laptop silver"), 0);
  EXPECT_EQ(index.AddRecord("acer zen zx56 laptop black"), 1);
  EXPECT_EQ(index.AddRecord("dell vostro desktop tower"), 2);

  auto top = index.TopK("acer zx55 notebook", 3);
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].id, 0);  // shares the rare "zx55" grams
  EXPECT_EQ(top[1].id, 1);  // sibling: brand + partial model overlap
  EXPECT_GT(top[0].score, top[1].score);
}

TEST(QGramIndexTest, TiesBreakByAscendingId) {
  QGramIndex index;
  index.AddRecord("identical text");
  index.AddRecord("identical text");
  index.AddRecord("identical text");
  auto top = index.TopK("identical text", 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 0);
  EXPECT_EQ(top[1].id, 1);
  EXPECT_EQ(top[2].id, 2);
  EXPECT_DOUBLE_EQ(top[0].score, top[1].score);
}

TEST(QGramIndexTest, EmptyIndexAndEmptyQueryReturnNothing) {
  QGramIndex index;
  EXPECT_TRUE(index.TopK("anything", 5).empty());
  index.AddRecord("acer laptop");
  EXPECT_TRUE(index.TopK("", 5).empty());
  EXPECT_TRUE(index.TopK("acer", 0).empty());
}

TEST(QGramIndexTest, StopFeatureCapFreesPostingsAndStopsScoring) {
  IndexOptions opts;
  opts.num_shards = 1;
  opts.max_postings = 4;
  opts.qgram = 0;  // token features only, to keep the arithmetic simple
  QGramIndex index(opts);
  for (int i = 0; i < 10; ++i) {
    index.AddRecord("common filler" + std::to_string(i));
  }
  // "common" appeared 10 times > cap 4: demoted to a stop feature.
  EXPECT_GE(index.num_stop_features(), 1);
  // A query of only the stopped feature retrieves nothing...
  EXPECT_TRUE(index.TopK("common", 5).empty());
  // ...but the rare per-record token still works.
  auto top = index.TopK("filler3", 5);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].id, 3);
}

// ---- Persistence -----------------------------------------------------------

TEST(QGramIndexTest, SaveLoadRoundTripIsBitIdentical) {
  const std::string path = "/tmp/emx_retrieval_test_index.bin";
  IndexOptions opts;
  opts.num_shards = 4;
  QGramIndex index(opts);
  data::CatalogSpec spec;
  spec.num_records = 200;
  spec.num_queries = 20;
  data::Catalog cat = data::GenerateCatalog(spec);
  index.AddBatch(cat.records);

  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = QGramIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), index.size());
  EXPECT_EQ(loaded.value().num_features(), index.num_features());
  EXPECT_EQ(loaded.value().num_stop_features(), index.num_stop_features());

  // Candidate sets must match bit-for-bit: same ids, same scores.
  for (const std::string& q : cat.queries) {
    auto a = index.TopK(q, 50);
    auto b = loaded.value().TopK(q, 50);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].score, b[i].score);  // exact, not approximate
    }
  }

  // Canonical serialization: saving the loaded index reproduces the bytes.
  std::ostringstream first, second;
  ASSERT_TRUE(index.SaveTo(first).ok());
  ASSERT_TRUE(loaded.value().SaveTo(second).ok());
  EXPECT_EQ(first.str(), second.str());
  std::filesystem::remove(path);
}

TEST(QGramIndexTest, LoadRejectsGarbageAndTruncation) {
  std::istringstream garbage("not an index file at all");
  EXPECT_EQ(QGramIndex::LoadFrom(garbage).status().code(),
            StatusCode::kInvalidArgument);

  QGramIndex index;
  index.AddRecord("acer laptop");
  std::ostringstream full;
  ASSERT_TRUE(index.SaveTo(full).ok());
  const std::string bytes = full.str();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(QGramIndex::LoadFrom(truncated).ok());

  // Well-formed framing whose one posting names a record outside its shard
  // (or beyond the record count): TopK indexes its accumulator by posting
  // id, so Load must refuse it.
  auto one_posting = [](uint32_t id) {
    std::ostringstream out;
    auto i64 = [&](int64_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write("EMXRIDX1", 8);
    for (int64_t v : {int64_t{3}, int64_t{1}, int64_t{1} << 14,
                      int64_t{2} /* shards */, int64_t{4} /* records */}) {
      i64(v);
    }
    i64(1);  // shard 0: one feature
    i64(2);
    out.write("ab", 2);
    for (int64_t v : {int64_t{1} /* df */, int64_t{0}, int64_t{1}}) i64(v);
    out.write(reinterpret_cast<const char*>(&id), sizeof(id));
    i64(0);  // shard 1: no features
    return out.str();
  };
  std::istringstream valid(one_posting(2));
  EXPECT_TRUE(QGramIndex::LoadFrom(valid).ok());
  for (uint32_t bad : {1u, 4u, 0xFFFFFFFEu}) {
    std::istringstream corrupt(one_posting(bad));
    EXPECT_EQ(QGramIndex::LoadFrom(corrupt).status().code(),
              StatusCode::kInvalidArgument)
        << "posting id " << bad;
  }
}

TEST(QGramIndexTest, SaveIsAtomicAndEveryTruncationFails) {
  const std::string path = "/tmp/emx_retrieval_test_atomic.bin";
  QGramIndex index;
  index.AddRecord("acer aspire 5");
  index.AddRecord("asus zenbook 14");
  index.AddRecord("dell xps 13");
  ASSERT_TRUE(index.Save(path).ok());
  // The atomic writer must leave no staging sibling behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const size_t bytes = emx::testing::ReadFileBytes(path).size();
  emx::testing::ExpectAllTruncationsFail(
      path,
      [](const std::string& p) { return QGramIndex::Load(p).status(); },
      /*stride=*/std::max<size_t>(1, bytes / 97),
      /*boundaries=*/{4, 8, 12, 16, 24, 32});
  std::filesystem::remove(path);
}

TEST(QGramIndexTest, HostileCountsAreRejectedBeforeAllocating) {
  const std::string path = "/tmp/emx_retrieval_test_counts.bin";
  QGramIndex index;
  index.AddRecord("acer aspire 5");
  index.AddRecord("asus zenbook 14");
  index.AddRecord("dell xps 13");
  ASSERT_TRUE(index.Save(path).ok());
  // Layout: magic, then i64 qgram, index_tokens, max_postings, num_shards,
  // next_id; shard 0's feature count; its first feature's key length, key
  // bytes, df, stopped flag and id count.
  const size_t next_id_off = 40, features_off = 48, key_len_off = 56;
  int64_t key_len = 0;
  const std::vector<uint8_t> bytes = emx::testing::ReadFileBytes(path);
  ASSERT_GT(bytes.size(), key_len_off + 8);
  std::memcpy(&key_len, bytes.data() + key_len_off, sizeof(key_len));
  int64_t features = 0;
  std::memcpy(&features, bytes.data() + features_off, sizeof(features));
  ASSERT_GT(features, 0) << "shard 0 must hold a feature";
  const size_t num_ids_off =
      key_len_off + 8 + static_cast<size_t>(key_len) + 16;
  auto fails = [](const std::string& patched) {
    EXPECT_EQ(QGramIndex::Load(patched).status().code(),
              StatusCode::kInvalidArgument);
  };
  const int64_t huge = int64_t{1} << 50;
  emx::testing::WithPatchedField<int64_t>(path, features_off, huge, fails);
  emx::testing::WithPatchedField<int64_t>(path, next_id_off, huge, fails);
  emx::testing::WithPatchedField<int64_t>(path, key_len_off, huge, fails);
  // An id count the record count allows but the file cannot hold.
  emx::testing::WithPatchedField<int64_t>(
      path, next_id_off, int64_t{1} << 32, [&](const std::string& patched) {
        emx::testing::WithPatchedField<int64_t>(patched, num_ids_off,
                                                int64_t{1} << 31, fails);
      });
  std::filesystem::remove(path);
}

// ---- Streaming ingest ------------------------------------------------------

TEST(QGramIndexTest, StreamingIngestWhileQueryingIsDeterministic) {
  data::CatalogSpec spec;
  spec.num_records = 400;
  spec.num_queries = 10;
  data::Catalog cat = data::GenerateCatalog(spec);

  // Reference: all records added quietly.
  IndexOptions opts;
  opts.num_shards = 4;
  QGramIndex reference(opts);
  reference.AddBatch(cat.records);

  // Contended: queries hammer the index while records stream in.
  QGramIndex contended(opts);
  std::atomic<bool> done{false};
  std::thread querier([&] {
    while (!done.load()) {
      for (const std::string& q : cat.queries) {
        auto top = contended.TopK(q, 10);  // must never crash or tear
        for (size_t i = 1; i < top.size(); ++i) {
          ASSERT_LE(top[i].score, top[i - 1].score);
        }
      }
    }
  });
  constexpr size_t kChunk = 32;
  for (size_t i = 0; i < cat.records.size(); i += kChunk) {
    const size_t end = std::min(cat.records.size(), i + kChunk);
    contended.AddBatch(std::vector<std::string>(cat.records.begin() + i,
                                                cat.records.begin() + end));
  }
  done.store(true);
  querier.join();

  // Final state is independent of the query interleaving: identical TopK
  // and identical serialized bytes.
  for (const std::string& q : cat.queries) {
    auto a = reference.TopK(q, 20);
    auto b = contended.TopK(q, 20);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
  std::ostringstream sa, sb;
  ASSERT_TRUE(reference.SaveTo(sa).ok());
  ASSERT_TRUE(contended.SaveTo(sb).ok());
  EXPECT_EQ(sa.str(), sb.str());
}

// ---- Catalog generator -----------------------------------------------------

TEST(GenerateCatalogTest, DeterministicAndWellFormed) {
  data::CatalogSpec spec;
  spec.num_records = 500;
  spec.num_queries = 25;
  data::Catalog a = data::GenerateCatalog(spec);
  data::Catalog b = data::GenerateCatalog(spec);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.truth, b.truth);

  ASSERT_EQ(a.records.size(), 500u);
  ASSERT_EQ(a.queries.size(), 25u);
  ASSERT_EQ(a.truth.size(), 25u);
  for (int64_t t : a.truth) {
    ASSERT_GE(t, 0);
    ASSERT_LT(t, 500);
    EXPECT_FALSE(a.records[static_cast<size_t>(t)].empty());
  }
}

// ---- Recall vs blocking ----------------------------------------------------

TEST(QGramIndexTest, RecallAtKBeatsTokenBlocking) {
  data::CatalogSpec spec;
  spec.num_records = 2000;
  spec.num_queries = 50;
  data::Catalog cat = data::GenerateCatalog(spec);

  constexpr int64_t kK = 50;
  QGramIndex index;
  index.AddBatch(cat.records);
  int64_t index_hits = 0;
  for (size_t q = 0; q < cat.queries.size(); ++q) {
    for (const ScoredId& s : index.TopK(cat.queries[q], kK)) {
      if (s.id == cat.truth[q]) {
        ++index_hits;
        break;
      }
    }
  }

  // Blocking baseline over the same corpus: serialized texts wrapped as
  // single-attribute records, same per-query candidate budget.
  data::Schema schema;
  schema.attributes = {"text"};
  auto wrap = [](const std::vector<std::string>& texts) {
    std::vector<data::Record> records;
    records.reserve(texts.size());
    for (const std::string& t : texts) records.push_back(data::Record{{t}});
    return records;
  };
  data::BlockerOptions bopts;
  bopts.max_candidates_per_record = kK;
  data::TokenBlocker blocker(bopts);
  blocker.IndexRight(schema, wrap(cat.records));
  auto candidates = blocker.Candidates(schema, wrap(cat.queries));
  int64_t blocker_hits = 0;
  for (size_t q = 0; q < cat.queries.size(); ++q) {
    for (const auto& [left, right] : candidates) {
      if (left == static_cast<int64_t>(q) && right == cat.truth[q]) {
        ++blocker_hits;
        break;
      }
    }
  }

  const double index_recall =
      static_cast<double>(index_hits) / static_cast<double>(cat.queries.size());
  const double blocker_recall = static_cast<double>(blocker_hits) /
                                static_cast<double>(cat.queries.size());
  EXPECT_GE(index_recall, blocker_recall);
  EXPECT_GE(index_recall, 0.95);
}

// ---- Max-score (WAND) pruning ----------------------------------------------

TEST(QGramIndexTest, PrunedTopKIsBitIdenticalToUnpruned) {
  // The pruning contract: identical ids, identical order, identical
  // *scores* — survivors accumulate in the same feature order, so even
  // float associativity cannot diverge.
  data::CatalogSpec spec;
  spec.num_records = 1500;
  spec.num_queries = 40;
  data::Catalog cat = data::GenerateCatalog(spec);

  IndexOptions pruned_opts;
  pruned_opts.prune_topk = true;
  IndexOptions exhaustive_opts;
  exhaustive_opts.prune_topk = false;
  QGramIndex pruned(pruned_opts);
  QGramIndex exhaustive(exhaustive_opts);
  pruned.AddBatch(cat.records);
  exhaustive.AddBatch(cat.records);

  for (int64_t k : {1, 5, 50}) {
    for (const std::string& q : cat.queries) {
      auto a = pruned.TopK(q, k);
      auto b = exhaustive.TopK(q, k);
      ASSERT_EQ(a.size(), b.size()) << "k=" << k << " q=" << q;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "k=" << k << " rank " << i;
        EXPECT_EQ(a[i].score, b[i].score) << "k=" << k << " rank " << i;
      }
    }
  }
}

TEST(QGramIndexTest, PrunedTopKHandlesEdgeCases) {
  IndexOptions opts;
  opts.prune_topk = true;
  QGramIndex index(opts);
  // Empty index, k = 0, and k far beyond the corpus.
  EXPECT_TRUE(index.TopK("anything", 5).empty());
  index.AddRecord("acer zen zx55 laptop");
  index.AddRecord("acer zen zx56 laptop");
  EXPECT_TRUE(index.TopK("acer", 0).empty());
  auto all = index.TopK("acer zen", 100);
  EXPECT_EQ(all.size(), 2u);
  // A query repeated verbatim still ranks its own record first.
  auto exact = index.TopK("acer zen zx55 laptop", 1);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].id, 0);
}

// ---- Exactness against a reference scorer ----------------------------------

// Brute-force TopK: every record scored by summing log(1 + n / (1 + df)) over
// the query features it shares, in query-feature order — the index's
// documented score, with df counted from every record's Features(). Only
// valid when no feature crosses the posting cap.
class BruteForceScorer {
 public:
  BruteForceScorer(const QGramIndex& index,
                   const std::vector<std::string>& records)
      : index_(index) {
    for (const std::string& r : records) {
      auto feats = index.Features(r);
      for (const std::string& f : feats) ++df_[f];
      record_features_.emplace_back(feats.begin(), feats.end());
    }
  }

  std::vector<ScoredId> TopK(const std::string& query, int64_t k) const {
    const double n = static_cast<double>(record_features_.size());
    const std::vector<std::string> query_features = index_.Features(query);
    std::vector<ScoredId> all;
    for (size_t r = 0; r < record_features_.size(); ++r) {
      double score = 0;
      for (const std::string& f : query_features) {
        if (record_features_[r].count(f) == 0) continue;
        score += std::log(1.0 + n / (1.0 + static_cast<double>(df_.at(f))));
      }
      if (score > 0) all.push_back({static_cast<int64_t>(r), score});
    }
    std::sort(all.begin(), all.end(),
              [](const ScoredId& a, const ScoredId& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
    if (static_cast<int64_t>(all.size()) > k) {
      all.resize(static_cast<size_t>(k));
    }
    return all;
  }

 private:
  const QGramIndex& index_;
  std::vector<std::unordered_set<std::string>> record_features_;
  std::unordered_map<std::string, int64_t> df_;
};

void ExpectSameTopK(const std::vector<ScoredId>& got,
                    const std::vector<ScoredId>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

TEST(QGramIndexTest, TopKIsBitIdenticalToBruteForce) {
  data::CatalogSpec spec;
  spec.num_records = 400;
  spec.num_queries = 15;
  data::Catalog cat = data::GenerateCatalog(spec);
  const int64_t n = static_cast<int64_t>(cat.records.size());
  const QGramIndex features_only;  // Features() depends only on the options
  const BruteForceScorer reference(features_only, cat.records);

  for (int64_t shards : {1, 3, 8}) {
    for (bool prune : {true, false}) {
      IndexOptions opts;
      opts.num_shards = shards;
      opts.prune_topk = prune;
      opts.max_postings = int64_t{1} << 30;  // no stop features
      QGramIndex index(opts);
      index.AddBatch(cat.records);
      ASSERT_EQ(index.num_stop_features(), 0);
      for (const std::string& q : cat.queries) {
        for (int64_t k : {int64_t{1}, int64_t{5}, int64_t{64}, n + 10}) {
          ExpectSameTopK(index.TopK(q, k), reference.TopK(q, k),
                         "shards=" + std::to_string(shards) +
                             " prune=" + std::to_string(prune) +
                             " k=" + std::to_string(k) + " q=" + q);
        }
      }
    }
  }
}

TEST(QGramIndexTest, TopKScratchDoesNotLeakAcrossQueries) {
  // Alternating queries over two indexes of different shard counts and
  // sizes, one growing between queries, must each answer exactly as a
  // freshly built index over the same records: a per-query accumulator that
  // is not reset, or is sized from a stale record count, shows up here.
  data::CatalogSpec spec;
  spec.num_records = 600;
  spec.num_queries = 12;
  data::Catalog cat = data::GenerateCatalog(spec);
  const std::vector<std::string> small_records(cat.records.begin(),
                                               cat.records.begin() + 450);
  const std::vector<std::string> large_records(cat.records.begin() + 150,
                                               cat.records.end());

  IndexOptions small_opts;
  small_opts.num_shards = 3;
  IndexOptions large_opts;
  large_opts.num_shards = 8;
  QGramIndex small(small_opts);
  QGramIndex large(large_opts);
  large.AddBatch(large_records);
  QGramIndex fresh_large(large_opts);
  fresh_large.AddBatch(large_records);

  constexpr size_t kGrowth = 90;
  for (size_t end = kGrowth; end <= small_records.size(); end += kGrowth) {
    small.AddBatch(std::vector<std::string>(small_records.begin() + end -
                                                kGrowth,
                                            small_records.begin() + end));
    const std::vector<std::string> grown(small_records.begin(),
                                         small_records.begin() + end);
    QGramIndex fresh_small(small_opts);
    fresh_small.AddBatch(grown);
    for (const std::string& q : cat.queries) {
      const std::string what = "records=" + std::to_string(end) + " q=" + q;
      ExpectSameTopK(small.TopK(q, 20), fresh_small.TopK(q, 20),
                     "small " + what);
      ExpectSameTopK(large.TopK(q, 20), fresh_large.TopK(q, 20),
                     "large " + what);
    }
  }
}

// ---- CatalogMatcher (end-to-end with the serving engine) -------------------

class CatalogMatcherTest : public ::testing::Test {
 protected:
  static constexpr const char* kCacheDir = "/tmp/emx_zoo_retrieval_test";
  static constexpr int64_t kSeqLen = 32;

  static core::EntityMatcher* Matcher() {
    static std::unique_ptr<core::EntityMatcher> matcher = [] {
      pretrain::ZooOptions zoo;
      zoo.cache_dir = kCacheDir;
      zoo.vocab_size = 500;
      zoo.corpus.num_documents = 150;
      zoo.skip_pretraining = true;
      auto bundle = pretrain::GetPretrained(models::Architecture::kBert, zoo);
      EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
      auto m = std::make_unique<core::EntityMatcher>(std::move(bundle).value());
      m->set_eval_max_seq_len(kSeqLen);
      return m;
    }();
    return matcher.get();
  }

  static serve::EngineOptions EngineOpts() {
    serve::EngineOptions opts;
    opts.max_seq_len = kSeqLen;
    opts.bucket_width = kSeqLen;
    return opts;
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(kCacheDir); }
};

TEST_F(CatalogMatcherTest, EndToEndAgreesWithBruteForce) {
  data::CatalogSpec spec;
  spec.num_records = 24;
  spec.num_queries = 4;
  data::Catalog cat = data::GenerateCatalog(spec);

  serve::MatcherEngine engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  copts.retrieve_k = spec.num_records;  // retrieval can't drop anyone
  copts.rerank_k = spec.num_records;
  copts.top_k = 1;
  CatalogMatcher catalog(&engine, copts);
  catalog.AddBatch(cat.records);
  EXPECT_EQ(catalog.size(), 24);

  for (const std::string& q : cat.queries) {
    auto matches = catalog.FindMatches(q);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    ASSERT_EQ(matches.value().size(), 1u);

    // Brute force over the whole catalog on the unbatched grad-free path.
    double best_p = -1;
    for (const std::string& text : cat.records) {
      best_p = std::max(best_p, Matcher()->MatchProbability(q, text));
    }
    // Micro-batch composition may flip last-bit float results, so compare
    // probabilities with tolerance instead of demanding the same argmax.
    EXPECT_NEAR(matches.value()[0].probability, best_p, 1e-4);
  }
}

TEST_F(CatalogMatcherTest, FindMatchesIsSortedCountsAndTraced) {
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  copts.retrieve_k = 8;
  copts.rerank_k = 8;
  copts.top_k = 3;
  CatalogMatcher catalog(&engine, copts);
  catalog.Add("acer zen zx55 laptop silver 128 gb");
  catalog.Add("acer zen zx56 laptop black 64 gb");
  catalog.Add("dell vostro desktop tower");
  catalog.Add("sony bravia television 55 inch");

  auto matches = catalog.FindMatches("acer zx55 notebook silver");
  ASSERT_TRUE(matches.ok());
  ASSERT_LE(matches.value().size(), 3u);
  ASSERT_GE(matches.value().size(), 1u);
  for (size_t i = 1; i < matches.value().size(); ++i) {
    EXPECT_GE(matches.value()[i - 1].probability,
              matches.value()[i].probability);
  }
  for (const CatalogMatch& m : matches.value()) {
    EXPECT_EQ(m.text, catalog.Text(m.id));
    EXPECT_GT(m.retrieval_score, 0);
  }
  // The obs registry saw the query and the stage histograms.
  const std::string json = catalog.registry()->ToJson();
  EXPECT_NE(json.find("catalog.queries"), std::string::npos);
  EXPECT_NE(json.find("catalog.retrieve_us"), std::string::npos);
  EXPECT_NE(json.find("catalog.rerank_us"), std::string::npos);
}

TEST_F(CatalogMatcherTest, SaveLoadPreservesResults) {
  const std::string path = "/tmp/emx_retrieval_test_catalog.bin";
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  copts.retrieve_k = 8;
  copts.rerank_k = 4;
  copts.top_k = 2;
  CatalogMatcher catalog(&engine, copts);
  data::CatalogSpec spec;
  spec.num_records = 16;
  spec.num_queries = 3;
  data::Catalog cat = data::GenerateCatalog(spec);
  catalog.AddBatch(cat.records);
  ASSERT_TRUE(catalog.Save(path).ok());

  auto loaded = CatalogMatcher::Load(path, &engine, copts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->size(), catalog.size());
  for (const std::string& q : cat.queries) {
    auto a = catalog.FindMatches(q);
    auto b = loaded.value()->FindMatches(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().size(), b.value().size());
    for (size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].id, b.value()[i].id);
      EXPECT_EQ(a.value()[i].text, b.value()[i].text);
      EXPECT_EQ(a.value()[i].retrieval_score, b.value()[i].retrieval_score);
      EXPECT_NEAR(a.value()[i].probability, b.value()[i].probability, 1e-4);
    }
  }
  std::filesystem::remove(path);
}

TEST_F(CatalogMatcherTest, SaveIsAtomicAndEveryTruncationFails) {
  const std::string path = "/tmp/emx_retrieval_test_catalog_atomic.bin";
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  copts.retrieve_k = 4;
  copts.rerank_k = 2;
  CatalogMatcher catalog(&engine, copts);
  data::CatalogSpec spec;
  spec.num_records = 12;
  spec.num_queries = 1;
  data::Catalog cat = data::GenerateCatalog(spec);
  catalog.AddBatch(cat.records);
  ASSERT_TRUE(catalog.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const size_t bytes = emx::testing::ReadFileBytes(path).size();
  emx::testing::ExpectAllTruncationsFail(
      path,
      [&](const std::string& p) {
        return CatalogMatcher::Load(p, &engine, copts).status();
      },
      /*stride=*/std::max<size_t>(1, bytes / 97),
      /*boundaries=*/{4, 8, 12, 16, 24, 32});
  std::filesystem::remove(path);
}

TEST_F(CatalogMatcherTest, HostileCountsAreRejectedBeforeAllocating) {
  const std::string path = "/tmp/emx_retrieval_test_catalog_counts.bin";
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  CatalogMatcher catalog(&engine, copts);
  catalog.Add("acer aspire 5");
  catalog.Add("asus zenbook 14");
  ASSERT_TRUE(catalog.Save(path).ok());
  // Layout: magic, i64 text count, then each text's i64 length and bytes.
  auto fails = [&](const std::string& patched) {
    EXPECT_EQ(CatalogMatcher::Load(patched, &engine, copts).status().code(),
              StatusCode::kInvalidArgument);
  };
  emx::testing::WithPatchedField<int64_t>(path, 8, int64_t{1} << 50, fails);
  emx::testing::WithPatchedField<int64_t>(path, 16, int64_t{1} << 40, fails);
  std::filesystem::remove(path);
}

TEST_F(CatalogMatcherTest, SplitEngineWithWarmingAgreesWithPlainEngine) {
  // The same catalog served through a split-encoder engine (k = 0, warmed
  // at ingest) must return the same matches with the same probabilities as
  // the plain cross-encoder engine: k = 0 is exact, and warming only moves
  // encode work to ingest time.
  data::CatalogSpec spec;
  spec.num_records = 16;
  spec.num_queries = 3;
  data::Catalog cat = data::GenerateCatalog(spec);

  serve::MatcherEngine plain_engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  copts.retrieve_k = 8;
  copts.rerank_k = 4;
  copts.top_k = 2;
  CatalogMatcher plain(&plain_engine, copts);
  plain.AddBatch(cat.records);

  serve::EngineOptions split_opts = EngineOpts();
  split_opts.split_layer = 0;
  serve::MatcherEngine split_engine(Matcher(), split_opts);
  CatalogOptions warm_opts = copts;
  // Queries in the generated catalog vary in length, so warming at one
  // assumed length only helps some of them — which is exactly the contract:
  // a latency hint, never a correctness dependency.
  warm_opts.warm_query_segment_len = 12;
  CatalogMatcher warmed(&split_engine, warm_opts);
  warmed.AddBatch(cat.records);
  EXPECT_GT(split_engine.prefix_cache().Stats().entries, 0)
      << "ingest-time warming should have pre-encoded candidate prefixes";

  for (const std::string& q : cat.queries) {
    auto a = plain.FindMatches(q);
    auto b = warmed.FindMatches(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a.value().size(), b.value().size());
    for (size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].id, b.value()[i].id);
      EXPECT_EQ(a.value()[i].probability, b.value()[i].probability)
          << "k=0 split must be bit-identical";
    }
  }
}

}  // namespace
}  // namespace retrieval
}  // namespace emx
