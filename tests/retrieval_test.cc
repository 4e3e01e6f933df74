#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/entity_matcher.h"
#include "data/blocking.h"
#include "data/generators.h"
#include "data/record.h"
#include "file_fuzz.h"
#include "io/emxm.h"
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

void ExpectSameTopK(const std::vector<ScoredId>& got,
                    const std::vector<ScoredId>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

/// Checks that the atomic Save at `path` left no staging file, then cuts
/// and patches the container the ways a hostile file could and expects
/// `load` to fail each with InvalidArgument or IoError: every truncation
/// (strided, plus the header and first table entry's edges), every u32
/// word of every u32/u64 array set to 0xFFFFFFFF (an offset that decreases
/// or runs past its array, an id past next_id, a df or stop feature past
/// its range), every section's payload cut short of its count
/// and every count raised past its payload, a posting id moved to the
/// wrong shard, and index headers no arrays fit.
void ExpectHostilePatchesFail(
    const std::string& path,
    const std::function<Status(const std::string&)>& load) {
  using emx::testing::WithPatchedField;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto reader = io::EmxmReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(load(path).ok());
  const size_t bytes = reader.value()->file_bytes();
  emx::testing::ExpectAllTruncationsFail(
      path, load, /*stride=*/std::max<size_t>(1, bytes / 97),
      /*boundaries=*/{8, 16, 24, 32, 56, 64, 96, 160});
  auto rejects = [&](std::string what) {
    return [&load, what](const std::string& patched) {
      const Status s = load(patched);
      EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument ||
                  s.code() == StatusCode::kIoError)
          << what << ": " << s.ToString();
    };
  };
  const auto& sections = reader.value()->sections();
  for (size_t i = 0; i < sections.size(); ++i) {
    const io::Section& sec = sections[i];
    const size_t entry =
        sizeof(io::EmxmHeader) + i * sizeof(io::EmxmSectionEntry);
    const size_t payload =
        sec.data == nullptr ? 0 : sec.data - reader.value()->mapping().data();
    if (sec.kind == io::SectionKind::kU32Vec ||
        sec.kind == io::SectionKind::kU64Vec) {
      for (size_t at = 0; at < sec.bytes; at += 4) {
        WithPatchedField<uint32_t>(path, payload + at, 0xFFFFFFFFu,
                                   rejects(sec.name + " word " +
                                           std::to_string(at / 4)));
      }
    }
    if (sec.name == "ridx:shard0:ids" && sec.bytes > 0) {
      uint32_t id = 0;
      std::memcpy(&id, sec.data, sizeof(id));
      WithPatchedField<uint32_t>(path, payload, id + 1, rejects("id shard"));
    }
    if (sec.kind == io::SectionKind::kIndexMeta) {
      WithPatchedField<uint64_t>(path, entry + 40 + 3 * 8, 0,
                                 rejects("0 shards"));
      WithPatchedField<uint64_t>(path, entry + 40 + 3 * 8, sec.aux[3] + 1,
                                 rejects("shards without sections"));
      WithPatchedField<uint64_t>(path, entry + 40 + 4 * 8, 1ull << 33,
                                 rejects("next_id past u32 ids"));
      WithPatchedField<uint64_t>(path, entry + 40 + 5 * 8, sec.aux[5] + 1,
                                 rejects("num_features"));
      continue;
    }
    if (sec.bytes >= 4) {
      WithPatchedField<uint64_t>(path, entry + 32, sec.bytes - 4,
                                 rejects(sec.name + " payload cut"));
    }
    WithPatchedField<uint64_t>(path, entry + 40, sec.aux[0] + 1,
                               rejects(sec.name + " count raised"));
  }
}

TEST(QGramIndexTest, SaveLoadRoundTripIsBitIdentical) {
  const std::string path = "/tmp/emx_retrieval_test_index.emxm";
  const std::string again = "/tmp/emx_retrieval_test_index_again.emxm";
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
    ExpectSameTopK(loaded.value().TopK(q, 50), index.TopK(q, 50), q);
  }

  // Canonical serialization: saving the loaded index reproduces the bytes.
  ASSERT_TRUE(loaded.value().Save(again).ok());
  EXPECT_EQ(emx::testing::ReadFileBytes(path),
            emx::testing::ReadFileBytes(again));
  std::filesystem::remove(path);
  std::filesystem::remove(again);
}

TEST(QGramIndexTest, DeltaSegmentMatchesAnInMemoryIndex) {
  const std::string path = "/tmp/emx_retrieval_test_delta.emxm";
  const std::string memory_path = "/tmp/emx_retrieval_test_delta_memory.emxm";
  data::CatalogSpec spec;
  spec.num_records = 300;
  spec.num_queries = 15;
  data::Catalog cat = data::GenerateCatalog(spec);
  // 240 base records, 60 added after the load. "qqqqq" (and its grams)
  // sits in three shard-0 records of the base — under the per-shard cap
  // of 4 it is live — and in two added shard-0 records, which stop it
  // there; the added records also carry tokens the base dictionary lacks.
  std::vector<std::string> records = cat.records;
  for (size_t id : {0, 2, 4, 240, 242}) records[id] += " qqqqq";
  for (size_t id = 240; id < records.size(); ++id) {
    records[id] += " novelty" + std::to_string(id % 7);
  }
  const std::vector<std::string> base(records.begin(), records.begin() + 240);
  const std::vector<std::string> added(records.begin() + 240, records.end());

  IndexOptions opts;
  opts.num_shards = 2;
  opts.max_postings = 8;
  QGramIndex base_index(opts);
  base_index.AddBatch(base);
  ASSERT_TRUE(base_index.Save(path).ok());
  auto loaded = QGramIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  QGramIndex& merged = loaded.value();
  const auto rare = merged.TopK("qqqqq", 100);
  ASSERT_EQ(rare.size(), 3u);
  EXPECT_EQ(rare[2].id, 4);
  const int64_t base_stops = merged.num_stop_features();
  merged.AddBatch(added);

  QGramIndex memory(opts);
  memory.AddBatch(records);
  IndexOptions unpruned_opts = opts;
  unpruned_opts.prune_topk = false;
  QGramIndex unpruned(unpruned_opts);
  unpruned.AddBatch(records);

  EXPECT_EQ(merged.size(), memory.size());
  EXPECT_EQ(merged.num_features(), memory.num_features());
  EXPECT_EQ(merged.num_stop_features(), memory.num_stop_features());
  // Shard 0 stopped "qqqqq"; shard 1 never held it.
  EXPECT_GT(merged.num_stop_features(), base_stops);
  EXPECT_TRUE(merged.TopK("qqqqq", 100).empty());
  EXPECT_FALSE(merged.TopK("novelty3", 100).empty());

  std::vector<std::string> queries = cat.queries;
  queries.insert(queries.end(), {"qqqqq", "novelty3 qqqqq", added[7]});
  const int64_t n = static_cast<int64_t>(records.size());
  auto expect_matches_memory = [&](const QGramIndex& index,
                                   const std::string& what) {
    for (const std::string& q : queries) {
      for (int64_t k : {int64_t{1}, int64_t{5}, int64_t{64}, n + 10}) {
        const auto got = index.TopK(q, k);
        ExpectSameTopK(got, memory.TopK(q, k), what + " pruned q=" + q);
        ExpectSameTopK(got, unpruned.TopK(q, k), what + " unpruned q=" + q);
      }
    }
  };
  expect_matches_memory(merged, "loaded + delta");

  // One canonical file for one index state, however it was built.
  ASSERT_TRUE(memory.Save(memory_path).ok());
  const std::vector<uint8_t> memory_bytes =
      emx::testing::ReadFileBytes(memory_path);
  // Saving onto the file the index is mapped from: the rename leaves the
  // mapped version intact, and a fresh Load serves the merged state.
  ASSERT_TRUE(merged.Save(path).ok());
  EXPECT_EQ(emx::testing::ReadFileBytes(path), memory_bytes);
  expect_matches_memory(merged, "after saving over its own file");
  auto reloaded = QGramIndex::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  expect_matches_memory(reloaded.value(), "reloaded");
  EXPECT_EQ(reloaded.value().num_stop_features(), memory.num_stop_features());
  std::filesystem::remove(path);
  std::filesystem::remove(memory_path);
}

TEST(QGramIndexTest, HostileContainersAreRejected) {
  const std::string path = "/tmp/emx_retrieval_test_hostile.emxm";
  auto load = [](const std::string& p) { return QGramIndex::Load(p).status(); };
  emx::testing::WriteFileBytes(path, {'n', 'o', 't', ' ', 'e', 'm', 'x', 'm'});
  EXPECT_EQ(load(path).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(io::EmxmWriter().WriteFile(path).ok());
  EXPECT_EQ(load(path).code(), StatusCode::kInvalidArgument);

  IndexOptions opts;
  opts.num_shards = 2;
  opts.max_postings = 4;  // per-shard cap 2: "acer" stops in shard 0
  QGramIndex index(opts);
  for (const char* text : {"acer aspire 5", "asus zenbook 14", "acer swift 3",
                           "dell xps 13", "acer nitro 7", "hp envy 15"}) {
    index.AddRecord(text);
  }
  ASSERT_GT(index.num_stop_features(), 0);
  ASSERT_TRUE(index.Save(path).ok());
  ExpectHostilePatchesFail(path, load);

  // A record count far past the postings is valid (records may have no
  // features), but must not size TopK's scratch: 2^32 - 1 records over 2
  // shards would be 16 GB of accumulators.
  auto reader = io::EmxmReader::Open(path);
  ASSERT_TRUE(reader.ok());
  size_t meta = 0;
  while (reader.value()->sections()[meta].name != "ridx:meta") ++meta;
  emx::testing::WithPatchedField<uint64_t>(
      path,
      sizeof(io::EmxmHeader) + meta * sizeof(io::EmxmSectionEntry) + 40 + 4 * 8,
      0xFFFFFFFFull, [](const std::string& patched) {
        auto loaded = QGramIndex::Load(patched);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(loaded.value().TopK("dell xps 13", 1).at(0).id, 3);
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
  const std::string ra = "/tmp/emx_retrieval_test_stream_a.emxm";
  const std::string rb = "/tmp/emx_retrieval_test_stream_b.emxm";
  ASSERT_TRUE(reference.Save(ra).ok());
  ASSERT_TRUE(contended.Save(rb).ok());
  EXPECT_EQ(emx::testing::ReadFileBytes(ra), emx::testing::ReadFileBytes(rb));
  std::filesystem::remove(ra);
  std::filesystem::remove(rb);
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
  const std::string path = "/tmp/emx_retrieval_test_catalog.emxm";
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  copts.retrieve_k = 8;
  copts.rerank_k = 4;
  copts.top_k = 2;
  CatalogMatcher catalog(&engine, copts);
  data::CatalogSpec spec;
  spec.num_records = 24;
  spec.num_queries = 3;
  data::Catalog cat = data::GenerateCatalog(spec);
  const std::vector<std::string> base(cat.records.begin(),
                                      cat.records.begin() + 16);
  const std::vector<std::string> added(cat.records.begin() + 16,
                                       cat.records.end());
  catalog.AddBatch(base);
  ASSERT_TRUE(catalog.Save(path).ok());

  auto loaded = CatalogMatcher::Load(path, &engine, copts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  CatalogMatcher& mapped = *loaded.value();
  auto expect_same = [&](CatalogMatcher& a, CatalogMatcher& b) {
    ASSERT_EQ(a.size(), b.size());
    for (int64_t id = 0; id < a.size(); ++id) EXPECT_EQ(a.Text(id), b.Text(id));
    for (const std::string& q : cat.queries) {
      auto ma = a.FindMatches(q);
      auto mb = b.FindMatches(q);
      ASSERT_TRUE(ma.ok());
      ASSERT_TRUE(mb.ok());
      ASSERT_EQ(ma.value().size(), mb.value().size());
      for (size_t i = 0; i < ma.value().size(); ++i) {
        EXPECT_EQ(ma.value()[i].id, mb.value()[i].id);
        EXPECT_EQ(ma.value()[i].text, mb.value()[i].text);
        EXPECT_EQ(ma.value()[i].retrieval_score,
                  mb.value()[i].retrieval_score);
        EXPECT_NEAR(ma.value()[i].probability, mb.value()[i].probability,
                    1e-4);
      }
    }
  };
  expect_same(catalog, mapped);

  // Records added to the mapped catalog, then saved over the file it maps:
  // it keeps answering from the old mapping plus its delta, and a fresh
  // Load serves the merged state.
  catalog.AddBatch(added);
  mapped.AddBatch(added);
  EXPECT_EQ(mapped.Text(20), added[4]);
  ASSERT_TRUE(mapped.Save(path).ok());
  expect_same(catalog, mapped);
  auto reloaded = CatalogMatcher::Load(path, &engine, copts);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  expect_same(catalog, *reloaded.value());
  std::filesystem::remove(path);
}

TEST_F(CatalogMatcherTest, HostileContainersAreRejected) {
  const std::string path = "/tmp/emx_retrieval_test_catalog_hostile.emxm";
  serve::MatcherEngine engine(Matcher(), EngineOpts());
  CatalogOptions copts;
  copts.index.num_shards = 2;
  auto load = [&](const std::string& p) {
    return CatalogMatcher::Load(p, &engine, copts).status();
  };
  // An index file is not a catalog.
  QGramIndex index(copts.index);
  index.AddRecord("acer aspire 5");
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_EQ(load(path).code(), StatusCode::kInvalidArgument);

  CatalogMatcher catalog(&engine, copts);
  catalog.Add("acer aspire 5");
  catalog.Add("asus zenbook 14");
  catalog.Add("dell xps 13");
  ASSERT_TRUE(catalog.Save(path).ok());
  ExpectHostilePatchesFail(path, load);
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
