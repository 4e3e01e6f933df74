#ifndef EMX_RETRIEVAL_CATALOG_MATCHER_H_
#define EMX_RETRIEVAL_CATALOG_MATCHER_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "retrieval/qgram_index.h"
#include "serve/matcher_engine.h"
#include "util/status.h"

namespace emx {
namespace retrieval {

/// Tuning knobs for the retrieve → re-rank pipeline.
struct CatalogOptions {
  /// Candidates fetched from the inverted index per query.
  int64_t retrieve_k = 64;
  /// Highest-retrieval-score candidates re-scored by the transformer
  /// engine. The rest keep only their retrieval score and are dropped —
  /// this is the knob that trades recall for QPS (the engine forward is
  /// ~1000x the cost of an index probe).
  int64_t rerank_k = 16;
  /// Matches returned per query, probability-descending.
  int64_t top_k = 5;
  /// Deadline forwarded to each re-rank Submit (µs; 0 = engine default).
  int64_t rerank_timeout_us = 0;
  /// When > 0 and the engine serves through the split-encoder prefix cache,
  /// every ingested record's candidate-side prefix is pre-encoded at Add /
  /// AddBatch time, assuming queries occupy this many tokens (CLS + query +
  /// SEP). Queries of other lengths still miss and encode lazily — warming
  /// is purely a first-request latency optimization for catalogs with
  /// predictable query shapes. 0 disables warming.
  int64_t warm_query_segment_len = 0;
  /// Index construction knobs (used when building fresh, ignored by Load,
  /// which restores the saved index's options).
  IndexOptions index;
};

/// One catalog hit: the stored record, its retrieval score, and — for the
/// re-ranked prefix — the transformer match probability.
struct CatalogMatch {
  int64_t id = 0;
  std::string text;
  /// Idf-weighted feature-overlap score from the index tier.
  double retrieval_score = 0;
  /// Transformer probability from the re-rank tier.
  double probability = 0;
  bool is_match = false;
};

/// The 1-vs-millions matching tier: a QGramIndex narrows the catalog to
/// `retrieve_k` candidates, then the serving engine re-scores the best
/// `rerank_k` of them with the fine-tuned transformer (micro-batched,
/// cached, deadline-aware — everything MatcherEngine already does for
/// pairwise serving). Results come back probability-descending.
///
/// Concurrency: Add/AddBatch and FindMatches may run concurrently.
/// Catalog texts live behind a reader-writer lock; the index has its own
/// per-shard locks (see QGramIndex). Ingest is serialized so record id i
/// is always the i-th text.
///
/// Persistence: one EMXM1 container holds the index's "ridx:" sections
/// and the texts as one blob ("cat:texts") with u64 offsets
/// ("cat:text_offsets"). A loaded catalog serves base texts from the
/// mapping; texts added later live on the heap until the next Save.
///
/// Instrumentation: a private obs::MetricsRegistry carries
/// catalog.{queries,records,rerank_failures} counters and
/// catalog.{retrieve_us,rerank_us,candidates} histograms;
/// EMX_TRACE_SPAN marks the retrieve and re-rank stages per query.
class CatalogMatcher {
 public:
  /// `engine` must outlive the matcher and is shared with other callers
  /// (its queue, cache and workers are the re-rank backend).
  CatalogMatcher(serve::MatcherEngine* engine, CatalogOptions options = {});

  CatalogMatcher(const CatalogMatcher&) = delete;
  CatalogMatcher& operator=(const CatalogMatcher&) = delete;

  /// Adds one serialized record to the catalog; returns its id.
  int64_t Add(std::string text);
  /// Adds a batch; returns the id of the first record (ids contiguous).
  int64_t AddBatch(std::vector<std::string> texts);

  /// Retrieves and re-ranks: at most `top_k` matches, probability
  /// descending (ties: retrieval score descending, then ascending id).
  /// Individual re-rank failures (deadline, queue full) are dropped and
  /// counted; the call fails only if every re-rank submission failed.
  Result<std::vector<CatalogMatch>> FindMatches(std::string_view query);

  int64_t size() const;
  /// The stored text of record `id`; empty when out of range.
  std::string Text(int64_t id) const;

  const QGramIndex& index() const { return index_; }
  const CatalogOptions& options() const { return options_; }
  /// catalog.* counters/histograms (JSON via registry()->ToJson()).
  obs::MetricsRegistry* registry() { return &registry_; }

  /// Persists texts + index (canonical bytes — see QGramIndex). Save
  /// requires ingest quiescence; it may target the file this catalog was
  /// loaded from (the mapping keeps the old version alive).
  Status Save(const std::string& path) const;
  /// Maps a saved catalog after checking the whole file; `options.index`
  /// is ignored in favor of the saved index options. The loaded matcher's
  /// FindMatches results are bit-identical to the saved one's (given the
  /// same engine weights).
  static Result<std::unique_ptr<CatalogMatcher>> Load(
      const std::string& path, serve::MatcherEngine* engine,
      CatalogOptions options = {});

 private:
  /// Pre-encodes candidate prefixes for `texts` when warming is configured
  /// and the engine serves split; no-op otherwise. Called outside
  /// texts_mu_ — warming runs engine forwards and must not stall ingest
  /// readers.
  void WarmTexts(const std::vector<std::string>& texts);
  int64_t NumBaseTexts() const;
  /// Record `id`'s text; empty when out of range. Caller holds texts_mu_.
  std::string_view TextLocked(int64_t id) const;

  serve::MatcherEngine* engine_;
  CatalogOptions options_;
  QGramIndex index_;

  mutable std::shared_mutex texts_mu_;
  /// Loaded texts: base_offsets_ (one more than the count) into
  /// base_texts_, both in the index's mapping.
  std::span<const uint64_t> base_offsets_;
  std::span<const char> base_texts_;
  /// Texts added since the load.
  std::vector<std::string> texts_;

  obs::MetricsRegistry registry_;
  obs::Counter* queries_;
  obs::Counter* records_;
  obs::Counter* rerank_failures_;
  obs::Histogram* retrieve_us_;
  obs::Histogram* rerank_us_;
  obs::Histogram* candidates_;
};

}  // namespace retrieval
}  // namespace emx

#endif  // EMX_RETRIEVAL_CATALOG_MATCHER_H_
