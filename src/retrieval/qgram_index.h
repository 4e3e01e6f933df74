#ifndef EMX_RETRIEVAL_QGRAM_INDEX_H_
#define EMX_RETRIEVAL_QGRAM_INDEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/emxm.h"
#include "util/status.h"

namespace emx {
namespace retrieval {

/// Tuning knobs for the catalog index.
struct IndexOptions {
  /// Character q-gram width over each lower-cased token (tokens are padded
  /// with '^'/'$' boundary markers before slicing, so "zx55" and "zx-55"
  /// still share their edge grams). 0 disables q-grams.
  int64_t qgram = 3;
  /// Index whole whitespace tokens as features as well — exact token hits
  /// (brand names, years) score higher than their shredded grams alone.
  /// Each token also contributes a punctuation-stripped alias ("zx-55" →
  /// "zx55") and a join with the stripped next token ("zx","55" → "zx55"):
  /// hyphenated, space-split, and unperturbed renderings of a model number
  /// must collapse to one exact rare token, because shared medium-idf grams
  /// alone lose to coincidental gram overlap at million-record scale.
  bool index_tokens = true;
  /// Global posting cap per feature. A feature whose document frequency
  /// crosses this becomes a *stop feature*: its postings are freed and it
  /// stops being indexed or scored — templated catalogs repeat boilerplate
  /// grams ("the", " gb ") in nearly every record, and carrying million-entry
  /// posting lists for them would blow memory without adding signal.
  /// Internally the cap is split evenly across shards
  /// (max(1, max_postings / num_shards) per shard) so the stop decision is a
  /// pure function of each shard's record set, independent of query load or
  /// thread count.
  int64_t max_postings = 1 << 14;
  /// Independent index shards; record id `i` lives in shard `i % num_shards`.
  /// Queries score shards in parallel (ParallelFor) and ingest takes only
  /// the target shard's writer lock, so streaming AddRecord/AddBatch can
  /// proceed while queries run.
  int64_t num_shards = 8;
  /// Max-score (WAND-style) pruning in TopK: once at least k of a shard's
  /// candidates have a partial score above the summed idf weight of every
  /// feature still unprocessed, records first seen in those remaining
  /// (low-weight, long-posting-list) features cannot reach the top k and
  /// are never materialized. Scores accumulate in a dense per-shard array
  /// indexed by id / num_shards, so the check is a count over the touched
  /// slots, skipped while the running max score is still under the bound.
  /// Results are identical to the unpruned path — scores accumulate in the
  /// same feature order, and the bound is checked with a strict margin (see
  /// TopK). Query-time only; not persisted by Save.
  bool prune_topk = true;
};

/// One retrieved catalog record: its id (assigned by Add order, starting at
/// 0) and its idf-weighted feature-overlap score.
struct ScoredId {
  int64_t id = 0;
  double score = 0;
};

/// Sharded, persistent inverted q-gram/token index over serialized records
/// — the retrieval tier that turns pairwise matching into 1-vs-millions
/// matching. Records are added as flat text (see data::SerializeRecord),
/// assigned dense int64 ids in arrival order, and retrieved by idf-weighted
/// feature overlap: score(r) = sum over shared features f of
/// log(1 + N / (1 + df(f))). Rare features (model numbers, author names)
/// dominate; boilerplate contributes little and is dropped entirely once it
/// crosses the posting cap.
///
/// Concurrency: AddRecord/AddBatch and TopK may run concurrently. Each
/// shard has a reader-writer lock; queries hold reader locks while scoring,
/// ingest holds the writer lock of the single target shard. A query racing
/// an ingest sees some prefix of the new records — never a torn posting
/// list. The final index state depends only on the set and order of added
/// records, not on query interleaving or thread count, and TopK results are
/// deterministic for a given index state (ties broken by ascending id).
class QGramIndex {
 public:
  explicit QGramIndex(IndexOptions options = IndexOptions{});

  QGramIndex(QGramIndex&&) noexcept;
  QGramIndex& operator=(QGramIndex&&) noexcept;
  QGramIndex(const QGramIndex&) = delete;
  QGramIndex& operator=(const QGramIndex&) = delete;
  ~QGramIndex();

  /// Adds one serialized record; returns its id.
  int64_t AddRecord(std::string_view text);
  /// Adds a batch; returns the id of the first record (ids are contiguous).
  /// Feature extraction and posting insertion run per-shard in parallel.
  int64_t AddBatch(const std::vector<std::string>& texts);

  /// The k highest-scoring records for the query text, score descending,
  /// ties by ascending id. Thread-safe against concurrent ingest.
  std::vector<ScoredId> TopK(std::string_view query, int64_t k) const;

  /// Records indexed so far.
  int64_t size() const;
  /// Live (non-stop) features across all shards.
  int64_t num_features() const;
  /// Features demoted to stop features (postings freed).
  int64_t num_stop_features() const;

  const IndexOptions& options() const { return options_; }

  /// The deterministic feature set of one text under these options
  /// (deduplicated, first-occurrence order). Exposed for tests and for
  /// callers that want to inspect what the index keys on.
  std::vector<std::string> Features(std::string_view text) const;

  /// Persistence as an EMXM1 container (see "Persistence" below). Save
  /// merges the mapped base and everything added since into one canonical
  /// container — identical index states write identical bytes — and
  /// requires ingest quiescence (it takes all reader locks). Load maps the
  /// file and serves every array from the mapping; it checks every size,
  /// offset and posting id before it returns, so a corrupt or hostile file
  /// is an InvalidArgument (IoError when unreadable), never a fault or an
  /// out-of-bounds read at query time. TopK of the loaded index is
  /// bit-identical to the saved one's.
  Status Save(const std::string& path) const;
  static Result<QGramIndex> Load(const std::string& path);

 private:
  friend class CatalogMatcher;

  // Persistence. The container holds one global feature dictionary (keys
  // in byte order, a blob + u32 offsets; a feature's id is its key's
  // rank, found by binary search), the global df of each feature, and per
  // shard a CSR posting matrix over feature ids (u32 offsets + u32 ids)
  // plus the sorted ids of the shard's stop features, whose posting rows
  // are empty.
  //
  // The loaded container is the immutable *base*. AddRecord/AddBatch
  // write a *delta*: features the dictionary lacks get ids after the
  // base's, and each shard keeps, per feature id it touched, the records
  // added since, the df they add and a stop flag that starts from the
  // base's. A fresh index is an empty base with everything in the delta.

  /// The mapped base segment. Every span points into `file`.
  struct Base {
    struct ShardCsr {
      std::span<const uint32_t> offsets;  // num_features + 1
      std::span<const uint32_t> ids;
      std::span<const uint32_t> stops;  // ascending feature ids
    };
    std::shared_ptr<const io::EmxmReader> file;
    std::span<const char> keys;
    std::span<const uint32_t> key_offsets;  // num_features + 1
    std::span<const uint32_t> df;           // num_features
    std::vector<ShardCsr> shards;

    uint32_t num_features() const { return static_cast<uint32_t>(df.size()); }
    std::string_view Key(uint32_t f) const;
    /// The feature id of `key`, or -1.
    int64_t Find(std::string_view key) const;
    std::span<const uint32_t> Postings(int64_t shard, int64_t f) const;
    bool Stopped(int64_t shard, uint32_t f) const;
  };
  /// One shard's view of one feature since the base.
  struct DeltaList {
    int64_t df = 0;  // records added since the base
    bool stopped = false;
    std::vector<uint32_t> ids;
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<uint32_t, DeltaList> delta;
    int64_t live = 0;   // features with postings
    int64_t stops = 0;  // stop features
    uint64_t end_id = 0;  // one past the highest record id in the shard
  };
  /// Ids of the features the base dictionary lacks, striped by key hash
  /// so parallel ingest tasks rarely wait on one another.
  struct Extra {
    struct Stripe {
      mutable std::shared_mutex mu;
      std::unordered_map<std::string, uint32_t> ids;
    };
    std::array<Stripe, 16> stripes;
    std::atomic<uint32_t> count{0};
    Stripe& Of(std::string_view key);
  };
  int64_t per_shard_cap() const;
  /// Feature ids of `text`, adding the features no id names yet.
  std::vector<uint32_t> Intern(std::string_view text);
  /// Inserts `id`'s features into its shard. Caller must not hold locks.
  void Insert(int64_t id, const std::vector<uint32_t>& features);
  /// Save with `add_sections` run after the index's sections (the catalog
  /// adds its texts); payloads it adds must outlive the call.
  Status Save(const std::string& path,
              const std::function<Status(io::EmxmWriter*)>& add_sections)
      const;
  /// Serves the "ridx:" sections of `file` after checking all of them.
  static Result<QGramIndex> FromFile(
      std::shared_ptr<const io::EmxmReader> file);

  IndexOptions options_;
  Base base_;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<Extra> extra_;
  std::atomic<int64_t> next_id_{0};
};

}  // namespace retrieval
}  // namespace emx

#endif  // EMX_RETRIEVAL_QGRAM_INDEX_H_
