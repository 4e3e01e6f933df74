#include "retrieval/qgram_index.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <unordered_set>

#include "io/atomic_file.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace emx {
namespace retrieval {
namespace {

constexpr char kMagic[8] = {'E', 'M', 'X', 'R', 'I', 'D', 'X', '1'};

// Ingest batches are chunked so AddBatch never materializes the feature
// lists of more than this many records at once (a million-record batch
// would otherwise hold ~10 GB of transient feature strings).
constexpr int64_t kIngestChunk = 4096;

void WriteI64(std::ostream& out, int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadI64(std::istream& in, int64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

/// Idf weight of a feature seen in `df` of `n` records. The +1 smoothing
/// keeps unseen features finite and df = n features positive.
double IdfWeight(int64_t n, int64_t df) {
  return std::log(1.0 + static_cast<double>(n) /
                            (1.0 + static_cast<double>(df)));
}

bool ScoreOrder(const ScoredId& a, const ScoredId& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

}  // namespace

QGramIndex::QGramIndex(IndexOptions options) : options_(options) {
  options_.num_shards = std::max<int64_t>(1, options_.num_shards);
  options_.qgram = std::max<int64_t>(0, options_.qgram);
  options_.max_postings = std::max<int64_t>(1, options_.max_postings);
  shards_ = std::make_unique<Shard[]>(static_cast<size_t>(options_.num_shards));
}

QGramIndex::QGramIndex(QGramIndex&& other) noexcept
    : options_(other.options_), shards_(std::move(other.shards_)) {
  next_id_.store(other.next_id_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

QGramIndex& QGramIndex::operator=(QGramIndex&& other) noexcept {
  options_ = other.options_;
  shards_ = std::move(other.shards_);
  next_id_.store(other.next_id_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  return *this;
}

QGramIndex::~QGramIndex() = default;

int64_t QGramIndex::per_shard_cap() const {
  return std::max<int64_t>(1, options_.max_postings / options_.num_shards);
}

namespace {

std::string StripNonAlnum(const std::string& token) {
  std::string out;
  out.reserve(token.size());
  for (char c : token) {
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

}  // namespace

std::vector<std::string> QGramIndex::Features(std::string_view text) const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  auto emit = [&](std::string f) {
    if (seen.insert(f).second) out.push_back(std::move(f));
  };
  const std::string lowered = ToLower(text);
  const std::vector<std::string> tokens = SplitWhitespace(lowered);
  for (size_t t = 0; t < tokens.size(); ++t) {
    const std::string& token = tokens[t];
    if (options_.index_tokens) {
      emit(token);
      // Punctuation-stripped alias: "zx-55" and "zx55" become the same
      // rare exact-token feature, which q-grams alone cannot guarantee.
      std::string alnum = StripNonAlnum(token);
      if (!alnum.empty() && alnum != token) emit(std::move(alnum));
      // Adjacent-token join: a model number split across tokens
      // ("zx 55") re-fuses to match the unsplit rendering's token.
      // Common-word joins cross the posting cap and stop out.
      if (t + 1 < tokens.size()) {
        std::string join = StripNonAlnum(token) + StripNonAlnum(tokens[t + 1]);
        if (!join.empty()) emit(std::move(join));
      }
    }
    if (options_.qgram > 0) {
      // Boundary-padded grams: "^zx55$" and "^zx-55$" share their edges.
      const std::string padded = "^" + token + "$";
      const size_t q = static_cast<size_t>(options_.qgram);
      if (padded.size() <= q) {
        emit(padded);
      } else {
        for (size_t i = 0; i + q <= padded.size(); ++i) {
          emit(padded.substr(i, q));
        }
      }
    }
  }
  return out;
}

void QGramIndex::Insert(int64_t id, const std::vector<std::string>& features) {
  Shard& shard = shards_[static_cast<size_t>(id % options_.num_shards)];
  const int64_t cap = per_shard_cap();
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  for (const std::string& f : features) {
    PostingList& pl = shard.features[f];
    ++pl.df;
    if (pl.stopped) continue;
    if (pl.df > cap) {
      // Crossed the cap: demote to a stop feature and free its postings.
      pl.stopped = true;
      ++shard.stop_count;
      pl.ids.clear();
      pl.ids.shrink_to_fit();
      continue;
    }
    pl.ids.push_back(static_cast<uint32_t>(id));
  }
}

int64_t QGramIndex::AddRecord(std::string_view text) {
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Insert(id, Features(text));
  return id;
}

int64_t QGramIndex::AddBatch(const std::vector<std::string>& texts) {
  const int64_t n = static_cast<int64_t>(texts.size());
  const int64_t base = next_id_.fetch_add(n, std::memory_order_relaxed);
  std::vector<std::vector<std::string>> features(
      static_cast<size_t>(std::min(n, kIngestChunk)));
  for (int64_t chunk = 0; chunk < n; chunk += kIngestChunk) {
    const int64_t end = std::min(n, chunk + kIngestChunk);
    {
      EMX_TRACE_SPAN("retrieval.extract");
      ParallelFor(end - chunk, 64, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          features[static_cast<size_t>(i)] =
              Features(texts[static_cast<size_t>(chunk + i)]);
        }
      });
    }
    EMX_TRACE_SPAN("retrieval.insert");
    // One task per shard: every record of the chunk belongs to exactly one
    // shard, so shard tasks touch disjoint state.
    ParallelFor(options_.num_shards, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        for (int64_t i = chunk; i < end; ++i) {
          if ((base + i) % options_.num_shards != s) continue;
          Insert(base + i, features[static_cast<size_t>(i - chunk)]);
        }
      }
    });
  }
  return base;
}

int64_t QGramIndex::size() const {
  return next_id_.load(std::memory_order_relaxed);
}

int64_t QGramIndex::num_features() const {
  int64_t total = 0;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.features.size()) - shard.stop_count;
  }
  return total;
}

int64_t QGramIndex::num_stop_features() const {
  int64_t total = 0;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.stop_count;
  }
  return total;
}

std::vector<ScoredId> QGramIndex::TopK(std::string_view query,
                                       int64_t k) const {
  const int64_t n = size();
  if (k <= 0 || n == 0) return {};
  std::vector<std::string> features;
  {
    EMX_TRACE_SPAN("retrieval.features");
    features = Features(query);
  }
  if (features.empty()) return {};

  // Pass 1: global document frequency per feature (summed across shards)
  // fixes one idf weight per feature, so candidates in different shards are
  // scored on the same scale.
  std::vector<double> weights(features.size(), 0);
  {
    EMX_TRACE_SPAN("retrieval.weights");
    std::vector<int64_t> df(features.size(), 0);
    for (int64_t s = 0; s < options_.num_shards; ++s) {
      Shard& shard = shards_[static_cast<size_t>(s)];
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      for (size_t i = 0; i < features.size(); ++i) {
        auto it = shard.features.find(features[i]);
        if (it != shard.features.end()) df[i] += it->second.df;
      }
    }
    for (size_t i = 0; i < features.size(); ++i) {
      weights[i] = IdfWeight(n, df[i]);
    }
  }

  // Max-score pruning bound: suffix[i] is the total idf weight of features
  // [i, end), i.e. the highest score a record first encountered at feature
  // i can still accumulate. Shared read-only across shard tasks.
  std::vector<double> suffix(features.size() + 1, 0.0);
  if (options_.prune_topk) {
    for (size_t i = features.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + weights[i];
    }
  }

  // Pass 2: per-shard accumulation and local top-k, shards in parallel.
  // Each candidate's score is summed in fixed feature order, so results do
  // not depend on the thread count.
  std::vector<std::vector<ScoredId>> per_shard(
      static_cast<size_t>(options_.num_shards));
  {
    EMX_TRACE_SPAN("retrieval.score", [&] {
      return obs::KeyValues({{"features",
                              static_cast<int64_t>(features.size())},
                             {"k", k}});
    });
    const uint32_t ns = static_cast<uint32_t>(options_.num_shards);
    ParallelFor(options_.num_shards, 1, [&](int64_t lo, int64_t hi) {
      // Dense accumulator over shard-local ids (shard s holds ids s, s+ns,
      // ..., so id / ns is dense), shared by this task's shards. A score of
      // 0 marks an untouched slot — every idf weight is > 0 — and only the
      // `touched` slots are reset between shards.
      std::vector<double> acc;
      std::vector<uint32_t> touched;
      for (int64_t s = lo; s < hi; ++s) {
        Shard& shard = shards_[static_cast<size_t>(s)];
        // Once `closed`, no NEW candidate ids are admitted; existing
        // accumulators keep updating, in the same feature order as the
        // unpruned path, so survivors score bit-identically.
        bool closed = false;
        double max_score = 0;
        {
          std::shared_lock<std::shared_mutex> lock(shard.mu);
          // Sized under the lock: postings may hold ids newer than `n`.
          const size_t slots = static_cast<size_t>(size() / ns + 1);
          if (acc.size() < slots) acc.resize(slots, 0.0);
          for (size_t i = 0; i < features.size(); ++i) {
            const double bound = suffix[i] * (1.0 + 1e-9);
            if (options_.prune_topk && !closed && max_score > bound &&
                static_cast<int64_t>(touched.size()) >= k) {
              // Close once k partial scores exceed the bound. Partials only
              // grow, so the k-th best partial lower-bounds the final k-th
              // best. A record unseen so far finishes at most at suffix[i]
              // (a subset of the remaining weights); the relative margin
              // absorbs floating-point rounding between the subset sum and
              // the suffix sum, keeping the strict comparison safe. Then at
              // least k records beat every future first-timer. Counting
              // partials above the bound is the same test as comparing the
              // k-th best to it, without selecting it.
              int64_t above = 0;
              for (uint32_t l : touched) above += acc[l] > bound;
              if (above >= k) closed = true;
            }
            auto it = shard.features.find(features[i]);
            if (it == shard.features.end() || it->second.stopped) continue;
            const double w = weights[i];
            if (closed) {
              for (uint32_t id : it->second.ids) {
                double& score = acc[id / ns];
                if (score != 0) score += w;
              }
            } else {
              for (uint32_t id : it->second.ids) {
                const uint32_t l = id / ns;
                double& score = acc[l];
                if (score == 0) touched.push_back(l);
                score += w;
                max_score = std::max(max_score, score);
              }
            }
          }
        }
        std::vector<ScoredId>& local = per_shard[static_cast<size_t>(s)];
        local.reserve(touched.size());
        for (uint32_t l : touched) {
          local.push_back({static_cast<int64_t>(l) * ns + s, acc[l]});
          acc[l] = 0;
        }
        touched.clear();
        if (static_cast<int64_t>(local.size()) > k) {
          std::nth_element(local.begin(), local.begin() + k, local.end(),
                           ScoreOrder);
          local.resize(static_cast<size_t>(k));
        }
        std::sort(local.begin(), local.end(), ScoreOrder);
      }
    });
  }

  EMX_TRACE_SPAN("retrieval.merge");
  std::vector<ScoredId> merged;
  for (const auto& local : per_shard) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end(), ScoreOrder);
  if (static_cast<int64_t>(merged.size()) > k) {
    merged.resize(static_cast<size_t>(k));
  }
  return merged;
}

Status QGramIndex::SaveTo(std::ostream& out) const {
  // Writer-exclude every shard for the duration: a save is a consistent
  // snapshot, not a racing reader.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(static_cast<size_t>(options_.num_shards));
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    locks.emplace_back(shards_[static_cast<size_t>(s)].mu);
  }

  out.write(kMagic, sizeof(kMagic));
  WriteI64(out, options_.qgram);
  WriteI64(out, options_.index_tokens ? 1 : 0);
  WriteI64(out, options_.max_postings);
  WriteI64(out, options_.num_shards);
  WriteI64(out, next_id_.load(std::memory_order_relaxed));

  std::vector<const std::string*> keys;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    const Shard& shard = shards_[static_cast<size_t>(s)];
    WriteI64(out, static_cast<int64_t>(shard.features.size()));
    // Canonical order: identical index states serialize to identical bytes
    // regardless of hash-map iteration order.
    keys.clear();
    keys.reserve(shard.features.size());
    for (const auto& [key, pl] : shard.features) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    for (const std::string* key : keys) {
      const PostingList& pl = shard.features.at(*key);
      WriteI64(out, static_cast<int64_t>(key->size()));
      out.write(key->data(), static_cast<std::streamsize>(key->size()));
      WriteI64(out, pl.df);
      WriteI64(out, pl.stopped ? 1 : 0);
      WriteI64(out, static_cast<int64_t>(pl.ids.size()));
      out.write(reinterpret_cast<const char*>(pl.ids.data()),
                static_cast<std::streamsize>(pl.ids.size() * sizeof(uint32_t)));
    }
  }
  if (!out.good()) return Status::IoError("index serialization failed");
  return Status::OK();
}

Status QGramIndex::Save(const std::string& path) const {
  io::AtomicFileWriter writer(path);
  EMX_RETURN_IF_ERROR(writer.status());
  EMX_RETURN_IF_ERROR(SaveTo(writer.stream()));
  return writer.Commit();
}

Result<QGramIndex> QGramIndex::LoadFrom(std::istream& in) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an EMXRIDX1 index file");
  }
  // Every count below is checked against what is left of the stream
  // before it sizes a container; `left` follows each read.
  uint64_t left = BytesLeft(in);
  auto read_i64 = [&](int64_t* v) {
    if (!ReadI64(in, v)) return false;
    left -= sizeof(*v);
    return true;
  };
  IndexOptions options;
  int64_t index_tokens = 0, next_id = 0;
  if (!read_i64(&options.qgram) || !read_i64(&index_tokens) ||
      !read_i64(&options.max_postings) || !read_i64(&options.num_shards) ||
      !read_i64(&next_id)) {
    return Status::IoError("truncated index header");
  }
  options.index_tokens = index_tokens != 0;
  // Ids are stored as uint32, and TopK sizes its accumulators by next_id.
  if (options.num_shards <= 0 || options.num_shards > (1 << 20) ||
      next_id < 0 || next_id > (int64_t{1} << 32)) {
    return Status::InvalidArgument("corrupt index header");
  }
  // The smallest feature entry: key length, df, stopped flag, id count.
  constexpr uint64_t kMinFeatureBytes = 4 * sizeof(int64_t);
  QGramIndex index(options);
  index.next_id_.store(next_id, std::memory_order_relaxed);
  for (int64_t s = 0; s < options.num_shards; ++s) {
    Shard& shard = index.shards_[static_cast<size_t>(s)];
    int64_t num_features = 0;
    if (!read_i64(&num_features) || num_features < 0) {
      return Status::IoError("truncated shard header");
    }
    if (static_cast<uint64_t>(num_features) > left / kMinFeatureBytes) {
      return Status::InvalidArgument("feature count exceeds file size");
    }
    shard.features.reserve(static_cast<size_t>(num_features));
    for (int64_t f = 0; f < num_features; ++f) {
      int64_t key_len = 0;
      if (!read_i64(&key_len) || key_len < 0 ||
          static_cast<uint64_t>(key_len) > left) {
        return Status::InvalidArgument("corrupt feature key length");
      }
      std::string key(static_cast<size_t>(key_len), '\0');
      in.read(key.data(), key_len);
      left -= static_cast<uint64_t>(key_len);
      PostingList pl;
      int64_t stopped = 0, num_ids = 0;
      if (!read_i64(&pl.df) || !read_i64(&stopped) || !read_i64(&num_ids) ||
          num_ids < 0 || num_ids > next_id ||
          static_cast<uint64_t>(num_ids) > left / sizeof(uint32_t)) {
        return Status::InvalidArgument("corrupt posting list header");
      }
      pl.stopped = stopped != 0;
      if (pl.stopped) ++shard.stop_count;
      pl.ids.resize(static_cast<size_t>(num_ids));
      in.read(reinterpret_cast<char*>(pl.ids.data()),
              static_cast<std::streamsize>(pl.ids.size() * sizeof(uint32_t)));
      if (!in.good()) return Status::IoError("truncated posting list");
      left -= pl.ids.size() * sizeof(uint32_t);
      // TopK indexes its per-shard accumulator by id / num_shards: every
      // posting must be a record of this shard that the header counts.
      const auto ns = static_cast<uint32_t>(options.num_shards);
      for (uint32_t id : pl.ids) {
        if (id >= next_id || id % ns != s) {
          return Status::InvalidArgument("posting id outside its shard");
        }
      }
      shard.features.emplace(std::move(key), std::move(pl));
    }
  }
  return index;
}

Result<QGramIndex> QGramIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return LoadFrom(in);
}

uint64_t BytesLeft(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return here < 0 || end < here ? 0 : static_cast<uint64_t>(end - here);
}

}  // namespace retrieval
}  // namespace emx
