#include "retrieval/qgram_index.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_set>

#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace emx {
namespace retrieval {
namespace {

constexpr char kMetaSection[] = "ridx:meta";
constexpr char kKeysSection[] = "ridx:keys";
constexpr char kKeyOffsetsSection[] = "ridx:key_offsets";
constexpr char kDfSection[] = "ridx:df";

std::string ShardSection(int64_t shard, const char* what) {
  return "ridx:shard" + std::to_string(shard) + ":" + what;
}

// Ingest batches are chunked so AddBatch never materializes the feature
// lists of more than this many records at once (a million-record batch
// would otherwise hold ~10 GB of transient feature strings).
constexpr int64_t kIngestChunk = 4096;

Status Corrupt(const io::EmxmReader& file, const std::string& what) {
  return Status::InvalidArgument("retrieval index " + file.path() + ": " +
                                 what);
}

/// Every id is a record below `next_id` of shard `shard` of `shards`;
/// `*end_id` gets one past the highest.
bool PostingsInShard(std::span<const uint32_t> ids, uint64_t next_id,
                     uint32_t shards, uint32_t shard, uint64_t* end_id) {
  bool bad = false;
  uint32_t high = 0;
  if (std::has_single_bit(shards)) {
    const uint32_t mask = shards - 1;
    for (uint32_t id : ids) {
      bad |= (id & mask) != shard;
      high = std::max(high, id);
    }
  } else {
    for (uint32_t id : ids) {
      bad |= id % shards != shard;
      high = std::max(high, id);
    }
  }
  *end_id = ids.empty() ? 0 : uint64_t{high} + 1;
  return !bad && *end_id <= next_id;
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

QGramIndex::QGramIndex(IndexOptions options)
    : options_(options), extra_(std::make_unique<Extra>()) {
  options_.num_shards = std::max<int64_t>(1, options_.num_shards);
  options_.qgram = std::max<int64_t>(0, options_.qgram);
  options_.max_postings = std::max<int64_t>(1, options_.max_postings);
  shards_ = std::make_unique<Shard[]>(static_cast<size_t>(options_.num_shards));
}

QGramIndex::QGramIndex(QGramIndex&& other) noexcept
    : options_(other.options_),
      base_(std::move(other.base_)),
      shards_(std::move(other.shards_)),
      extra_(std::move(other.extra_)) {
  next_id_.store(other.next_id_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

QGramIndex& QGramIndex::operator=(QGramIndex&& other) noexcept {
  options_ = other.options_;
  base_ = std::move(other.base_);
  shards_ = std::move(other.shards_);
  extra_ = std::move(other.extra_);
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

std::string_view QGramIndex::Base::Key(uint32_t f) const {
  return {keys.data() + key_offsets[f], key_offsets[f + 1] - key_offsets[f]};
}

int64_t QGramIndex::Base::Find(std::string_view key) const {
  // Feature ids are key ranks. Load does not check that the keys are
  // sorted: a hand-written search keeps an unsorted (hostile) dictionary
  // to wrong ids, where std::lower_bound's precondition would not.
  uint32_t lo = 0, hi = num_features();
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (Key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < num_features() && Key(lo) == key ? int64_t{lo} : -1;
}

std::span<const uint32_t> QGramIndex::Base::Postings(int64_t shard,
                                                     int64_t f) const {
  if (f >= static_cast<int64_t>(df.size())) return {};
  const ShardCsr& csr = shards[static_cast<size_t>(shard)];
  const auto row = static_cast<size_t>(f);
  return csr.ids.subspan(csr.offsets[row],
                         csr.offsets[row + 1] - csr.offsets[row]);
}

bool QGramIndex::Base::Stopped(int64_t shard, uint32_t f) const {
  if (f >= df.size()) return false;
  const auto& stops = shards[static_cast<size_t>(shard)].stops;
  return std::binary_search(stops.begin(), stops.end(), f);
}

QGramIndex::Extra::Stripe& QGramIndex::Extra::Of(std::string_view key) {
  return stripes[std::hash<std::string_view>{}(key) % stripes.size()];
}

std::vector<uint32_t> QGramIndex::Intern(std::string_view text) {
  std::vector<std::string> features = Features(text);
  std::vector<uint32_t> ids(features.size());
  for (size_t i = 0; i < features.size(); ++i) {
    if (const int64_t f = base_.Find(features[i]); f >= 0) {
      ids[i] = static_cast<uint32_t>(f);
      continue;
    }
    Extra::Stripe& stripe = extra_->Of(features[i]);
    std::unique_lock<std::shared_mutex> lock(stripe.mu);
    auto [it, added] = stripe.ids.try_emplace(std::move(features[i]), 0);
    if (added) {
      it->second = base_.num_features() +
                   extra_->count.fetch_add(1, std::memory_order_relaxed);
    }
    ids[i] = it->second;
  }
  return ids;
}

void QGramIndex::Insert(int64_t id, const std::vector<uint32_t>& features) {
  const int64_t s = id % options_.num_shards;
  Shard& shard = shards_[static_cast<size_t>(s)];
  const int64_t cap = per_shard_cap();
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  shard.end_id = std::max(shard.end_id, static_cast<uint64_t>(id) + 1);
  for (uint32_t f : features) {
    auto [it, fresh] = shard.delta.try_emplace(f);
    DeltaList& list = it->second;
    if (fresh) list.stopped = base_.Stopped(s, f);
    ++list.df;
    if (list.stopped) continue;
    // The shard's df: the base's postings (kept until the cap) plus the
    // records added since.
    const auto base = static_cast<int64_t>(base_.Postings(s, f).size());
    if (base + list.df > cap) {
      // Crossed the cap: demote to a stop feature and free its postings
      // (the base's are skipped from now on).
      list.stopped = true;
      ++shard.stops;
      --shard.live;
      list.ids.clear();
      list.ids.shrink_to_fit();
      continue;
    }
    if (base == 0 && list.ids.empty()) ++shard.live;
    list.ids.push_back(static_cast<uint32_t>(id));
  }
}

int64_t QGramIndex::AddRecord(std::string_view text) {
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Insert(id, Intern(text));
  return id;
}

int64_t QGramIndex::AddBatch(const std::vector<std::string>& texts) {
  const int64_t n = static_cast<int64_t>(texts.size());
  const int64_t base = next_id_.fetch_add(n, std::memory_order_relaxed);
  std::vector<std::vector<uint32_t>> features(
      static_cast<size_t>(std::min(n, kIngestChunk)));
  for (int64_t chunk = 0; chunk < n; chunk += kIngestChunk) {
    const int64_t end = std::min(n, chunk + kIngestChunk);
    {
      EMX_TRACE_SPAN("retrieval.extract");
      ParallelFor(end - chunk, 64, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          features[static_cast<size_t>(i)] =
              Intern(texts[static_cast<size_t>(chunk + i)]);
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
    total += shard.live;
  }
  return total;
}

int64_t QGramIndex::num_stop_features() const {
  int64_t total = 0;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.stops;
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

  // Pass 1: each feature resolves to its id once (-1: no record has it),
  // and its global document frequency — the base's plus what each shard
  // added since — fixes one idf weight per feature, so candidates in
  // different shards are scored on the same scale.
  std::vector<int64_t> ids(features.size(), -1);
  std::vector<double> weights(features.size(), 0);
  {
    EMX_TRACE_SPAN("retrieval.weights");
    std::vector<int64_t> df(features.size(), 0);
    for (size_t i = 0; i < features.size(); ++i) {
      ids[i] = base_.Find(features[i]);
      if (ids[i] >= 0) {
        df[i] = base_.df[static_cast<size_t>(ids[i])];
        continue;
      }
      const Extra::Stripe& stripe = extra_->Of(features[i]);
      std::shared_lock<std::shared_mutex> lock(stripe.mu);
      if (auto it = stripe.ids.find(features[i]); it != stripe.ids.end()) {
        ids[i] = it->second;
      }
    }
    for (int64_t s = 0; s < options_.num_shards; ++s) {
      Shard& shard = shards_[static_cast<size_t>(s)];
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      if (shard.delta.empty()) continue;
      for (size_t i = 0; i < features.size(); ++i) {
        if (ids[i] < 0) continue;
        auto it = shard.delta.find(static_cast<uint32_t>(ids[i]));
        if (it != shard.delta.end()) df[i] += it->second.df;
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
        auto accumulate = [&](std::span<const uint32_t> postings, double w) {
          if (closed) {
            for (uint32_t id : postings) {
              double& score = acc[id / ns];
              if (score != 0) score += w;
            }
          } else {
            for (uint32_t id : postings) {
              const uint32_t l = id / ns;
              double& score = acc[l];
              if (score == 0) touched.push_back(l);
              score += w;
              max_score = std::max(max_score, score);
            }
          }
        };
        {
          std::shared_lock<std::shared_mutex> lock(shard.mu);
          // Sized under the lock by the highest id the shard holds:
          // postings may hold ids newer than `n`, and a loaded record
          // count bounds nothing (records may have no features).
          const size_t slots = static_cast<size_t>(shard.end_id / ns + 1);
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
            if (ids[i] < 0) continue;
            const DeltaList* delta = nullptr;
            if (!shard.delta.empty()) {
              auto it = shard.delta.find(static_cast<uint32_t>(ids[i]));
              if (it != shard.delta.end()) delta = &it->second;
            }
            // A stop feature's base row is empty; one stopped since the
            // base is skipped here.
            if (delta != nullptr && delta->stopped) continue;
            accumulate(base_.Postings(s, ids[i]), weights[i]);
            if (delta != nullptr) accumulate(delta->ids, weights[i]);
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

Status QGramIndex::Save(const std::string& path) const {
  return Save(path, [](io::EmxmWriter*) { return Status::OK(); });
}

Status QGramIndex::Save(
    const std::string& path,
    const std::function<Status(io::EmxmWriter*)>& add_sections) const {
  // Reader-lock every shard and the dictionary: a save is a consistent
  // snapshot, not a racing reader.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    locks.emplace_back(shards_[static_cast<size_t>(s)].mu);
  }
  for (const Extra::Stripe& stripe : extra_->stripes) {
    locks.emplace_back(stripe.mu);
  }
  const uint32_t num_base = base_.num_features();
  std::vector<std::string_view> keys(num_base + extra_->count.load());
  std::vector<uint64_t> df(keys.size(), 0);
  for (uint32_t f = 0; f < num_base; ++f) {
    keys[f] = base_.Key(f);
    df[f] = base_.df[f];
  }
  for (const Extra::Stripe& stripe : extra_->stripes) {
    for (const auto& [key, f] : stripe.ids) keys[f] = key;
  }
  for (int64_t s = 0; s < options_.num_shards; ++s) {
    for (const auto& [f, list] : shards_[static_cast<size_t>(s)].delta) {
      df[f] += static_cast<uint64_t>(list.df);
    }
  }
  // Saved order: every feature a record holds, keys in byte order.
  std::vector<uint32_t> order;
  for (uint32_t f = 0; f < keys.size(); ++f) {
    if (df[f] > 0) order.push_back(f);
  }
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });

  const uint64_t n = order.size();
  std::string key_bytes;
  std::vector<uint32_t> key_offsets{0}, saved_df;
  for (uint32_t old : order) {
    key_bytes += keys[old];
    key_offsets.push_back(static_cast<uint32_t>(key_bytes.size()));
    saved_df.push_back(static_cast<uint32_t>(df[old]));
  }
  constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  bool too_large = n >= kMaxU32 || key_bytes.size() > kMaxU32;

  // Per shard, each saved feature's row: the base's postings and the
  // delta's, or none for a stop feature.
  const auto ns = static_cast<size_t>(options_.num_shards);
  std::vector<std::vector<uint32_t>> offsets(ns), ids(ns), stops(ns);
  for (size_t s = 0; s < ns; ++s) {
    const auto& delta = shards_[s].delta;
    offsets[s].push_back(0);
    for (uint32_t f = 0; f < n; ++f) {
      const auto it = delta.find(order[f]);
      const DeltaList* list = it == delta.end() ? nullptr : &it->second;
      if (list != nullptr ? list->stopped : base_.Stopped(s, order[f])) {
        stops[s].push_back(f);
      } else {
        const std::span<const uint32_t> base = base_.Postings(s, order[f]);
        ids[s].insert(ids[s].end(), base.begin(), base.end());
        if (list != nullptr) {
          ids[s].insert(ids[s].end(), list->ids.begin(), list->ids.end());
        }
      }
      offsets[s].push_back(static_cast<uint32_t>(ids[s].size()));
    }
    too_large |= ids[s].size() > kMaxU32;
  }
  if (too_large) {
    return Status::InvalidArgument(
        "index too large to save: a count exceeds 32 bits");
  }

  io::EmxmWriter writer;
  auto add = [&](std::string name, const std::vector<uint32_t>& v) {
    writer.AddSection(std::move(name), io::SectionKind::kU32Vec,
                      {v.size(), 0, 0, 0, 0, 0}, v.data(),
                      v.size() * sizeof(uint32_t));
  };
  writer.AddSection(kMetaSection, io::SectionKind::kIndexMeta,
                    {static_cast<uint64_t>(options_.qgram),
                     options_.index_tokens ? 1u : 0u,
                     static_cast<uint64_t>(options_.max_postings), ns,
                     static_cast<uint64_t>(size()), n},
                    nullptr, 0);
  writer.AddSection(kKeysSection, io::SectionKind::kBytes,
                    {key_bytes.size(), 0, 0, 0, 0, 0}, key_bytes.data(),
                    key_bytes.size());
  add(kKeyOffsetsSection, key_offsets);
  add(kDfSection, saved_df);
  for (size_t s = 0; s < ns; ++s) {
    add(ShardSection(static_cast<int64_t>(s), "offsets"), offsets[s]);
    add(ShardSection(static_cast<int64_t>(s), "ids"), ids[s]);
    add(ShardSection(static_cast<int64_t>(s), "stops"), stops[s]);
  }
  EMX_RETURN_IF_ERROR(add_sections(&writer));
  return writer.WriteFile(path);
}

Result<QGramIndex> QGramIndex::FromFile(
    std::shared_ptr<const io::EmxmReader> file) {
  const io::Section* meta = file->Find(kMetaSection);
  if (meta == nullptr || meta->kind != io::SectionKind::kIndexMeta) {
    return Corrupt(*file, "no index header");
  }
  // Posting ids are u32 and TopK sizes its accumulators by next_id.
  const auto& m = meta->aux;
  constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  if (m[0] > (1u << 16) || m[1] > 1 || m[2] < 1 || m[2] > (1ull << 62) ||
      m[3] < 1 || m[3] > (1u << 16) || m[4] > kMaxU32 || m[5] >= kMaxU32) {
    return Corrupt(*file, "corrupt index header");
  }
  IndexOptions options;
  options.qgram = static_cast<int64_t>(m[0]);
  options.index_tokens = m[1] != 0;
  options.max_postings = static_cast<int64_t>(m[2]);
  options.num_shards = static_cast<int64_t>(m[3]);
  const uint64_t next_id = m[4], num_features = m[5];
  QGramIndex index(options);
  Base& base = index.base_;
  auto u32s = [&](const std::string& name,
                  uint64_t count = io::EmxmReader::kAnyCount) {
    return file->View<uint32_t>(name, io::SectionKind::kU32Vec, count);
  };

  EMX_ASSIGN_OR_RETURN(base.keys,
                       file->View<char>(kKeysSection, io::SectionKind::kBytes));
  EMX_ASSIGN_OR_RETURN(base.key_offsets,
                       u32s(kKeyOffsetsSection, num_features + 1));
  EMX_ASSIGN_OR_RETURN(base.df, u32s(kDfSection, num_features));
  if (!io::ValidOffsets(base.key_offsets, base.keys.size())) {
    return Corrupt(*file, "feature key offsets out of range");
  }
  bool bad = false;
  for (uint32_t df : base.df) bad |= df == 0 || df > next_id;
  if (bad) return Corrupt(*file, "document frequency out of range");

  const auto ns = static_cast<uint32_t>(options.num_shards);
  base.shards.resize(ns);
  for (uint32_t s = 0; s < ns; ++s) {
    Base::ShardCsr& csr = base.shards[s];
    Shard& shard = index.shards_[s];
    EMX_ASSIGN_OR_RETURN(csr.ids, u32s(ShardSection(s, "ids")));
    EMX_ASSIGN_OR_RETURN(csr.offsets,
                         u32s(ShardSection(s, "offsets"), num_features + 1));
    EMX_ASSIGN_OR_RETURN(csr.stops, u32s(ShardSection(s, "stops")));
    // TopK indexes its per-shard accumulator by id / num_shards: every
    // posting must be a record of this shard that the header counts. A
    // stop feature has no postings.
    bad = !io::ValidOffsets(csr.offsets, csr.ids.size(), &shard.live) ||
          !PostingsInShard(csr.ids, next_id, ns, s, &shard.end_id);
    for (size_t i = 0; i < csr.stops.size() && !bad; ++i) {
      const uint32_t f = csr.stops[i];
      bad = f >= num_features || (i > 0 && f <= csr.stops[i - 1]) ||
            csr.offsets[f] != csr.offsets[f + 1];
    }
    if (bad) {
      return Corrupt(*file, "corrupt postings in shard " + std::to_string(s));
    }
    shard.stops = static_cast<int64_t>(csr.stops.size());
  }
  base.file = std::move(file);
  index.next_id_.store(static_cast<int64_t>(next_id),
                       std::memory_order_relaxed);
  return index;
}

Result<QGramIndex> QGramIndex::Load(const std::string& path) {
  EMX_ASSIGN_OR_RETURN(std::shared_ptr<const io::EmxmReader> file,
                       io::EmxmReader::Open(path));
  return FromFile(std::move(file));
}

}  // namespace retrieval
}  // namespace emx
