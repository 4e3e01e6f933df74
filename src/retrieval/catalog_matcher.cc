#include "retrieval/catalog_matcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <utility>

#include "io/atomic_file.h"
#include "obs/trace.h"

namespace emx {
namespace retrieval {
namespace {

constexpr char kMagic[8] = {'E', 'M', 'X', 'C', 'A', 'T', '0', '1'};

void WriteI64(std::ostream& out, int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadI64(std::istream& in, int64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool MatchOrder(const CatalogMatch& a, const CatalogMatch& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  if (a.retrieval_score != b.retrieval_score) {
    return a.retrieval_score > b.retrieval_score;
  }
  return a.id < b.id;
}

}  // namespace

CatalogMatcher::CatalogMatcher(serve::MatcherEngine* engine,
                               CatalogOptions options)
    : engine_(engine), options_(options), index_(options.index) {
  queries_ = registry_.GetCounter("catalog.queries");
  records_ = registry_.GetCounter("catalog.records");
  rerank_failures_ = registry_.GetCounter("catalog.rerank_failures");
  // 10µs .. ~5s decades cover an index probe through a deadline-bound
  // re-rank on a loaded engine.
  retrieve_us_ = registry_.GetHistogram(
      "catalog.retrieve_us", obs::ExponentialBuckets(10, 2, 20));
  rerank_us_ = registry_.GetHistogram("catalog.rerank_us",
                                      obs::ExponentialBuckets(10, 2, 20));
  candidates_ = registry_.GetHistogram(
      "catalog.candidates",
      obs::LinearBuckets(0, 8, static_cast<int>(options_.retrieve_k / 8) + 2));
}

int64_t CatalogMatcher::Add(std::string text) {
  int64_t id;
  {
    std::unique_lock<std::shared_mutex> lock(texts_mu_);
    id = index_.AddRecord(text);
    texts_.push_back(text);
    records_->Add(1);
  }
  WarmTexts({std::move(text)});
  return id;
}

int64_t CatalogMatcher::AddBatch(std::vector<std::string> texts) {
  int64_t base;
  {
    std::unique_lock<std::shared_mutex> lock(texts_mu_);
    base = index_.AddBatch(texts);
    records_->Add(static_cast<int64_t>(texts.size()));
    texts_.reserve(texts_.size() + texts.size());
    for (const std::string& t : texts) texts_.push_back(t);
  }
  WarmTexts(texts);
  return base;
}

void CatalogMatcher::WarmTexts(const std::vector<std::string>& texts) {
  if (options_.warm_query_segment_len <= 0 || !engine_->split_enabled()) {
    return;
  }
  EMX_TRACE_SPAN("catalog.warm", [&] {
    return obs::KeyValues({{"records", static_cast<int64_t>(texts.size())}});
  });
  for (const std::string& t : texts) {
    engine_->WarmCandidate(t, options_.warm_query_segment_len);
  }
}

int64_t CatalogMatcher::size() const {
  std::shared_lock<std::shared_mutex> lock(texts_mu_);
  return static_cast<int64_t>(texts_.size());
}

std::string CatalogMatcher::Text(int64_t id) const {
  std::shared_lock<std::shared_mutex> lock(texts_mu_);
  if (id < 0 || id >= static_cast<int64_t>(texts_.size())) return "";
  return texts_[static_cast<size_t>(id)];
}

Result<std::vector<CatalogMatch>> CatalogMatcher::FindMatches(
    std::string_view query) {
  queries_->Add(1);

  std::vector<ScoredId> cands;
  {
    EMX_TRACE_SPAN("catalog.retrieve");
    const auto start = std::chrono::steady_clock::now();
    cands = index_.TopK(query, options_.retrieve_k);
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    retrieve_us_->Record(us);
  }
  candidates_->Record(static_cast<double>(cands.size()));
  if (cands.empty()) return std::vector<CatalogMatch>{};

  const int64_t rerank =
      std::min<int64_t>(options_.rerank_k, static_cast<int64_t>(cands.size()));

  std::vector<CatalogMatch> matches;
  Status first_error = Status::OK();
  {
    EMX_TRACE_SPAN("catalog.rerank", [&] {
      return obs::KeyValues(
          {{"candidates", static_cast<int64_t>(cands.size())},
           {"rerank", rerank}});
    });
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::future<serve::MatchResult>> futures;
    futures.reserve(static_cast<size_t>(rerank));
    // Pin the query once: it is tokenized a single time and, on a
    // split-serving engine, its layer-k prefix is encoded once per
    // truncation length instead of once per candidate.
    const serve::PinnedQuery pinned = engine_->PinQuery(std::string(query));
    // One snapshot of the candidate texts, under one shared lock, feeds both
    // the submissions and the returned matches.
    std::vector<std::string> texts(static_cast<size_t>(rerank));
    {
      std::shared_lock<std::shared_mutex> lock(texts_mu_);
      for (int64_t i = 0; i < rerank; ++i) {
        const int64_t id = cands[static_cast<size_t>(i)].id;
        if (id >= 0 && id < static_cast<int64_t>(texts_.size())) {
          texts[static_cast<size_t>(i)] = texts_[static_cast<size_t>(id)];
        }
      }
    }
    for (int64_t i = 0; i < rerank; ++i) {
      futures.push_back(engine_->SubmitAgainst(
          pinned, texts[static_cast<size_t>(i)], options_.rerank_timeout_us));
    }
    for (int64_t i = 0; i < rerank; ++i) {
      serve::MatchResult r = futures[static_cast<size_t>(i)].get();
      if (!r.status.ok()) {
        rerank_failures_->Add(1);
        if (first_error.ok()) first_error = r.status;
        continue;
      }
      CatalogMatch m;
      m.id = cands[static_cast<size_t>(i)].id;
      m.text = std::move(texts[static_cast<size_t>(i)]);
      m.retrieval_score = cands[static_cast<size_t>(i)].score;
      m.probability = r.probability;
      m.is_match = r.is_match;
      matches.push_back(std::move(m));
    }
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    rerank_us_->Record(us);
  }
  if (matches.empty() && !first_error.ok()) return first_error;

  std::sort(matches.begin(), matches.end(), MatchOrder);
  if (static_cast<int64_t>(matches.size()) > options_.top_k) {
    matches.resize(static_cast<size_t>(options_.top_k));
  }
  return matches;
}

Status CatalogMatcher::Save(const std::string& path) const {
  io::AtomicFileWriter writer(path);
  EMX_RETURN_IF_ERROR(writer.status());
  std::ofstream& out = writer.stream();
  std::shared_lock<std::shared_mutex> lock(texts_mu_);
  out.write(kMagic, sizeof(kMagic));
  WriteI64(out, static_cast<int64_t>(texts_.size()));
  for (const std::string& t : texts_) {
    WriteI64(out, static_cast<int64_t>(t.size()));
    out.write(t.data(), static_cast<std::streamsize>(t.size()));
  }
  EMX_RETURN_IF_ERROR(index_.SaveTo(out));
  return writer.Commit();
}

Result<std::unique_ptr<CatalogMatcher>> CatalogMatcher::Load(
    const std::string& path, serve::MatcherEngine* engine,
    CatalogOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an EMXCAT01 catalog file");
  }
  int64_t num_texts = 0;
  if (!ReadI64(in, &num_texts) || num_texts < 0) {
    return Status::IoError("truncated catalog header");
  }
  // Each text carries at least its 8-byte length; `left` bounds every
  // count and length before it sizes an allocation.
  uint64_t left = BytesLeft(in);
  if (static_cast<uint64_t>(num_texts) > left / sizeof(int64_t)) {
    return Status::InvalidArgument("catalog text count exceeds file size");
  }
  std::vector<std::string> texts;
  texts.reserve(static_cast<size_t>(num_texts));
  for (int64_t i = 0; i < num_texts; ++i) {
    int64_t len = 0;
    if (!ReadI64(in, &len)) return Status::IoError("truncated catalog text");
    left -= sizeof(len);
    if (len < 0 || static_cast<uint64_t>(len) > left) {
      return Status::InvalidArgument("corrupt catalog text length");
    }
    std::string t(static_cast<size_t>(len), '\0');
    in.read(t.data(), len);
    if (!in.good()) return Status::IoError("truncated catalog text");
    left -= static_cast<uint64_t>(len);
    texts.push_back(std::move(t));
  }
  auto index = QGramIndex::LoadFrom(in);
  if (!index.ok()) return index.status();
  if (index.value().size() != num_texts) {
    return Status::InvalidArgument("catalog text/index size mismatch");
  }
  options.index = index.value().options();
  auto matcher = std::make_unique<CatalogMatcher>(engine, options);
  matcher->index_ = std::move(index).value();
  matcher->texts_ = std::move(texts);
  matcher->records_->Add(num_texts);
  return matcher;
}

}  // namespace retrieval
}  // namespace emx
