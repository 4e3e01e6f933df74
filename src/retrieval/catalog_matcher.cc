#include "retrieval/catalog_matcher.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "io/emxm.h"
#include "obs/trace.h"

namespace emx {
namespace retrieval {
namespace {

constexpr char kTextOffsetsSection[] = "cat:text_offsets";
constexpr char kTextsSection[] = "cat:texts";

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
  return NumBaseTexts() + static_cast<int64_t>(texts_.size());
}

int64_t CatalogMatcher::NumBaseTexts() const {
  return std::max<int64_t>(0, static_cast<int64_t>(base_offsets_.size()) - 1);
}

std::string_view CatalogMatcher::TextLocked(int64_t id) const {
  const int64_t num_base = NumBaseTexts();
  if (id < 0) return {};
  if (id < num_base) {
    const uint64_t begin = base_offsets_[static_cast<size_t>(id)];
    return {base_texts_.data() + begin,
            base_offsets_[static_cast<size_t>(id) + 1] - begin};
  }
  const auto added = static_cast<size_t>(id - num_base);
  return added < texts_.size() ? std::string_view(texts_[added])
                               : std::string_view();
}

std::string CatalogMatcher::Text(int64_t id) const {
  std::shared_lock<std::shared_mutex> lock(texts_mu_);
  return std::string(TextLocked(id));
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
        texts[static_cast<size_t>(i)] =
            TextLocked(cands[static_cast<size_t>(i)].id);
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
  std::shared_lock<std::shared_mutex> lock(texts_mu_);
  std::string blob(base_texts_.begin(), base_texts_.end());
  std::vector<uint64_t> offsets(base_offsets_.begin(), base_offsets_.end());
  if (offsets.empty()) offsets.push_back(0);
  for (const std::string& t : texts_) {
    blob += t;
    offsets.push_back(blob.size());
  }
  return index_.Save(path, [&](io::EmxmWriter* writer) {
    writer->AddSection(kTextOffsetsSection, io::SectionKind::kU64Vec,
                       {offsets.size(), 0, 0, 0, 0, 0}, offsets.data(),
                       offsets.size() * sizeof(uint64_t));
    writer->AddSection(kTextsSection, io::SectionKind::kBytes,
                       {blob.size(), 0, 0, 0, 0, 0}, blob.data(), blob.size());
    return Status::OK();
  });
}

Result<std::unique_ptr<CatalogMatcher>> CatalogMatcher::Load(
    const std::string& path, serve::MatcherEngine* engine,
    CatalogOptions options) {
  EMX_ASSIGN_OR_RETURN(std::shared_ptr<const io::EmxmReader> file,
                       io::EmxmReader::Open(path));
  EMX_ASSIGN_OR_RETURN(QGramIndex index, QGramIndex::FromFile(file));
  const auto num_texts = static_cast<uint64_t>(index.size());
  EMX_ASSIGN_OR_RETURN(
      std::span<const uint64_t> offsets,
      file->View<uint64_t>(kTextOffsetsSection, io::SectionKind::kU64Vec,
                           num_texts + 1));
  EMX_ASSIGN_OR_RETURN(
      std::span<const char> texts,
      file->View<char>(kTextsSection, io::SectionKind::kBytes));
  if (!io::ValidOffsets(offsets, texts.size())) {
    return Status::InvalidArgument("catalog " + path +
                                   ": text offsets out of range");
  }
  options.index = index.options();
  auto matcher = std::make_unique<CatalogMatcher>(engine, options);
  matcher->index_ = std::move(index);
  matcher->base_offsets_ = offsets;
  matcher->base_texts_ = texts;
  matcher->records_->Add(static_cast<int64_t>(num_texts));
  return matcher;
}

}  // namespace retrieval
}  // namespace emx
