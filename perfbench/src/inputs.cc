#include "inputs.h"

#include <algorithm>
#include <unordered_set>

#include "data/generators.h"
#include "stats.h"

namespace perfbench {
namespace {

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

/// Distinct serialized left/right records of one generated dataset.
void CollectSides(emx::data::DatasetId id, uint64_t seed, double scale,
                  std::vector<std::string>* left,
                  std::vector<std::string>* right) {
  emx::data::GeneratorOptions gen;
  gen.seed = seed;
  gen.scale = scale;
  const emx::data::EmDataset ds = emx::data::GenerateDataset(id, gen);
  std::unordered_set<std::string> seen_l(left->begin(), left->end());
  std::unordered_set<std::string> seen_r(right->begin(), right->end());
  for (const auto* split : {&ds.train, &ds.valid, &ds.test}) {
    for (const auto& p : *split) {
      std::string a = ds.SerializeA(p);
      std::string b = ds.SerializeB(p);
      if (seen_l.insert(a).second) left->push_back(std::move(a));
      if (seen_r.insert(b).second) right->push_back(std::move(b));
    }
  }
}

}  // namespace

std::vector<TextPair> MakeDistinctPairs(uint64_t seed, int64_t n) {
  std::vector<std::string> left, right;
  CollectSides(emx::data::DatasetId::kWalmartAmazon, seed, 0.1, &left,
               &right);
  CollectSides(emx::data::DatasetId::kAbtBuy, seed ^ 0x5bd1e995ull, 0.1,
               &left, &right);
  SplitMix64 rng(seed);
  Shuffle(&left, &rng);
  Shuffle(&right, &rng);
  // Pair k = (left[i], right[(q + 7919 i) mod R]) with i = k mod L and
  // q = k div L: for a fixed left record every q gives a different right
  // record, so the first L * R pairs are pairwise distinct.
  const int64_t l = static_cast<int64_t>(left.size());
  const int64_t r = static_cast<int64_t>(right.size());
  n = std::min(n, l * r);
  std::vector<TextPair> pairs;
  pairs.reserve(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    const int64_t i = k % l;
    const int64_t j = (k / l + 7919 * i) % r;
    pairs.emplace_back(left[static_cast<size_t>(i)],
                       right[static_cast<size_t>(j)]);
  }
  return pairs;
}

std::vector<int64_t> MakeZipfQueryOrder(uint64_t seed, int64_t num_queries,
                                        int64_t n_ops, double s) {
  SplitMix64 rng(seed);
  const ZipfSampler zipf(num_queries, s);
  std::vector<int64_t> order;
  order.reserve(static_cast<size_t>(n_ops));
  for (int64_t k = 0; k < n_ops; ++k) order.push_back(zipf.Sample(&rng));
  return order;
}

std::vector<std::string> MakeNewCatalogRecords(uint64_t seed, int64_t n) {
  emx::data::CatalogSpec spec;
  spec.seed = seed;
  spec.num_records = n;
  spec.num_queries = 1;
  spec.siblings_per_query = 0;
  return emx::data::GenerateCatalog(spec).records;
}

emx::data::EmDataset MakeFineTuneDataset(uint64_t seed, int64_t train_pairs,
                                         int64_t test_pairs) {
  emx::data::GeneratorOptions gen;
  gen.seed = seed;
  // Walmart-Amazon at full size has 10242 pairs, 3:1:1 split.
  gen.scale = std::min(
      1.0, 1.25 * static_cast<double>(std::max(train_pairs * 5 / 3,
                                               test_pairs * 5)) /
               10242.0);
  emx::data::EmDataset ds = emx::data::GenerateDataset(
      emx::data::DatasetId::kWalmartAmazon, gen);
  if (static_cast<int64_t>(ds.train.size()) > train_pairs) {
    ds.train.resize(static_cast<size_t>(train_pairs));
  }
  if (static_cast<int64_t>(ds.test.size()) > test_pairs) {
    ds.test.resize(static_cast<size_t>(test_pairs));
  }
  ds.valid.clear();
  return ds;
}

}  // namespace perfbench
