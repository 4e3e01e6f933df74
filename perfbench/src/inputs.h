#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation for the three workloads. The same seed always
// yields the same inputs; the program under test receives only these.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/record.h"

namespace perfbench {

using TextPair = std::pair<std::string, std::string>;

/// `n` pairwise-distinct serialized entity pairs in the Walmart-Amazon and
/// Abt-Buy styles: left and right records are drawn from both generated
/// datasets and combined so no (left, right) combination repeats, which
/// keeps the serving engine's pair tokenization cache cold.
std::vector<TextPair> MakeDistinctPairs(uint64_t seed, int64_t n);

/// The query index of each of `n_ops` catalog operations: query i has
/// Zipf(s) rank i. Popularity is a fixed property of the query set and the
/// seed draws only the sequence: with a seeded popularity order the ten
/// hottest queries (~40% of traffic at s = 1) changed with every seed, and
/// with them the cost of a run.
std::vector<int64_t> MakeZipfQueryOrder(uint64_t seed, int64_t num_queries,
                                        int64_t n_ops, double s);

/// `n` fresh catalog records (Amazon-style renderings of new products),
/// written beside the reads of the catalog workload.
std::vector<std::string> MakeNewCatalogRecords(uint64_t seed, int64_t n);

/// A Walmart-Amazon fine-tuning set with exactly `train_pairs` training
/// and `test_pairs` test pairs.
emx::data::EmDataset MakeFineTuneDataset(uint64_t seed, int64_t train_pairs,
                                         int64_t test_pairs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
