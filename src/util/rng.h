#ifndef EMX_UTIL_RNG_H_
#define EMX_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace emx {

/// Deterministic 64-bit pseudo-random generator (splitmix64-seeded
/// xoshiro256**). Every stochastic component of the library draws from an
/// explicitly seeded Rng so that experiments are exactly reproducible;
/// nothing reads global entropy.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  /// Re-seeds the generator; identical seeds yield identical streams.
  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). Pre-condition: bound > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Pre-condition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform float in [lo, hi).
  float NextFloat(float lo, float hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Bernoulli trial with probability p of returning true. For the data
  /// generators; dropout masks use the hash of tensor/kernel_math.h.
  bool NextBernoulli(double p);

  /// Samples an index according to non-negative weights (need not be
  /// normalized). Returns weights.size()-1 if all weights are zero.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffles the given indices/items in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = NextUint64(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Returns a permutation of [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Forks an independent stream (for per-worker determinism).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace emx

#endif  // EMX_UTIL_RNG_H_
