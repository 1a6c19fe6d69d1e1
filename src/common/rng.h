// Deterministic random number generation. Every stochastic component in the
// reproduction (ads generator, query-log generator, appraiser model, Random
// ranker) takes an Rng so experiments replay bit-for-bit from a seed.
//
// Thread-safety: an Rng is mutable single-owner state — never share one
// across threads. There are deliberately no global generators in the
// library: datagen/eval code receives an Rng from its caller, and the ask
// path draws no random numbers at all. Concurrent components that need
// independent streams should Fork() one child per thread or per request up
// front, then hand each child to exactly one owner.
#ifndef CQADS_COMMON_RNG_H_
#define CQADS_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace cqads {

/// Seeded pseudo-random generator wrapping std::mt19937_64 with the handful
/// of draw shapes the library needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Normal draw.
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Index drawn proportionally to non-negative weights. Requires a
  /// non-empty weight vector with positive total mass.
  std::size_t WeightedIndex(const std::vector<double>& weights) {
    std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
    return d(engine_);
  }

  /// Uniform index into a container of the given size. Requires size > 0.
  std::size_t UniformIndex(std::size_t size) {
    return static_cast<std::size_t>(
        UniformInt(0, static_cast<std::int64_t>(size) - 1));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = UniformIndex(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Forks a child generator whose stream is independent of subsequent draws
  /// from this one (useful to decorrelate per-record generation).
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cqads

#endif  // CQADS_COMMON_RNG_H_
