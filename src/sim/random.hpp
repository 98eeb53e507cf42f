// Deterministic random number generation.
//
// A single master seed fans out into independent named streams via fork(),
// so adding a new consumer never perturbs the draws seen by existing ones —
// essential for reproducible experiments.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string_view>

#include "sim/time.hpp"

namespace acute::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {}
  /// Seed 0: the placeholder of a member its owner's reset() assigns.
  Rng() : Rng(0) {}

  /// Derives an independent child stream keyed by `tag`.
  [[nodiscard]] Rng fork(std::string_view tag) const;

  /// Derives an independent child stream keyed by an integer tag.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal draw (mean mu, stddev sigma).
  double normal(double mu, double sigma);

  /// Normal draw truncated to [lo, hi] by resampling (max 64 tries, then
  /// clamped). Used for latencies with known physical bounds.
  double truncated_normal(double mu, double sigma, double lo, double hi);

  /// Log-normal draw parameterised by the *underlying* normal (mu, sigma).
  double lognormal(double mu, double sigma);

  /// Exponential draw with the given mean.
  double exponential(double mean);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Uniform Duration in [lo, hi].
  Duration uniform_duration(Duration lo, Duration hi);

  /// Truncated-normal Duration, parameters in milliseconds.
  Duration truncated_normal_ms(double mu_ms, double sigma_ms, double lo_ms,
                               double hi_ms);

  /// Access to the raw engine for std:: distributions.
  ///
  /// The engine is seeded lazily on the first draw: seeding a mt19937_64
  /// materialises its full 312-word state, which dominates the cost of
  /// Rng construction, and most forked streams are only forked onward
  /// (never drawn from). Deferring the seeding skips that cost entirely
  /// for such streams while leaving every draw sequence bit-identical —
  /// the engine still sees exactly seed_ at first use.
  std::mt19937_64& engine() {
    if (!engine_.has_value()) engine_.emplace(seed_);
    return *engine_;
  }

 private:
  std::optional<std::mt19937_64> engine_;
  std::uint64_t seed_;
};

}  // namespace acute::sim
