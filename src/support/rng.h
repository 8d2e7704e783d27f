// Deterministic pseudo-random number generation.
//
// All stochastic components of the library draw from `pp::rng`, a
// xoshiro256** generator seeded through splitmix64.  Experiments derive
// per-trial generators with `rng::fork`, so a single 64-bit seed makes any
// run — including multithreaded parameter sweeps — bit-for-bit reproducible.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "support/expects.h"

namespace pp {

// splitmix64 step: used for seeding and for deriving independent streams.
std::uint64_t splitmix64(std::uint64_t& state);

// Lemire's multiply-shift rejection method over an arbitrary source of raw
// 64-bit draws: uniform in [0, bound), bound >= 1, unbiased.  Shared by
// rng::uniform_below and the engine's block-buffered block_rng so the two
// can never diverge — the engine's bit-identical-to-reference guarantee
// rests on both consuming the same raw draws in the same order.
template <typename Next>
std::uint64_t lemire_uniform_below(Next&& next, std::uint64_t bound) {
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) [[unlikely]] {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

// Uniform double in [0, 1) from one raw 64-bit draw (53 mantissa bits).
// Shared by rng::uniform01 and block_rng::uniform01, so the two mirror each
// other draw-for-draw by construction — the same pattern as the Lemire
// kernel above.
template <typename Next>
double uniform01_from(Next&& next) {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

// log(1 - p), the denominator of the geometric inversion below.  A caller
// that draws many Geometric(p) variables for one p, or tabulates them per p,
// computes it once; geometric_from computes it through this same function,
// so the hoisted and the per-draw paths divide by the same double.
inline double geometric_log_q(double p) { return std::log1p(-p); }

// Geometric(p) on {1, 2, ...} by inversion of one uniform01 value `u01`,
// given log_q = geometric_log_q(p) for a p in (0, 1).
inline std::uint64_t geometric_inversion(double u01, double log_q) {
  // Inversion: ceil(log(U) / log(1-p)) with U ~ Uniform(0,1].
  const double u = 1.0 - u01;  // in (0, 1]
  const double draws = std::ceil(std::log(u) / log_q);
  if (draws < 1.0) return 1;
  // Clamp astronomically unlikely overflows instead of wrapping.
  if (draws >= 9.2e18) return std::numeric_limits<std::uint64_t>::max() / 2;
  return static_cast<std::uint64_t>(draws);
}

// Geometric(p) on {1, 2, ...} by inversion over one uniform01 draw; p in
// (0, 1].  Shared by rng::geometric and block_rng::geometric.
template <typename Next>
std::uint64_t geometric_from(Next&& next, double p) {
  expects(p > 0.0 && p <= 1.0, "geometric: p must be in (0, 1]");
  if (p == 1.0) return 1;
  return geometric_inversion(uniform01_from(next), geometric_log_q(p));
}

// xoshiro256** 1.0 (Blackman & Vigna), a small, fast, high-quality PRNG.
//
// Satisfies std::uniform_random_bit_generator so it can also be used with
// <random> distributions, although the member helpers below avoid the
// distribution objects in hot loops.
class rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the four words of state from `seed` via splitmix64.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  // Next 64 uniformly random bits.
  result_type operator()();

  // Fills `out` with consecutive draws of operator().  Equivalent to calling
  // the generator out.size() times, but the whole block is produced in one
  // call so hot loops (the batched engine's block_rng) amortise the
  // per-draw call overhead.
  void fill(std::span<std::uint64_t> out);

  // Derives an independent generator for substream `index`.  Streams with
  // different (seed, index) pairs are statistically independent for all
  // practical purposes.
  rng fork(std::uint64_t index) const;

  // Uniform integer in [0, bound), bound >= 1.  Uses Lemire's multiply-shift
  // rejection method (unbiased).
  std::uint64_t uniform_below(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double uniform01();

  // Bernoulli(p) trial.
  bool bernoulli(double p);

  // Fair coin flip.
  bool coin() { return (operator()() >> 63) != 0; }

  // Number of Bernoulli(p) trials up to and including the first success,
  // i.e. a Geometric(p) variable supported on {1, 2, ...}.  p must be in
  // (0, 1].  Sampled by inversion, so a single uniform draw suffices.
  std::uint64_t geometric(double p);

 private:
  std::uint64_t state_[4];
};

}  // namespace pp
