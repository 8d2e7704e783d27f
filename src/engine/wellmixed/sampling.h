// Exact discrete samplers for the well-mixed batch engine.
//
// The multiset simulator (wellmixed.h) advances a clique election B
// interactions at a time.  The composition of a batch — how many of the B
// draws hit each ordered state pair — is a multinomial over the current
// count vector, sampled as a chain of conditional binomials; locating the
// exact stabilization step inside a batch splits that composition with
// multivariate hypergeometric draws.  Both scalar samplers below are exact
// (rejection / sequential without-replacement, no normal approximation), so
// the batch engine's law differs from the per-interaction process only
// through the batching itself, never through the samplers.
//
// The samplers are templated over the generator so the batch engine can
// drive them from the inline block-buffered block_rng (the hot path) while
// tests use pp::rng directly; any type with uniform_below / uniform01 works.
#pragma once

#include <cmath>
#include <cstdint>

#include "support/expects.h"
#include "support/rng.h"

namespace pp {

namespace sampling_detail {

// Inversion by geometric skips: X counts how many successes fit before the
// waiting times overshoot n trials.  Exact for any n; expected cost n·p + 1
// geometric draws, so it is used only when n·p is small.
template <typename Gen>
std::uint64_t binomial_inversion(Gen& gen, std::uint64_t n, double p) {
  // p is fixed for the call, so log(1 - p) is too: gen.geometric(p) minus
  // its per-draw log1p, draw for draw.
  const double log_q = geometric_log_q(p);
  std::uint64_t successes = 0;
  std::uint64_t position = 0;
  while (true) {
    position += geometric_inversion(gen.uniform01(), log_q);
    if (position > n) return successes;
    ++successes;
  }
}

// ln Γ(x) through the reentrant lgamma_r: std::lgamma also stores the sign
// of Γ(x) in the global `signgam`, a data race when a threaded sweep samples
// in several trials at once (TSan flags it); the returned value is the same.
inline double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

// Hörmann's BTRS transformed rejection (1993), the standard exact sampler
// for the bulk regime.  Requires p in (0, 0.5] and n·p >= 10; the envelope
// constants below are Hörmann's.  The acceptance test is exact (log of the
// true ratio via log_gamma), so the output law is exactly Binomial(n, p).
template <typename Gen>
std::uint64_t binomial_btrs(Gen& gen, std::uint64_t n, double p) {
  const double dn = static_cast<double>(n);
  const double np = dn * p;
  const double q = 1.0 - p;
  const double spq = std::sqrt(np * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = np + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((dn + 1.0) * p);
  const double h = log_gamma(m + 1.0) + log_gamma(dn - m + 1.0);

  while (true) {
    double v = gen.uniform01();
    double u;
    if (v <= u_rv_r) {
      // Fast path: inside the central region the candidate is accepted
      // without evaluating the density.
      u = v / v_r - 0.43;
      const double us = 0.5 - std::fabs(u);
      return static_cast<std::uint64_t>(
          std::floor((2.0 * a / us + b) * u + c));
    }
    if (v >= v_r) {
      u = gen.uniform01() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0 ? -0.5 : 0.5) - u;
      v = gen.uniform01() * v_r;
    }
    const double us = 0.5 - std::fabs(u);
    if (us < 0.013 && v > us) continue;  // numerical guard on the tails
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > dn) continue;
    const double log_accept = h - log_gamma(k + 1.0) -
                              log_gamma(dn - k + 1.0) + (k - m) * lpq;
    v = std::log(v * alpha / (a / (us * us) + b));
    if (v <= log_accept) return static_cast<std::uint64_t>(k);
  }
}

}  // namespace sampling_detail

// Binomial(n, p) draw.  Exact for all n and p in [0, 1]: inversion by
// geometric skips when n·min(p, 1-p) is small, Hörmann's BTRS transformed
// rejection otherwise.  Expected cost O(1) amortised; consumes a variable
// number of draws from `gen`.
template <typename Gen>
std::uint64_t sample_binomial(Gen& gen, std::uint64_t n, double p) {
  expects(p >= 0.0 && p <= 1.0, "sample_binomial: p must be in [0, 1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - sample_binomial(gen, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) {
    return sampling_detail::binomial_inversion(gen, n, p);
  }
  return sampling_detail::binomial_btrs(gen, n, p);
}

// Hypergeometric draw: number of marked items in a uniform `draws`-subset of
// a `total`-item population containing `marked` marked items.  Exact
// (sequential sampling without replacement, using the (marked, draws)
// symmetry), cost O(min(marked, draws)) calls to gen.uniform_below.
template <typename Gen>
std::uint64_t sample_hypergeometric(Gen& gen, std::uint64_t total,
                                    std::uint64_t marked, std::uint64_t draws) {
  expects(marked <= total && draws <= total,
          "sample_hypergeometric: marked and draws must not exceed total");
  // |A ∩ B| for a uniform draws-subset A and fixed marked-subset B is
  // symmetric in the two sizes; walk the smaller one.
  if (marked < draws) {
    const std::uint64_t tmp = marked;
    marked = draws;
    draws = tmp;
  }
  if (draws == 0) return 0;
  if (marked == total) return draws;
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < draws; ++i) {
    if (gen.uniform_below(total - i) < marked - hits) ++hits;
  }
  return hits;
}

}  // namespace pp
