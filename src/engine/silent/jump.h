// Geometric jump sampling over silent scheduler steps.
//
// With A tracked edges out of m, each per-step scheduler draw is an
// independent Bernoulli(p = A/m) trial for "hits a tracked edge" (in either
// orientation).  The number of consecutive untracked — hence silent — steps
// before the next tracked one is therefore Geometric(p) on {0, 1, 2, ...}:
// P(skip = s) = (1 - p)^s · p.  The silent scheduler samples that run length
// in O(1) by inversion — floor(log(U) / log(1 - p)) with U ~ Uniform(0, 1] —
// instead of paying one RNG draw plus two config loads per silent step.
//
// (When the tracked set is frozen between events this is exactly geometric —
// draws are with replacement from the edge set.  The negative-hypergeometric
// shape would arise only for draws *without* replacement, which the uniform
// scheduler never does; see src/engine/silent/README.md.)
//
// Correctness at the boundaries (tests/test_silent.cpp pins each):
//   * active == total: every draw is tracked, skip is identically 0 (no
//     floating point involved, no uniform consumed);
//   * active == 0: no draw can ever be tracked; the run is capped at `cap`
//     (the caller's remaining step budget) — the configuration can never
//     change again, so jumping to the cap is exact;
//   * the inversion overflowing or reaching `cap` returns `cap`: the caller
//     stops at max_steps anyway, and a clamped jump consumes the same one
//     uniform draw.
#pragma once

#include <cmath>
#include <cstdint>

#include "support/expects.h"

namespace pp {

// Samples the number of silent scheduler steps preceding the next active
// one, clamped to `cap`.  `u01` is any callable yielding doubles in [0, 1)
// (block_rng::uniform01, rng::uniform01, or a deterministic stub in tests);
// exactly one value is consumed unless the active/total shortcut fires.
template <typename U01>
std::uint64_t sample_silent_run(U01&& u01, std::uint64_t active,
                                std::uint64_t total, std::uint64_t cap) {
  expects(total >= 1, "sample_silent_run: total pair count must be >= 1");
  expects(active <= total,
          "sample_silent_run: active pairs cannot exceed the total");
  if (active == 0) return cap;
  if (active == total) return 0;
  const double p = static_cast<double>(active) / static_cast<double>(total);
  // U in (0, 1]: log(0) would be -inf, and uniform01 yields [0, 1).
  const double u = 1.0 - u01();
  const double skip = std::floor(std::log(u) / std::log1p(-p));
  // log(1) == -0.0 gives skip == -0.0; anything non-finite or negative means
  // the inversion degenerated, and 0 (an immediate active step) is the
  // distribution's mode — never an overshoot.
  if (!(skip > 0.0)) return 0;
  if (skip >= static_cast<double>(cap)) return cap;
  return static_cast<std::uint64_t>(skip);
}

}  // namespace pp
