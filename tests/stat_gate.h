// Shared statistical-agreement gates for engine-equivalence tests.
//
// Several engines intentionally trade per-seed bit-identity for throughput
// (the well-mixed batch engine has no edges to seed; reordered runs remap
// the draw-to-edge assignment; the silent-edge scheduler draws differently
// once a node turns inert).  Their correctness contract is *statistical*:
// over independent trials, the mean stabilization step count must agree
// with the exact per-interaction engine within `kSigmaGate` combined
// standard errors.  This header holds that check — trial counts and the
// z-threshold live here, in one place — for test_wellmixed, test_reorder,
// test_silent, test_beauquier and test_experiment; bench/ mirrors the same
// 3σ convention in its agreement gates.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/experiment.h"

namespace pp::stat_gate {

// The agreement threshold in combined standard errors.  3σ keeps the
// false-failure rate of a single gate below ~0.3% while still catching any
// systematic bias of a fraction of a standard error once trial counts are
// in the tens.
inline constexpr double kSigmaGate = 3.0;

// Default trial count for agreement checks: enough that the combined SE is
// a few percent of the mean on the protocols tested here, small enough for
// tier-1 wall clocks.
inline constexpr int kAgreementTrials = 24;

inline double standard_error(const sample_summary& s) {
  return s.count > 0 ? s.stddev / std::sqrt(static_cast<double>(s.count)) : 0.0;
}

// Combined standard error of the difference of two independent means.
inline double combined_sigma(const sample_summary& a, const sample_summary& b) {
  const double se_a = standard_error(a);
  const double se_b = standard_error(b);
  return std::sqrt(se_a * se_a + se_b * se_b);
}

// Both sweeps fully stabilized, nondegenerate spread, and means within
// kSigmaGate combined standard errors.  `label` names the comparison in the
// failure message (e.g. the vertex order or scheduler under test).
inline void expect_step_agreement(const election_summary& baseline,
                                  const election_summary& candidate,
                                  const std::string& label) {
  ASSERT_EQ(baseline.stabilized_fraction, 1.0) << label;
  ASSERT_EQ(candidate.stabilized_fraction, 1.0) << label;
  const double sigma = combined_sigma(baseline.steps, candidate.steps);
  ASSERT_GT(sigma, 0.0) << label;
  EXPECT_LE(std::fabs(baseline.steps.mean - candidate.steps.mean),
            kSigmaGate * sigma)
      << label << ": baseline mean " << baseline.steps.mean
      << " vs candidate mean " << candidate.steps.mean << " ("
      << kSigmaGate << " sigma = " << kSigmaGate * sigma << ")";
}

}  // namespace pp::stat_gate
