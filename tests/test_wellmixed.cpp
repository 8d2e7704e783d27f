// Tests for the well-mixed multiset batch engine (src/engine/wellmixed/).
//
// The engine intentionally breaks per-seed equivalence with the
// per-interaction simulators (there are no edges to seed), so the contract
// tested here is: exact samplers, valid configurations at every scale,
// determinism for a fixed seed, and *statistical* agreement of stabilization
// times with the compiled engine at overlapping n.
#include "engine/wellmixed/wellmixed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/majority.h"
#include "engine/wellmixed/sampling.h"
#include "fleet/sweep.h"
#include "graph/generators.h"
#include "stat_gate.h"

namespace pp {
namespace {

// ----------------------------------------------------------------- samplers

TEST(Sampling, BinomialEdgeCases) {
  rng gen(1);
  EXPECT_EQ(sample_binomial(gen, 0, 0.5), 0u);
  EXPECT_EQ(sample_binomial(gen, 100, 0.0), 0u);
  EXPECT_EQ(sample_binomial(gen, 100, 1.0), 100u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(sample_binomial(gen, 7, 0.3), 7u);
  }
  EXPECT_THROW(sample_binomial(gen, 10, -0.1), std::invalid_argument);
  EXPECT_THROW(sample_binomial(gen, 10, 1.1), std::invalid_argument);
}

TEST(Sampling, BinomialMomentsSmallRegime) {
  // n·p = 5, safely below the dispatch threshold of 10: the geometric-skip
  // inversion path.  (50 · 0.2 would evaluate just *above* 10.0 in floating
  // point and silently test BTRS instead.)
  rng gen(2);
  const std::uint64_t n = 50;
  const double p = 0.1;
  const int draws = 200000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < draws; ++i) {
    const double x = static_cast<double>(sample_binomial(gen, n, p));
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / draws;
  const double var = sumsq / draws - mean * mean;
  EXPECT_NEAR(mean, n * p, 0.05);            // exact mean 5
  EXPECT_NEAR(var, n * p * (1 - p), 0.15);   // exact variance 4.5
}

TEST(Sampling, BinomialMomentsBulkRegime) {
  // n·p >= 30: the BTRS rejection path.
  rng gen(3);
  const std::uint64_t n = 10000;
  const double p = 0.37;
  const int draws = 100000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < draws; ++i) {
    const auto k = sample_binomial(gen, n, p);
    ASSERT_LE(k, n);
    const double x = static_cast<double>(k);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / draws;
  const double var = sumsq / draws - mean * mean;
  const double se_mean = std::sqrt(n * p * (1 - p) / draws);
  EXPECT_NEAR(mean, n * p, 5 * se_mean);
  EXPECT_NEAR(var / (n * p * (1 - p)), 1.0, 0.05);
}

TEST(Sampling, HypergeometricSupportAndMean) {
  rng gen(4);
  const std::uint64_t total = 1000, marked = 300, draws = 200;
  const int reps = 50000;
  double sum = 0;
  for (int i = 0; i < reps; ++i) {
    const auto k = sample_hypergeometric(gen, total, marked, draws);
    ASSERT_LE(k, std::min(marked, draws));
    ASSERT_GE(k + (total - marked), draws);  // k >= draws - unmarked
    sum += static_cast<double>(k);
  }
  // E[K] = draws·marked/total = 60; sd of the estimate is ~0.03.
  EXPECT_NEAR(sum / reps, 60.0, 0.5);
}

TEST(Sampling, HypergeometricDegenerateCases) {
  rng gen(5);
  EXPECT_EQ(sample_hypergeometric(gen, 10, 0, 5), 0u);
  EXPECT_EQ(sample_hypergeometric(gen, 10, 10, 5), 5u);
  EXPECT_EQ(sample_hypergeometric(gen, 10, 5, 0), 0u);
  EXPECT_EQ(sample_hypergeometric(gen, 10, 5, 10), 5u);
  EXPECT_THROW(sample_hypergeometric(gen, 10, 11, 5), std::invalid_argument);
  EXPECT_THROW(sample_hypergeometric(gen, 10, 5, 11), std::invalid_argument);
}

// ------------------------------------------------------------- run_wellmixed

fast_params small_fast_params(std::uint64_t n) {
  return fast_params::practical_clique(n);
}

TEST(WellMixed, InitialMultisetPartitionsThePopulation) {
  const std::uint64_t n = 100;
  rng votes_gen(7);
  const auto votes = random_vote_assignment(static_cast<node_id>(n), 60, votes_gen);
  const majority_protocol proto(votes);
  const auto classes = initial_multiset(proto, n);
  ASSERT_EQ(classes.size(), 2u);  // strong_plus and strong_minus
  std::uint64_t mass = 0;
  for (const auto& [state, k] : classes) mass += k;
  EXPECT_EQ(mass, n);
}

TEST(WellMixed, StabilizesAndElectsOnSmallClique) {
  const std::uint64_t n = 64;
  const fast_protocol proto(small_fast_params(n));
  const auto r = run_wellmixed(proto, n, rng(11), {.state_census = true});
  EXPECT_TRUE(r.stabilized);
  EXPECT_GT(r.steps, 0u);
  EXPECT_EQ(r.leader, 0);  // exchangeable representative
  EXPECT_GE(r.distinct_states_used, 2u);
}

TEST(WellMixed, DeterministicForFixedSeed) {
  const std::uint64_t n = 256;
  const fast_protocol proto(small_fast_params(n));
  const auto a = run_wellmixed(proto, n, rng(21));
  const auto b = run_wellmixed(proto, n, rng(21));
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.stabilized, b.stabilized);
  const auto c = run_wellmixed(proto, n, rng(22));
  EXPECT_NE(a.steps, c.steps);  // different seed, different trajectory
}

TEST(WellMixed, TwoAgentPopulation) {
  const beauquier_protocol proto(2);
  const auto r = run_wellmixed(proto, 2, rng(5));
  EXPECT_TRUE(r.stabilized);
  EXPECT_EQ(r.leader, 0);
}

TEST(WellMixed, RespectsMaxSteps) {
  const std::uint64_t n = 1 << 16;
  const fast_protocol proto(small_fast_params(n));
  const auto r = run_wellmixed(proto, n, rng(3), {.max_steps = 1000});
  EXPECT_FALSE(r.stabilized);
  EXPECT_EQ(r.steps, 1000u);
}

TEST(WellMixed, ExplicitBatchSizeMatchesContract) {
  // A forced B = 1 batch runs the exact per-interaction multiset chain; the
  // run must still stabilize and stay deterministic.
  const std::uint64_t n = 48;
  const fast_protocol proto(small_fast_params(n));
  const sim_options exact{.wellmixed_batch = 1};
  const auto a = run_wellmixed(proto, n, rng(9), exact);
  const auto b = run_wellmixed(proto, n, rng(9), exact);
  EXPECT_TRUE(a.stabilized);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(WellMixed, OversizedBatchKnobIsClamped) {
  // A batch knob past n clamps to n (pick counts must fit the u32 pair
  // matrix); the run must stay valid and deterministic.
  const std::uint64_t n = 512;
  const fast_protocol proto(small_fast_params(n));
  const sim_options huge{.wellmixed_batch = 5'000'000'000ull};
  const auto a = run_wellmixed(proto, n, rng(33), huge);
  const auto b = run_wellmixed(proto, n, rng(33),
                               sim_options{.wellmixed_batch = n});
  EXPECT_TRUE(a.stabilized);
  EXPECT_EQ(a.steps, b.steps);  // clamped knob == explicit B = n
}

TEST(WellMixed, MajorityConsensusMatchesVoteMajority) {
  const std::uint64_t n = 200;
  rng votes_gen(13);
  const auto votes = random_vote_assignment(static_cast<node_id>(n), 140, votes_gen);
  const majority_protocol proto(votes);
  const auto r = run_wellmixed(proto, n, rng(17));
  EXPECT_TRUE(r.stabilized);
}

// 3σ agreement of mean stabilization steps between the per-interaction
// compiled engine and the well-mixed batch engine on the same protocol and
// population.  This is the engine's core statistical-correctness contract
// (the batching approximation must be invisible at this resolution); the
// threshold itself lives in tests/stat_gate.h, shared with the reorder and
// silent-scheduler suites.
template <typename P>
void expect_agreement(const P& proto, std::uint64_t n, int trials,
                      std::uint64_t seed) {
  const graph g = make_clique(static_cast<node_id>(n));
  const auto engine = measure_election_tuned(proto, g, trials, rng(seed));
  const auto wm = measure_election_wellmixed(proto, n, trials, rng(seed + 1));
  stat_gate::expect_step_agreement(engine, wm, "wellmixed vs engine");
}

TEST(WellMixed, AgreesWithEngineFastProtocol) {
  const std::uint64_t n = 256;
  expect_agreement(fast_protocol(small_fast_params(n)), n, 32, 1001);
}

TEST(WellMixed, AgreesWithEngineMajorityProtocol) {
  const std::uint64_t n = 512;
  rng votes_gen(29);
  const auto votes = random_vote_assignment(static_cast<node_id>(n), 320, votes_gen);
  expect_agreement(majority_protocol(votes), n, 32, 2002);
}

// Exact seeded trajectories (steps, leader, distinct states with the census
// on).  A change that only regroups the same draws must keep every value; a
// change of draws re-records them, with the 3σ gates above as the law's
// specification.
TEST(WellMixed, SeededTrajectoriesArePinned) {
  struct pinned {
    std::uint64_t steps;
    std::uint64_t distinct;
  };
  const auto expect_pinned = [](const election_result& r, pinned want,
                                const char* what) {
    EXPECT_TRUE(r.stabilized) << what;
    EXPECT_EQ(r.leader, 0) << what;
    EXPECT_EQ(r.steps, want.steps) << what;
    EXPECT_EQ(r.distinct_states_used, want.distinct) << what;
  };
  const sim_options census{.state_census = true};
  {
    // popsim's `clique 5000 fast --engine wellmixed --trials 1 --seed s`.
    // More than 64 states are occupied there, so each row of the
    // occupied-state bitmap spans two words.
    const fast_protocol proto(fast_params::practical_clique(5000));
    const wellmixed_sweep<fast_protocol> sweep(proto, 5000);
    expect_pinned(sweep.run(fleet::sweep_seed_gen(1).fork(0), census),
                  {7167601, 185}, "fast n=5000 seed 1");
    expect_pinned(sweep.run(fleet::sweep_seed_gen(2).fork(0), census),
                  {7095522, 187}, "fast n=5000 seed 2");
  }
  {
    const std::uint64_t n = 1024;
    const fast_protocol proto(fast_params::practical_clique(n));
    sim_options fixed = census;
    fixed.wellmixed_batch = 16;
    expect_pinned(run_wellmixed(proto, n, rng(5), fixed), {446542, 130},
                  "fast n=1024 B=16");
  }
  {
    const beauquier_protocol proto(2000);
    expect_pinned(run_wellmixed(proto, 2000, rng(6), census), {3494189, 5},
                  "six n=2000");
  }
}

TEST(WellMixed, FullElectionAtSixtyFourThousand) {
  // A complete election at n = 2^16 — a clique whose edge list (~2·10⁹
  // pairs) the per-interaction engines could no longer hold comfortably —
  // with the step count in the Θ(n · 2^h · L) shape of the waiting phase.
  const std::uint64_t n = 65'536;
  const fast_protocol proto(fast_params::practical_clique(n));
  const auto r = run_wellmixed(proto, n, rng(42));
  EXPECT_TRUE(r.stabilized);
  EXPECT_EQ(r.leader, 0);
  EXPECT_GT(r.steps, n * 10);
  EXPECT_LT(r.steps, n * 100'000);
}

TEST(WellMixed, MillionAgentBatchesInMultisetMemory) {
  // n = 10⁶ on a clique: the per-interaction engine would need ~8 TB of
  // endpoint arrays; the multiset engine needs O(|Λ|) counters.  A bounded
  // budget keeps the test fast while still driving the engine through
  // thousands of batches of the real large-n regime.
  const std::uint64_t n = 1'000'000;
  const fast_protocol proto(fast_params::practical_clique(n));
  const auto r = run_wellmixed(proto, n, rng(42), {.max_steps = 100'000'000});
  EXPECT_FALSE(r.stabilized);  // an election needs ~2000n steps, budget is 100n
  EXPECT_EQ(r.steps, 100'000'000u);
}

}  // namespace
}  // namespace pp
