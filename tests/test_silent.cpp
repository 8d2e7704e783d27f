// Tests for the event-driven silent-edge scheduler (src/engine/silent/).
//
// While every edge is tracked (no node has entered an inert state) the
// scheduler consumes run_packed's draws and replays its run per seed; once
// a node turns inert it draws differently and agrees in distribution only.
// The contracts tested here: exact jump-sampler boundaries and
// distribution, the inert sets (brute force over the closed table, and
// pinned per protocol), exact tracked-set/incidence bookkeeping, the
// per-seed replay of run_packed, cap and frozen-configuration semantics,
// determinism for a fixed seed, and 3σ statistical agreement of
// stabilization times with the step scheduler (tests/stat_gate.h).
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/star_protocol.h"
#include "dynamics/epidemic.h"
#include "engine/silent/jump.h"
#include "graph/generators.h"
#include "obs/probe.h"
#include "stat_gate.h"

namespace pp {
namespace {

// ------------------------------------------------------------- jump sampler

TEST(JumpSampler, EmptyActiveSetJumpsToCap) {
  // active == 0: the configuration is frozen, the whole budget is silent and
  // no uniform may be consumed (there is nothing to invert).
  int calls = 0;
  const auto u01 = [&] {
    ++calls;
    return 0.5;
  };
  EXPECT_EQ(sample_silent_run(u01, 0, 16, 1000), 1000u);
  EXPECT_EQ(sample_silent_run(u01, 0, 1, 0), 0u);
  EXPECT_EQ(calls, 0);
}

TEST(JumpSampler, FullActiveSetNeverSkips) {
  // active == total: every draw hits an active pair; skip is identically 0
  // with no floating point involved and no uniform consumed.
  int calls = 0;
  const auto u01 = [&] {
    ++calls;
    return 0.999999;
  };
  EXPECT_EQ(sample_silent_run(u01, 16, 16, 1000), 0u);
  EXPECT_EQ(sample_silent_run(u01, 1, 1, 1000), 0u);
  EXPECT_EQ(calls, 0);
}

TEST(JumpSampler, InversionBoundaries) {
  // u01 = 0 maps to U = 1, log(1) = -0.0: an immediate active step.
  EXPECT_EQ(sample_silent_run([] { return 0.0; }, 1, 2, 100), 0u);
  // p = 1/2, u01 = 0.74: U = 0.26, log(0.26)/log(0.5) = 1.94… → skip 1.
  EXPECT_EQ(sample_silent_run([] { return 0.74; }, 1, 2, 100), 1u);
  // u01 → 1 makes the inversion huge; the cap clamps it exactly.
  EXPECT_EQ(sample_silent_run([] { return 1.0 - 1e-300; }, 1, 2, 100), 100u);
  // A rare pair (p = 1/2^20) with a mid uniform still respects a tiny cap.
  EXPECT_EQ(sample_silent_run([] { return 0.5; }, 1, 1u << 20, 3), 3u);
  // cap == 0: any positive inversion clamps to 0.
  EXPECT_EQ(sample_silent_run([] { return 0.9; }, 1, 2, 0), 0u);
}

TEST(JumpSampler, RejectsImpossibleCounts) {
  const auto u01 = [] { return 0.5; };
  EXPECT_THROW(sample_silent_run(u01, 0, 0, 10), std::invalid_argument);
  EXPECT_THROW(sample_silent_run(u01, 3, 2, 10), std::invalid_argument);
}

TEST(JumpSampler, MatchesGeometricLawChiSquared) {
  // skip ~ Geometric(p) on {0, 1, ...} with p = active/total.  Bin 50k
  // inversion samples against the exact pmf; the seed is fixed, so the
  // statistic is reproducible — the 0.1% critical value guards against
  // regressions in the inversion, not against sampling noise.
  rng gen(321);
  const std::uint64_t active = 3, total = 16;
  const double p = static_cast<double>(active) / static_cast<double>(total);
  const int draws = 50000;
  constexpr int kBins = 20;  // 0..18 plus a >= 19 tail bin
  std::vector<std::uint64_t> counts(kBins, 0);
  for (int i = 0; i < draws; ++i) {
    const auto s = sample_silent_run([&] { return gen.uniform01(); }, active,
                                     total, 1u << 30);
    ++counts[std::min<std::uint64_t>(s, kBins - 1)];
  }
  double chi2 = 0.0;
  double tail = 1.0;  // P(skip >= kBins - 1)
  for (int b = 0; b + 1 < kBins; ++b) {
    const double pb = std::pow(1.0 - p, b) * p;
    tail -= pb;
    const double expected = draws * pb;
    const double d = static_cast<double>(counts[b]) - expected;
    chi2 += d * d / expected;
  }
  const double d = static_cast<double>(counts[kBins - 1]) - draws * tail;
  chi2 += d * d / (draws * tail);
  // df = 19; the 0.001 critical value is 43.8.
  EXPECT_LT(chi2, 43.8);
}

// ----------------------------------------------- active set bookkeeping

TEST(ActivePairSet, ToggleAndSwapRemoval) {
  active_pair_set s(6);
  EXPECT_EQ(s.size(), 0u);
  s.set(2, true);
  s.set(4, true);
  s.set(5, true);
  EXPECT_EQ(s.size(), 3u);
  s.set(4, true);  // idempotent insert
  EXPECT_EQ(s.size(), 3u);
  s.set(2, false);  // swap-with-last removal keeps the others present
  EXPECT_EQ(s.size(), 2u);
  std::vector<std::uint32_t> members;
  for (std::uint64_t i = 0; i < s.size(); ++i) members.push_back(s.at(i));
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<std::uint32_t>{4, 5}));
  s.set(2, false);  // idempotent removal
  EXPECT_EQ(s.size(), 2u);
  s.set(5, false);
  s.set(4, false);
  EXPECT_EQ(s.size(), 0u);
  s.set(0, true);  // reusable after draining
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.at(0), 0u);
}

TEST(SilentAdjacency, IncidenceRowsCoverEveryEdgeTwice) {
  rng gen(77);
  const graph g = make_connected_erdos_renyi(24, 0.2, gen);
  const silent_adjacency adj(g);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto m = static_cast<std::size_t>(g.num_edges());
  ASSERT_EQ(adj.offsets.size(), n + 1);
  ASSERT_EQ(adj.entries.size(), 2 * m);
  EXPECT_GT(adj.bytes(), 0u);
  // Row v holds exactly the edges incident to v (each once, both endpoints
  // of edge j list j), so every edge index appears exactly twice overall.
  std::vector<int> seen(m, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto row = adj.row(v);
    EXPECT_EQ(row.size(), static_cast<std::size_t>(
                              g.degree(static_cast<node_id>(v))));
    for (const std::uint32_t j : row) {
      ASSERT_LT(j, m);
      const edge& e = g.edges()[j];
      EXPECT_TRUE(e.u == static_cast<node_id>(v) ||
                  e.v == static_cast<node_id>(v));
      ++seen[j];
    }
  }
  for (std::size_t j = 0; j < m; ++j) EXPECT_EQ(seen[j], 2) << "edge " << j;
}

// --------------------------------------------------------------- inert set

// Every pair of inert states — a state with itself included — is an
// identity transition in both orientations; returns the inert ids.
template <typename P>
std::vector<std::uint32_t> checked_inert_ids(const tuned_runner<P>& runner) {
  const auto& compiled = runner.compiled();
  const auto inert = inert_states(compiled);
  EXPECT_EQ(inert.size(), compiled.num_states());
  std::vector<std::uint32_t> ids;
  for (std::uint32_t s = 0; s < inert.size(); ++s) {
    if (inert[s] != 0) ids.push_back(s);
  }
  for (const std::uint32_t a : ids) {
    for (const std::uint32_t b : ids) {
      const auto& e = compiled.closed_transition(a, b);
      EXPECT_EQ(e.a2, a) << "(" << a << ", " << b << ")";
      EXPECT_EQ(e.b2, b) << "(" << a << ", " << b << ")";
    }
  }
  return ids;
}

TEST(InertSet, BeauquierIsItsTokenFreeStates) {
  const beauquier_protocol proto(16);
  const tuned_runner<beauquier_protocol> runner(proto, make_cycle(16));
  const auto ids = checked_inert_ids(runner);
  EXPECT_EQ(runner.compiled().num_states(), 5u);
  std::vector<bq_state> states;
  for (const auto id : ids) states.push_back(runner.compiled().decode(id));
  EXPECT_EQ(states, (std::vector<bq_state>{{false, bq_token::none},
                                           {true, bq_token::none}}));
}

TEST(InertSet, StarIsItsDecidedStates) {
  const star_protocol proto;
  const tuned_runner<star_protocol> runner(proto, make_cycle(16));
  const auto ids = checked_inert_ids(runner);
  EXPECT_EQ(runner.compiled().num_states(), 3u);
  std::vector<star_protocol::state_type> states;
  for (const auto id : ids) states.push_back(runner.compiled().decode(id));
  EXPECT_EQ(states, (std::vector<star_protocol::state_type>{
                        star_protocol::state_type::leader,
                        star_protocol::state_type::follower}));
}

// The fast protocol's inert states are exactly its token-free backup states.
void expect_fast_inert_set(const fast_params& p, std::size_t states,
                           std::size_t inert) {
  const fast_protocol proto(p);
  const tuned_runner<fast_protocol> runner(proto, make_cycle(16));
  const auto ids = checked_inert_ids(runner);
  EXPECT_EQ(runner.compiled().num_states(), states);
  EXPECT_EQ(ids.size(), inert);
  for (std::uint32_t s = 0; s < runner.compiled().num_states(); ++s) {
    const auto& st = runner.compiled().decode(s);
    const bool token_free_backup = st.in_backup && st.backup.token == bq_token::none;
    EXPECT_EQ(std::count(ids.begin(), ids.end(), s) == 1, token_free_backup)
        << "state " << s;
  }
}

TEST(InertSet, FastBackupRegimeIsItsTokenFreeBackupStates) {
  fast_params p;  // bench/silent.cpp's backup-dominated regime
  p.h = 4;
  p.level_threshold = 8;
  p.max_level = 9;
  expect_fast_inert_set(p, 57, 6);
}

TEST(InertSet, FastDefaultParamsAreItsTokenFreeBackupStates) {
  fast_params p;  // popsim rr8 20000 fast --seed 1's calibrated parameters
  p.h = 7;
  p.level_threshold = 29;
  p.max_level = 116;
  expect_fast_inert_set(p, 1447, 9);
}

// ---------------------------------------------------------------- scheduler

sim_options silent_options(std::uint64_t max_steps =
                               std::numeric_limits<std::uint64_t>::max()) {
  sim_options o;
  o.scheduler = scheduler_kind::silent;
  o.max_steps = max_steps;
  return o;
}

// The backup-dominated fast-protocol regime: a low elimination threshold
// hands off to the Beauquier backup quickly, and the two-token endgame is
// almost entirely silent — the regime the scheduler exists for.
fast_params backup_regime_params() {
  fast_params p;
  p.h = 4;
  p.level_threshold = 8;
  p.max_level = 9;
  return p;
}

TEST(SilentScheduler, DeterministicForFixedSeed) {
  rng gg(5);
  const graph g = make_random_regular(64, 4, gg);
  const fast_protocol proto(backup_regime_params());
  const tuned_runner<fast_protocol> runner(proto, g);
  const auto a = runner.run(rng(21), silent_options());
  const auto b = runner.run(rng(21), silent_options());
  EXPECT_TRUE(a.stabilized);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.leader, b.leader);
  const auto c = runner.run(rng(22), silent_options());
  EXPECT_NE(a.steps, c.steps);  // different seed, different trajectory
}

TEST(SilentScheduler, RespectsMaxStepsExactly) {
  // Every fast-phase interaction ticks a streak clock, so nothing has
  // stabilized by step 1000 on n = 64 and the cap must land exactly.
  const graph g = make_cycle(64);
  const fast_protocol proto(fast_params::practical_clique(64));
  const tuned_runner<fast_protocol> runner(proto, g);
  const auto r = runner.run(rng(3), silent_options(1000));
  EXPECT_FALSE(r.stabilized);
  EXPECT_EQ(r.steps, 1000u);
  EXPECT_EQ(r.leader, -1);
}

TEST(SilentScheduler, FrozenConfigurationJumpsToCapInstantly) {
  // The star protocol deadlocks on general graphs whenever two undecided-
  // undecided interactions fire on non-adjacent edges: several leaders,
  // every pair silent, the tracker never fires.  The active set empties and
  // run_silent must deliver the reference engine's t → max_steps spin in
  // O(1) — a budget of 10^15 steps would take a per-step engine days.
  const graph g = make_cycle(6);
  const star_protocol proto;
  const tuned_runner<star_protocol> runner(proto, g);
  const std::uint64_t budget = 1'000'000'000'000'000ull;
  int deadlocks = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto r = runner.run(rng(seed), silent_options(budget));
    if (r.stabilized) {
      EXPECT_GE(r.leader, 0) << "seed " << seed;
      EXPECT_LT(r.steps, budget) << "seed " << seed;
    } else {
      EXPECT_EQ(r.steps, budget) << "seed " << seed;
      EXPECT_EQ(r.leader, -1) << "seed " << seed;
      ++deadlocks;
    }
  }
  // On C6 a maximal independent set has >= 2 nodes, so multi-leader
  // deadlocks are common; with these 8 fixed seeds at least one occurs.
  EXPECT_GE(deadlocks, 1);
}

TEST(SilentScheduler, ElectsInOneStepOnStars) {
  // Edge-census path: on a star every oriented pair is initially active and
  // the first interaction decides the centre and stabilizes the predicate.
  const star_protocol proto;
  for (const node_id n : {2, 5, 100}) {
    const graph g = make_star(n);
    const tuned_runner<star_protocol> runner(proto, g);
    const auto r = runner.run(rng(static_cast<std::uint64_t>(n)),
                              silent_options());
    ASSERT_TRUE(r.stabilized) << "n=" << n;
    EXPECT_EQ(r.steps, 1u) << "n=" << n;
    EXPECT_GE(r.leader, 0) << "n=" << n;
  }
}

TEST(SilentScheduler, CensusCountsStatesTouched) {
  rng gg(9);
  const graph g = make_random_regular(96, 4, gg);
  const fast_protocol proto(backup_regime_params());
  const tuned_runner<fast_protocol> runner(proto, g);
  sim_options o = silent_options();
  o.state_census = true;
  const auto r = runner.run(rng(14), o);
  EXPECT_TRUE(r.stabilized);
  // The run passes through fast-phase levels and the backup hand-off, so
  // well more than the initial state is touched.
  EXPECT_GE(r.distinct_states_used, 3u);
}

TEST(SilentScheduler, ProbeRecordsActiveSetTrajectory) {
  // Token-based Beauquier is silent-rich from step one (only the two
  // token-holder pairs' orientations are ever active), so the trajectory is
  // guaranteed samples at a small stride.
  const graph g = make_grid_2d(8, 8, false);
  const beauquier_protocol proto(64);
  const tuned_runner<beauquier_protocol> runner(proto, g);
  obs::run_probe probe(64);
  const auto r = runner.run(rng(8), silent_options(), &probe);
  EXPECT_TRUE(r.stabilized);
  const auto& st = probe.stats();
  EXPECT_EQ(st.steps, r.steps);
  EXPECT_GT(st.active_steps, 0u);
  EXPECT_LT(st.active_steps, st.steps);  // non-token pairs are silent
  ASSERT_FALSE(st.active_sets.empty());
  const std::uint64_t two_m = 2 * static_cast<std::uint64_t>(g.num_edges());
  std::uint64_t prev_step = 0;
  for (const auto& s : st.active_sets) {
    EXPECT_GE(s.step, prev_step);
    EXPECT_LE(s.active_pairs, two_m);
    prev_step = s.step;
  }
}

TEST(SilentScheduler, ReplaysThePackedRunWhileEveryEdgeIsTracked) {
  // Default parameters: elections end in the fast phase, so no node ever
  // reaches the token-free backup states and every edge stays tracked.  The
  // jump then consumes no draw and each pick is run_packed's, so the two
  // schedulers run the same election per seed.
  rng gg(23);
  const graph g = make_random_regular(400, 8, gg);
  const fast_protocol proto(fast_params::practical(
      g, estimate_worst_case_broadcast_time(g, 10, 3, rng(24)).value));
  const tuned_runner<fast_protocol> runner(proto, g);
  const std::uint64_t two_m = 2 * static_cast<std::uint64_t>(g.num_edges());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto step = runner.run(rng(seed));
    obs::run_probe probe(4096);
    const auto silent = runner.run(rng(seed), silent_options(), &probe);
    ASSERT_TRUE(step.stabilized) << "seed " << seed;
    EXPECT_TRUE(silent.stabilized) << "seed " << seed;
    EXPECT_EQ(silent.steps, step.steps) << "seed " << seed;
    EXPECT_EQ(silent.leader, step.leader) << "seed " << seed;
    ASSERT_FALSE(probe.stats().active_sets.empty()) << "seed " << seed;
    for (const auto& sample : probe.stats().active_sets) {
      EXPECT_EQ(sample.active_pairs, two_m)
          << "seed " << seed << " step " << sample.step;
    }
  }
}

// ------------------------------------------------- statistical agreement

// Step-scheduler vs silent-scheduler stabilization times on the same runner
// (different seeds for independence), gated by the shared 3σ check.
template <typename P>
void expect_scheduler_agreement(const tuned_runner<P>& runner, int trials,
                                std::uint64_t seed, const std::string& label) {
  const auto step = measure_election_sweep(runner, trials, rng(seed));
  const auto silent =
      measure_election_sweep(runner, trials, rng(seed + 1), silent_options());
  stat_gate::expect_step_agreement(step, silent, label);
}

TEST(SilentScheduler, AgreesWithStepSchedulerBeauquier) {
  // Token-based Beauquier is silent-rich from step one (only token-holder
  // pairs are active) — the node-census predicate path.
  const graph g = make_grid_2d(6, 6, false);
  const beauquier_protocol proto(36);
  const tuned_runner<beauquier_protocol> runner(proto, g);
  expect_scheduler_agreement(runner, stat_gate::kAgreementTrials, 501,
                             "silent vs step: beauquier grid");
}

TEST(SilentScheduler, AgreesWithStepSchedulerFastBackupRegime) {
  // The backup-dominated fast protocol: fast phase (every step active),
  // hand-off, then the two-token silent endgame — the full activity range.
  rng gg(61);
  const graph g = make_random_regular(256, 8, gg);
  const fast_protocol proto(backup_regime_params());
  const tuned_runner<fast_protocol> runner(proto, g);
  expect_scheduler_agreement(runner, stat_gate::kAgreementTrials, 601,
                             "silent vs step: fast backup regime");
}

TEST(SilentScheduler, AgreesWithStepSchedulerFastDefaultParams) {
  // Default practical parameters at small n: the fast phase dominates and
  // nearly every step is active — the scheduler's worst case must still be
  // distributionally exact.
  const graph g = make_cycle(128);
  const fast_protocol proto(fast_params::practical_clique(128));
  const tuned_runner<fast_protocol> runner(proto, g);
  expect_scheduler_agreement(runner, stat_gate::kAgreementTrials, 701,
                             "silent vs step: fast default params");
}

}  // namespace
}  // namespace pp
