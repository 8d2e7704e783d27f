#include "core/beauquier.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "analysis/experiment.h"
#include "core/simulator.h"
#include "core/stable_checker.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "sched/scheduler.h"
#include "stat_gate.h"

namespace pp {
namespace {

std::vector<bq_state> valid_states() {
  // candidate+white resolves instantly and is never produced; the reachable
  // state space has these five states.
  return {
      {false, bq_token::none}, {false, bq_token::black}, {false, bq_token::white},
      {true, bq_token::none},  {true, bq_token::black},
  };
}

TEST(BqInteract, PreservesCandidateTokenInvariant) {
  // For every pair of reachable states, Δcandidates == Δblack + Δwhite.
  for (const bq_state& sa : valid_states()) {
    for (const bq_state& sb : valid_states()) {
      bq_state a = sa;
      bq_state b = sb;
      bq_counts before;
      before.add(a, +1);
      before.add(b, +1);
      bq_interact(a, b);
      bq_counts after;
      after.add(a, +1);
      after.add(b, +1);
      EXPECT_EQ(before.candidates - before.black - before.white,
                after.candidates - after.black - after.white);
    }
  }
}

TEST(BqInteract, NeverProducesCandidateWithWhite) {
  for (const bq_state& sa : valid_states()) {
    for (const bq_state& sb : valid_states()) {
      bq_state a = sa;
      bq_state b = sb;
      bq_interact(a, b);
      EXPECT_FALSE(a.candidate && a.token == bq_token::white);
      EXPECT_FALSE(b.candidate && b.token == bq_token::white);
    }
  }
}

TEST(BqInteract, SwapsTokens) {
  bq_state a{false, bq_token::black};
  bq_state b{false, bq_token::none};
  bq_interact(a, b);
  EXPECT_EQ(a.token, bq_token::none);
  EXPECT_EQ(b.token, bq_token::black);
}

TEST(BqInteract, BlackMeetingBlackWhitensOne) {
  bq_state a{false, bq_token::black};
  bq_state b{false, bq_token::black};
  bq_interact(a, b);
  EXPECT_EQ(a.token, bq_token::black);
  EXPECT_EQ(b.token, bq_token::white);
}

TEST(BqInteract, WhiteKillsCandidate) {
  bq_state a{false, bq_token::white};
  bq_state b{true, bq_token::none};
  bq_interact(a, b);  // white moves to b, which is a candidate
  EXPECT_FALSE(b.candidate);
  EXPECT_EQ(b.token, bq_token::none);  // token destroyed
  EXPECT_EQ(a.token, bq_token::none);
}

TEST(BqInteract, CandidatePairResolvesToOneCandidate) {
  bq_state a{true, bq_token::black};
  bq_state b{true, bq_token::black};
  bq_interact(a, b);
  // Responder's token whitens and immediately kills it.
  EXPECT_TRUE(a.candidate);
  EXPECT_EQ(a.token, bq_token::black);
  EXPECT_FALSE(b.candidate);
  EXPECT_EQ(b.token, bq_token::none);
}

TEST(BqInteract, TokensNeverCreated) {
  for (const bq_state& sa : valid_states()) {
    for (const bq_state& sb : valid_states()) {
      bq_state a = sa;
      bq_state b = sb;
      const int tokens_before = (sa.token != bq_token::none) + (sb.token != bq_token::none);
      bq_interact(a, b);
      const int tokens_after = (a.token != bq_token::none) + (b.token != bq_token::none);
      EXPECT_LE(tokens_after, tokens_before);
    }
  }
}

TEST(BeauquierProtocol, InitialStates) {
  const beauquier_protocol proto(4, {true, false, true, false});
  EXPECT_EQ(proto.initial_state(0), (bq_state{true, bq_token::black}));
  EXPECT_EQ(proto.initial_state(1), (bq_state{false, bq_token::none}));
  EXPECT_EQ(proto.output(proto.initial_state(0)), role::leader);
  EXPECT_EQ(proto.output(proto.initial_state(1)), role::follower);
}

TEST(BeauquierProtocol, RejectsEmptyCandidateSet) {
  EXPECT_THROW(beauquier_protocol(3, {false, false, false}), std::invalid_argument);
  EXPECT_THROW(beauquier_protocol(3, {true, true}), std::invalid_argument);
}

TEST(BeauquierProtocol, EncodingIsInjectiveOnReachableStates) {
  const beauquier_protocol proto(2);
  std::vector<std::uint64_t> codes;
  for (const bq_state& s : valid_states()) codes.push_back(proto.encode(s));
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(std::unique(codes.begin(), codes.end()), codes.end());
}

TEST(BeauquierProtocol, SingleCandidateIsImmediatelyStable) {
  const graph g = make_cycle(8);
  std::vector<bool> cands(8, false);
  cands[3] = true;
  const beauquier_protocol proto(8, cands);
  const auto r = run_until_stable(proto, g, rng(1));
  EXPECT_TRUE(r.stabilized);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.leader, 3);
}

TEST(BeauquierProtocol, BlackTokenCountNeverBelowOne) {
  const graph g = make_clique(10);
  const beauquier_protocol proto(10);
  std::vector<bq_state> config(10);
  for (node_id v = 0; v < 10; ++v) config[static_cast<std::size_t>(v)] = proto.initial_state(v);
  edge_scheduler sched(g, rng(2));
  bq_counts counts;
  for (const auto& s : config) counts.add(s, +1);
  for (int step = 0; step < 3000; ++step) {
    const interaction it = sched.next();
    auto& a = config[static_cast<std::size_t>(it.initiator)];
    auto& b = config[static_cast<std::size_t>(it.responder)];
    counts.add(a, -1);
    counts.add(b, -1);
    bq_interact(a, b);
    counts.add(a, +1);
    counts.add(b, +1);
    EXPECT_GE(counts.black, 1);
    EXPECT_EQ(counts.candidates, counts.black + counts.white);
    EXPECT_GE(counts.candidates, 1);
  }
}

struct family_case {
  std::string name;
  graph g;
};

class BeauquierStabilizes : public ::testing::TestWithParam<int> {};

TEST_P(BeauquierStabilizes, UniqueLeaderOnEveryFamily) {
  const int idx = GetParam();
  rng seed(100 + idx);
  std::vector<family_case> cases;
  cases.push_back({"clique", make_clique(12)});
  cases.push_back({"cycle", make_cycle(12)});
  cases.push_back({"star", make_star(12)});
  cases.push_back({"path", make_path(12)});
  cases.push_back({"torus", make_grid_2d(4, 4, true)});
  cases.push_back({"tree", make_binary_tree(12)});
  const auto& fc = cases[static_cast<std::size_t>(idx)];

  const beauquier_protocol proto(fc.g.num_nodes());
  for (int trial = 0; trial < 5; ++trial) {
    const auto r = run_until_stable(proto, fc.g, seed.fork(trial),
                                    {.max_steps = 30'000'000});
    EXPECT_TRUE(r.stabilized) << fc.name;
    EXPECT_GE(r.leader, 0) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, BeauquierStabilizes, ::testing::Range(0, 6));

TEST(BeauquierProtocol, OnlyCandidatesCanWin) {
  const graph g = make_clique(9);
  std::vector<bool> cands(9, false);
  cands[2] = cands[5] = cands[7] = true;
  const beauquier_protocol proto(9, cands);
  rng seed(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto r = run_until_stable(proto, g, seed.fork(trial));
    ASSERT_TRUE(r.stabilized);
    EXPECT_TRUE(r.leader == 2 || r.leader == 5 || r.leader == 7);
  }
}

TEST(BeauquierProtocol, UsesAtMostSixStates) {
  const graph g = make_clique(10);
  const beauquier_protocol proto(10);
  const auto r = run_until_stable(proto, g, rng(8), {.state_census = true});
  EXPECT_TRUE(r.stabilized);
  EXPECT_LE(r.distinct_states_used, 6u);
  EXPECT_GE(r.distinct_states_used, 3u);
}

TEST(BeauquierProtocol, TrackerMatchesBruteForceOnTinyGraphs) {
  const graph g = make_path(3);
  const beauquier_protocol proto(3);
  std::vector<bq_state> config(3);
  for (node_id v = 0; v < 3; ++v) config[static_cast<std::size_t>(v)] = proto.initial_state(v);

  beauquier_protocol::tracker_type tracker(proto, g, config);
  edge_scheduler sched(g, rng(9));
  for (int step = 0; step < 200; ++step) {
    const auto report = brute_force_stability(proto, g, config);
    ASSERT_TRUE(report.exhausted);
    EXPECT_EQ(tracker.is_stable(), report.stable) << "step " << step;
    if (report.stable) break;
    const interaction it = sched.next();
    auto& a = config[static_cast<std::size_t>(it.initiator)];
    auto& b = config[static_cast<std::size_t>(it.responder)];
    const auto oa = a;
    const auto ob = b;
    proto.interact(a, b);
    tracker.on_interaction(proto, it.initiator, it.responder, oa, ob, a, b);
  }
}

// Elections on graphs run on tuned_runner<beauquier_protocol> with the
// silent scheduler (popsim six, the benches, the examples).

constexpr sim_options kSilent{.scheduler = scheduler_kind::silent};

TEST(BeauquierSilentScheduler, AgreesWithReferenceInDistribution) {
  const graph g = make_cycle(16);
  const beauquier_protocol proto(16);
  const auto reference = measure_election(proto, g, 150, rng(10));
  const auto silent = measure_election_tuned(proto, g, 150, rng(11), kSilent);
  stat_gate::expect_step_agreement(reference, silent,
                                   "beauquier cycle 16: silent vs reference");
}

TEST(BeauquierSilentScheduler, RespectsMaxSteps) {
  const graph g = make_cycle(32);
  const beauquier_protocol proto(32);
  const tuned_runner<beauquier_protocol> runner(proto, g);
  const auto r = runner.run(
      rng(11), {.max_steps = 10, .scheduler = scheduler_kind::silent});
  EXPECT_FALSE(r.stabilized);
  EXPECT_EQ(r.steps, 10u);
}

TEST(BeauquierSilentScheduler, DeterministicGivenSeed) {
  const graph g = make_star(20);
  const beauquier_protocol proto(20);
  const tuned_runner<beauquier_protocol> runner(proto, g);
  const auto a = runner.run(rng(12), kSilent);
  const auto b = runner.run(rng(12), kSilent);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.leader, b.leader);
}

TEST(BeauquierSilentScheduler, StableConfigurationVerifiedByBruteForce) {
  const graph g = make_path(3);
  const beauquier_protocol proto(3);
  const tuned_runner<beauquier_protocol> runner(proto, g);
  const auto r = runner.run(rng(13), kSilent);
  ASSERT_TRUE(r.stabilized);
  // Rebuild the stable configuration shape: unique candidate with black token.
  std::vector<bq_state> config(3, bq_state{false, bq_token::none});
  config[static_cast<std::size_t>(r.leader)] = {true, bq_token::black};
  const auto report = brute_force_stability(proto, g, config);
  EXPECT_TRUE(report.exhausted);
  EXPECT_TRUE(report.stable);
}

}  // namespace
}  // namespace pp
