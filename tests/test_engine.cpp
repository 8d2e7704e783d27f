#include "engine/engine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/majority.h"
#include "core/simulator.h"
#include "engine/block_rng.h"
#include "graph/generators.h"

namespace pp {
namespace {

// ---------------------------------------------------------------- block_rng

TEST(BlockRng, MatchesRngDrawForDraw) {
  // Same seed, same bound sequence: block_rng must replicate
  // rng::uniform_below exactly, including Lemire rejections.
  rng reference(42);
  block_rng buffered(rng(42));
  const std::uint64_t bounds[] = {2, 3, 7, 1ull << 33, 6, 12345, 2 * 977};
  for (int round = 0; round < 5000; ++round) {
    for (const std::uint64_t bound : bounds) {
      ASSERT_EQ(reference.uniform_below(bound), buffered.uniform_below(bound));
    }
  }
}

// ------------------------------------------------------- compiled_protocol

TEST(CompiledProtocol, ClosureOfBeauquierFindsAllSixStates) {
  const beauquier_protocol proto(8);
  compiled_protocol<beauquier_protocol> compiled(proto);
  for (node_id v = 0; v < 8; ++v) compiled.intern(proto.initial_state(v));
  ASSERT_TRUE(compiled.close(64));
  EXPECT_TRUE(compiled.closed());
  // All candidates initially: reachable space is 5 of the 6 states (a
  // candidate holding a white token resolves instantly and is never
  // observable between interactions).
  EXPECT_GE(compiled.num_states(), 4u);
  EXPECT_LE(compiled.num_states(), 6u);
}

TEST(CompiledProtocol, TransitionsMatchDirectInteract) {
  fast_params params;  // small default space: closes quickly
  const fast_protocol proto(params);
  compiled_protocol<fast_protocol> compiled(proto);
  compiled.intern(proto.initial_state(0));
  ASSERT_TRUE(compiled.close(kEngineClosureBudget));

  const auto k = static_cast<std::uint32_t>(compiled.num_states());
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) {
      auto sa = compiled.decode(a);
      auto sb = compiled.decode(b);
      proto.interact(sa, sb);
      const auto e = compiled.transition(a, b);
      ASSERT_EQ(proto.encode(compiled.decode(e.a2)), proto.encode(sa));
      ASSERT_EQ(proto.encode(compiled.decode(e.b2)), proto.encode(sb));
      // The entry's census delta is consistent with the per-state
      // contributions it was derived from.
      for (int c = 0; c < census_traits<fast_protocol>::kCounters; ++c) {
        const auto i = static_cast<std::size_t>(c);
        ASSERT_EQ(static_cast<int>(e.delta[i]),
                  compiled.contribution(e.a2)[i] + compiled.contribution(e.b2)[i] -
                      compiled.contribution(a)[i] - compiled.contribution(b)[i]);
      }
    }
  }
}

TEST(CompiledProtocol, InternIsStableAndDense) {
  const beauquier_protocol proto(4);
  compiled_protocol<beauquier_protocol> compiled(proto);
  const auto a = compiled.intern(bq_init(true));
  const auto b = compiled.intern(bq_init(false));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(compiled.intern(bq_init(true)), a);
  EXPECT_EQ(compiled.num_states(), 2u);
  EXPECT_EQ(compiled.output(a), role::leader);
  EXPECT_EQ(compiled.output(b), role::follower);
}

// -------------------------------------------------- engine <-> reference

// The graph families every protocol is cross-checked on.
std::vector<std::pair<std::string, graph>> test_families() {
  rng gen(7);
  std::vector<std::pair<std::string, graph>> fams;
  fams.emplace_back("clique", make_clique(24));
  fams.emplace_back("cycle", make_cycle(33));
  fams.emplace_back("grid", make_grid_2d(5, 6, false));
  fams.emplace_back("erdos-renyi", make_connected_erdos_renyi(40, 0.15, gen));
  return fams;
}

// `make_proto` builds the protocol for a given node count (beauquier and
// majority are sized by their input assignment).
template <typename MakeProto>
void expect_equivalent(const MakeProto& make_proto, const sim_options& options,
                       std::uint64_t seed_base) {
  for (const auto& [name, g] : test_families()) {
    const auto proto = make_proto(g.num_nodes());
    rng seed(seed_base);
    for (std::uint64_t t = 0; t < 6; ++t) {
      const auto ref = run_until_stable(proto, g, seed.fork(t), options);
      const auto fast = run_until_stable_fast(proto, g, seed.fork(t), options);
      ASSERT_EQ(ref.stabilized, fast.stabilized) << name << " trial " << t;
      ASSERT_EQ(ref.steps, fast.steps) << name << " trial " << t;
      ASSERT_EQ(ref.leader, fast.leader) << name << " trial " << t;
      ASSERT_EQ(ref.distinct_states_used, fast.distinct_states_used)
          << name << " trial " << t;
    }
  }
}

TEST(EngineEquivalence, FastProtocolAcrossFamilies) {
  expect_equivalent([](node_id) { return fast_protocol(fast_params{}); }, {}, 11);
}

TEST(EngineEquivalence, FastProtocolWithCensus) {
  expect_equivalent([](node_id) { return fast_protocol(fast_params{}); },
                    {.state_census = true}, 12);
}

TEST(EngineEquivalence, BeauquierAcrossFamilies) {
  expect_equivalent([](node_id n) { return beauquier_protocol(n); }, {}, 13);
}

TEST(EngineEquivalence, BeauquierWithCensus) {
  expect_equivalent([](node_id n) { return beauquier_protocol(n); },
                    {.state_census = true}, 14);
}

TEST(EngineEquivalence, MajorityAcrossFamilies) {
  expect_equivalent(
      [](node_id n) {
        rng votes_gen(15);
        return majority_protocol(random_vote_assignment(n, (2 * n) / 3, votes_gen));
      },
      {}, 16);
}

TEST(EngineEquivalence, MaxStepsCapMatchesReference) {
  const graph g = make_cycle(48);
  const beauquier_protocol proto(48);
  const sim_options options{.max_steps = 500, .state_census = true};
  const auto ref = run_until_stable(proto, g, rng(17), options);
  const auto fast = run_until_stable_fast(proto, g, rng(17), options);
  EXPECT_FALSE(fast.stabilized);
  EXPECT_EQ(ref.steps, fast.steps);
  EXPECT_EQ(fast.steps, 500u);
  EXPECT_EQ(ref.leader, fast.leader);
  EXPECT_EQ(ref.distinct_states_used, fast.distinct_states_used);
}

TEST(EngineEquivalence, SizeMismatchedProtocolIsRejected)
{
  // Protocol sized for 8 nodes, graph with 9: initial_state must throw before
  // the engine runs (same contract as the reference simulator).
  const graph g = make_grid_2d(3, 3, false);
  const beauquier_protocol proto(8);
  EXPECT_THROW(run_until_stable_fast(proto, g, rng(1)), std::exception);
}

// --------------------------------------------------------- shared tables

TEST(EngineSharing, ClosedTableSharedAcrossRunsMatchesLazyTables) {
  const graph g = make_clique(16);
  const beauquier_protocol proto(16);

  compiled_protocol<beauquier_protocol> shared(proto);
  for (node_id v = 0; v < 16; ++v) shared.intern(proto.initial_state(v));
  ASSERT_TRUE(shared.close(64));
  const edge_endpoints edges(g);

  rng seed(19);
  for (std::uint64_t t = 0; t < 8; ++t) {
    const auto lazy = run_until_stable_fast(proto, g, seed.fork(t));
    const auto closed = run_compiled(shared, edges, g, seed.fork(t));
    ASSERT_EQ(lazy.steps, closed.steps);
    ASSERT_EQ(lazy.leader, closed.leader);
  }
}

}  // namespace
}  // namespace pp
