// Tests for the extension surfaces: the Corollary 25 regular-graph
// parameterisation, population-model cover times (Lemma 19), the Lemma 43
// greedy tree embedding, the paper-constant protocol preset, and edge cases
// of every protocol on minimal and exotic graphs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fast_election.h"
#include "core/id_election.h"
#include "core/simulator.h"
#include "core/star_protocol.h"
#include "dynamics/epidemic.h"
#include "dynamics/influence.h"
#include "dynamics/random_walk.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/metrics.h"

namespace pp {
namespace {

// ---------- Corollary 25 parameterisation ----------

TEST(Corollary25, StreakLengthTracksConductance) {
  // h = offset + ceil(log2(Δ·lg n / β)): the cycle (φ small) needs a longer
  // streak than the clique (φ ~ 1/2).
  const graph cycle = make_cycle(64);
  const graph clique = make_clique(64);
  const double beta_cycle = 2.0 / 32.0;
  const double beta_clique = 32.0;
  const fast_params pc = fast_params::for_regular(cycle, beta_cycle);
  const fast_params pk = fast_params::for_regular(clique, beta_clique);
  EXPECT_GT(pc.h, pk.h);
  // h(G) = O(log log n + log(1/φ)) stays tiny even for the cycle.
  EXPECT_LE(pc.h, 14);
  EXPECT_GE(pk.h, 1);
}

TEST(Corollary25, RejectsIrregularGraphs) {
  EXPECT_THROW(fast_params::for_regular(make_star(8), 1.0), std::invalid_argument);
  EXPECT_THROW(fast_params::for_regular(make_cycle(8), 0.0), std::invalid_argument);
}

TEST(Corollary25, RegularPresetElectsOnRegularFamilies) {
  rng seed(1);
  struct setup {
    graph g;
    double beta;
  };
  std::vector<setup> cases;
  cases.push_back({make_cycle(16), 2.0 / 8.0});
  cases.push_back({make_grid_2d(4, 4, true), 4.0 / 8.0});
  cases.push_back({make_hypercube(4), 1.0});
  for (auto& c : cases) {
    const fast_protocol proto(fast_params::for_regular(c.g, c.beta));
    for (int t = 0; t < 3; ++t) {
      const auto r = run_until_stable(proto, c.g, seed.fork(static_cast<std::uint64_t>(t) + c.g.num_edges()),
                                      {.max_steps = 50'000'000});
      EXPECT_TRUE(r.stabilized);
    }
  }
}

TEST(Corollary25, PaperPresetAlsoElects) {
  // The paper's union-bound constants (offset 8, α = 8) on a small clique.
  const graph g = make_clique(8);
  const double b = estimate_broadcast_time(g, 0, 30, rng(2));
  const fast_protocol proto(fast_params::paper(g, b));
  rng seed(3);
  for (int t = 0; t < 3; ++t) {
    const auto r = run_until_stable(proto, g, seed.fork(t),
                                    {.max_steps = 100'000'000});
    EXPECT_TRUE(r.stabilized);
  }
}

// ---------- population cover time (Lemma 19) ----------

TEST(PopulationCoverTime, RegularGraphIsClassicTimesMOverD) {
  const int n = 12;
  const graph g = make_cycle(n);
  rng gen(4);
  double classic = 0.0;
  double population = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    classic += static_cast<double>(sample_classic_cover_time(g, 0, gen));
    population += static_cast<double>(sample_population_cover_time(g, 0, gen));
  }
  const double ratio = population / classic;
  // Every move of the walk costs Geometric(d/m) = n/2 steps on the cycle.
  EXPECT_NEAR(ratio, n / 2.0, 0.1 * n / 2.0);
}

TEST(PopulationCoverTime, Lemma19UpperBound) {
  // Cover (and hence visit-every-node) time within O(H·n·log n) steps: use
  // the explicit 54·H·n·log n envelope from the Lemma 19 proof.
  rng gen(5);
  for (const auto& g : {make_cycle(16), make_clique(12), make_star(12)}) {
    const double h = exact_worst_case_hitting_time(g);
    const double n = static_cast<double>(g.num_nodes());
    const double bound = 54.0 * h * n * std::log2(n);
    double total = 0.0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
      total += static_cast<double>(sample_population_cover_time(g, 0, gen));
    }
    EXPECT_LE(total / trials, bound);
  }
}

// ---------- Lemma 43 tree embedding ----------

TEST(EmbedTree, PathIntoClique) {
  const graph g = make_clique(10);
  std::vector<bool> allowed(10, true);
  const graph tree = make_path(6);
  const auto image = embed_tree_greedy(g, allowed, tree);
  ASSERT_EQ(image.size(), 6u);
  for (node_id i = 0; i + 1 < 6; ++i) {
    EXPECT_TRUE(g.has_edge(image[static_cast<std::size_t>(i)],
                           image[static_cast<std::size_t>(i) + 1]));
  }
}

TEST(EmbedTree, ImagesAreDistinctAndAllowed) {
  const graph g = make_clique(12);
  std::vector<bool> allowed(12, false);
  for (node_id v = 3; v < 11; ++v) allowed[static_cast<std::size_t>(v)] = true;
  const graph tree = make_binary_tree(7);
  const auto image = embed_tree_greedy(g, allowed, tree);
  ASSERT_FALSE(image.empty());
  std::vector<bool> used(12, false);
  for (const node_id v : image) {
    EXPECT_TRUE(allowed[static_cast<std::size_t>(v)]);
    EXPECT_FALSE(used[static_cast<std::size_t>(v)]);
    used[static_cast<std::size_t>(v)] = true;
  }
  // Every tree edge maps to a graph edge.
  for (const edge& e : tree.edges()) {
    EXPECT_TRUE(g.has_edge(image[static_cast<std::size_t>(e.u)],
                           image[static_cast<std::size_t>(e.v)]));
  }
}

TEST(EmbedTree, FailsWhenHostTooSmall) {
  const graph g = make_clique(5);
  std::vector<bool> allowed(5, false);
  allowed[0] = allowed[1] = true;
  EXPECT_TRUE(embed_tree_greedy(g, allowed, make_path(3)).empty());
}

TEST(EmbedTree, FailsOnDegreeBottleneck) {
  // A star host cannot hold a path of length 4 (leaves have degree 1).
  const graph g = make_star(8);
  std::vector<bool> allowed(8, true);
  EXPECT_TRUE(embed_tree_greedy(g, allowed, make_path(5)).empty());
  // But it holds any star-shaped tree rooted appropriately.
  EXPECT_FALSE(embed_tree_greedy(g, allowed, make_star(5)).empty());
}

TEST(EmbedTree, Lemma43SurvivorsHoldPolynomialTrees) {
  // On a dense graph at t = 0.1·n·ln n, the non-interacted survivors induce
  // a subgraph containing decent-sized trees — the constructive heart of
  // Lemma 43.
  const node_id n = 256;
  rng gen(6);
  const graph g = make_connected_erdos_renyi(n, 0.5, gen);
  const auto t = static_cast<std::uint64_t>(0.1 * n * std::log(n));
  const auto sched = record_schedule(g, t, gen.fork(1));
  const auto first = first_interaction_steps(sched, n);
  std::vector<bool> survivors(static_cast<std::size_t>(n), false);
  for (node_id v = 0; v < n; ++v) {
    survivors[static_cast<std::size_t>(v)] = first[static_cast<std::size_t>(v)] == 0;
  }
  const auto tree_size = static_cast<node_id>(std::pow(n, 0.4));
  EXPECT_FALSE(embed_tree_greedy(g, survivors, make_binary_tree(tree_size)).empty());
  EXPECT_FALSE(embed_tree_greedy(g, survivors, make_path(tree_size)).empty());
}

// ---------- minimal and exotic graph edge cases ----------

TEST(EdgeCases, TwoNodeGraphAllProtocols) {
  const graph g = make_path(2);
  rng seed(7);
  {
    const beauquier_protocol proto(2);
    const auto r = run_until_stable(proto, g, seed.fork(0));
    EXPECT_TRUE(r.stabilized);
  }
  {
    const id_protocol proto(2);
    const auto r = run_until_stable(proto, g, seed.fork(1), {.max_steps = 1'000'000});
    EXPECT_TRUE(r.stabilized);
  }
  {
    fast_params p;
    p.h = 1;
    p.level_threshold = 1;
    p.max_level = 2;
    const fast_protocol proto(p);
    const auto r = run_until_stable(proto, g, seed.fork(2), {.max_steps = 1'000'000});
    EXPECT_TRUE(r.stabilized);
  }
  {
    const star_protocol proto;
    const auto r = run_until_stable(proto, g, seed.fork(3));
    EXPECT_TRUE(r.stabilized);
    EXPECT_EQ(r.steps, 1u);
  }
}

class ExoticFamilies : public ::testing::TestWithParam<int> {};

TEST_P(ExoticFamilies, BeauquierElectsEverywhere) {
  const int idx = GetParam();
  rng make_gen(30 + idx);
  std::vector<graph> graphs;
  graphs.push_back(make_hypercube(4));
  graphs.push_back(make_barbell(6, 3));
  graphs.push_back(make_lollipop(8, 8));
  graphs.push_back(make_complete_bipartite(5, 9));
  graphs.push_back(make_binary_tree(15));
  graphs.push_back(make_random_regular(16, 3, make_gen));
  const graph& g = graphs[static_cast<std::size_t>(idx)];

  const beauquier_protocol proto(g.num_nodes());
  const tuned_runner<beauquier_protocol> runner(proto, g);
  rng seed(40 + idx);
  for (int t = 0; t < 4; ++t) {
    const auto r =
        runner.run(seed.fork(t), {.scheduler = scheduler_kind::silent});
    EXPECT_TRUE(r.stabilized);
    EXPECT_GE(r.leader, 0);
    EXPECT_LT(r.leader, g.num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, ExoticFamilies, ::testing::Range(0, 6));

TEST(EdgeCases, FastProtocolLevelNeverExceedsMax) {
  fast_params p;
  p.h = 1;
  p.level_threshold = 1;
  p.max_level = 3;
  const fast_protocol proto(p);
  const graph g = make_clique(6);
  std::vector<fast_protocol::state_type> config(6);
  for (node_id v = 0; v < 6; ++v) config[static_cast<std::size_t>(v)] = proto.initial_state(v);
  edge_scheduler sched(g, rng(8));
  for (int step = 0; step < 20000; ++step) {
    const interaction it = sched.next();
    proto.interact(config[static_cast<std::size_t>(it.initiator)],
                   config[static_cast<std::size_t>(it.responder)]);
    for (const auto& s : config) {
      ASSERT_LE(static_cast<int>(s.level), p.max_level);
      ASSERT_LT(static_cast<int>(s.streak), p.h + 1);
    }
  }
}

TEST(EdgeCases, IdProtocolMaxBitLength) {
  const id_protocol proto(62);
  auto a = proto.initial_state(0);
  auto b = proto.initial_state(1);
  for (int i = 0; i < 62; ++i) proto.interact(a, b);
  EXPECT_GE(a.id, proto.id_threshold());
  EXPECT_LT(a.id, 2 * proto.id_threshold());  // no overflow
  EXPECT_LT(b.id, 2 * proto.id_threshold());
}

TEST(EdgeCases, BroadcastOnTwoNodes) {
  const graph g = make_path(2);
  const auto r = simulate_broadcast(g, 0, rng(9));
  EXPECT_GE(r.completion_step, 1u);
  EXPECT_EQ(r.infection_step[1], r.completion_step);
}

}  // namespace
}  // namespace pp
