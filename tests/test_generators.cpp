#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/metrics.h"

namespace pp {
namespace {

TEST(Clique, SizeAndDegrees) {
  const graph g = make_clique(7);
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.num_edges(), 21);
  EXPECT_EQ(g.min_degree(), 6);
  EXPECT_EQ(g.max_degree(), 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(Path, Structure) {
  const graph g = make_path(6);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(3), 2);
  EXPECT_EQ(diameter(g), 5);
}

TEST(Cycle, Structure) {
  const graph g = make_cycle(8);
  EXPECT_EQ(g.num_edges(), 8);
  EXPECT_EQ(g.min_degree(), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(diameter(g), 4);
}

TEST(Cycle, MinimumSize) {
  EXPECT_NO_THROW(make_cycle(3));
  EXPECT_THROW(make_cycle(2), std::invalid_argument);
}

TEST(Star, CentreAndLeaves) {
  const graph g = make_star(10);
  EXPECT_EQ(g.num_edges(), 9);
  EXPECT_EQ(g.degree(0), 9);
  for (node_id v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1);
  EXPECT_EQ(diameter(g), 2);
}

TEST(CompleteBipartite, Structure) {
  const graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.degree(3), 3);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 5));
}

TEST(BinaryTree, Structure) {
  const graph g = make_binary_tree(7);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.degree(6), 1);
}

TEST(Grid, NonTorus) {
  const graph g = make_grid_2d(3, 4, false);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_EQ(diameter(g), 5);
}

TEST(Grid, TorusIsRegular) {
  const graph g = make_grid_2d(4, 4, true);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_EQ(g.max_degree(), 4);
}

TEST(Grid, TorusRejectsWrapOfTwo) {
  EXPECT_THROW(make_grid_2d(2, 5, true), std::invalid_argument);
}

TEST(Grid3d, TorusIsSixRegular) {
  const graph g = make_grid_3d(4);
  EXPECT_EQ(g.num_nodes(), 64);
  EXPECT_EQ(g.num_edges(), 3 * 64);
  EXPECT_EQ(g.min_degree(), 6);
  EXPECT_EQ(g.max_degree(), 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(Grid3d, DiameterIsThreeHalfSides) {
  EXPECT_EQ(diameter(make_grid_3d(4)), 6);
  EXPECT_EQ(diameter(make_grid_3d(5)), 6);  // 3 * floor(5/2)
}

TEST(Grid3d, RejectsTinySides) {
  EXPECT_THROW(make_grid_3d(2), std::invalid_argument);
}

TEST(Hypercube, Structure) {
  const graph g = make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_EQ(diameter(g), 4);
}

TEST(Barbell, Structure) {
  const graph g = make_barbell(5, 3);
  EXPECT_EQ(g.num_nodes(), 13);
  EXPECT_TRUE(is_connected(g));
  // Two K_5's plus a 4-edge bridge through 3 nodes.
  EXPECT_EQ(g.num_edges(), 10 + 10 + 4);
}

TEST(Barbell, DirectJoin) {
  const graph g = make_barbell(3, 0);
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(Lollipop, Structure) {
  const graph g = make_lollipop(6, 4);
  EXPECT_EQ(g.num_nodes(), 10);
  EXPECT_EQ(g.num_edges(), 15 + 4);
  EXPECT_EQ(g.degree(9), 1);
  EXPECT_TRUE(is_connected(g));
}

TEST(ErdosRenyi, EdgeCountConcentrates) {
  rng gen(1);
  const node_id n = 100;
  const double p = 0.2;
  const graph g = make_erdos_renyi(n, p, gen);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 4 * std::sqrt(expected));
}

TEST(ErdosRenyi, ExtremesMatch) {
  rng gen(2);
  EXPECT_EQ(make_erdos_renyi(10, 1.0, gen).num_edges(), 45);
  EXPECT_EQ(make_erdos_renyi(10, 0.0, gen).num_edges(), 0);
}

TEST(ErdosRenyi, DifferentSeedsDifferentGraphs) {
  rng g1(3);
  rng g2(4);
  const graph a = make_erdos_renyi(50, 0.3, g1);
  const graph b = make_erdos_renyi(50, 0.3, g2);
  EXPECT_NE(a.edges(), b.edges());
}

// make_erdos_renyi as it was before its decoder carried the row forward: it
// decoded every edge's linear index by walking rows from row 0.
graph erdos_renyi_row_walk_oracle(node_id n, double p, rng& gen) {
  std::vector<edge> edges;
  const std::int64_t total = static_cast<std::int64_t>(n) * (n - 1) / 2;
  std::int64_t idx = static_cast<std::int64_t>(gen.geometric(p)) - 1;
  while (idx < total) {
    node_id u = 0;
    std::int64_t rem = idx;
    std::int64_t row = n - 1;
    while (rem >= row) {
      rem -= row;
      --row;
      ++u;
    }
    const node_id v = static_cast<node_id>(u + 1 + rem);
    edges.push_back({u, v});
    idx += static_cast<std::int64_t>(gen.geometric(p));
  }
  return graph::from_edges(n, edges);
}

TEST(ErdosRenyi, MatchesRowWalkOracle) {
  for (const node_id n : {2, 3, 17, 150}) {
    for (const double p : {0.01, 0.2, 0.5, 0.999}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        rng a(seed);
        rng b(seed);
        const graph got = make_erdos_renyi(n, p, a);
        const graph want = erdos_renyi_row_walk_oracle(n, p, b);
        EXPECT_EQ(got.edges(), want.edges()) << "n=" << n << " p=" << p << " seed " << seed;
        // Same draws consumed: the generators leave equal states.
        EXPECT_EQ(a(), b()) << "n=" << n << " p=" << p << " seed " << seed;
      }
    }
  }
}

TEST(ConnectedErdosRenyi, IsConnected) {
  rng gen(5);
  for (int i = 0; i < 5; ++i) {
    const graph g = make_connected_erdos_renyi(40, 0.15, gen);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(ConnectedErdosRenyi, HopelessParametersThrow) {
  rng gen(6);
  EXPECT_THROW(make_connected_erdos_renyi(50, 0.0, gen, 3), std::runtime_error);
}

TEST(RandomRegular, DegreesExact) {
  rng gen(7);
  for (const node_id d : {2, 4, 8}) {
    const graph g = make_random_regular(64, d, gen);
    EXPECT_EQ(g.min_degree(), d);
    EXPECT_EQ(g.max_degree(), d);
    EXPECT_EQ(g.num_edges(), 64 * d / 2);
  }
}

TEST(RandomRegular, RejectsOddProduct) {
  rng gen(8);
  EXPECT_THROW(make_random_regular(5, 3, gen), std::invalid_argument);
}

TEST(RandomRegular, ConnectedWithHighProbability) {
  rng gen(9);
  // d >= 3 random regular graphs are connected w.h.p.; check a few samples.
  int connected = 0;
  for (int i = 0; i < 5; ++i) {
    if (is_connected(make_random_regular(50, 4, gen))) ++connected;
  }
  EXPECT_GE(connected, 4);
}

TEST(Renitent, NodeAndEdgeCounts) {
  const graph base = make_clique(6);
  const node_id ell = 5;
  const graph g = make_renitent(base, 0, ell);
  // 4 copies + 4 paths of 2*ell-1 internal nodes each.
  EXPECT_EQ(g.num_nodes(), 4 * 6 + 4 * (2 * ell - 1));
  EXPECT_EQ(g.num_edges(), 4 * base.num_edges() + 4 * 2 * ell);
  EXPECT_TRUE(is_connected(g));
}

TEST(Renitent, DiameterScalesWithEll) {
  const graph base = make_clique(4);
  const graph small = make_renitent(base, 0, 2);
  const graph large = make_renitent(base, 0, 8);
  // Opposite copies are two paths of length 2*ell apart.
  EXPECT_GT(diameter(large), diameter(small) + 10);
  EXPECT_GE(diameter(large), 2 * 8);
}

TEST(Renitent, FourIsomorphicCopies) {
  const graph base = make_cycle(5);
  const graph g = make_renitent(base, 2, 3);
  // Every base node keeps its base degree except the four anchors (+2 path
  // endpoints each).
  for (int copy = 0; copy < 4; ++copy) {
    for (node_id v = 0; v < 5; ++v) {
      const node_id mapped = static_cast<node_id>(copy * 5 + v);
      const node_id expected = v == 2 ? 4 : 2;
      EXPECT_EQ(g.degree(mapped), expected);
    }
  }
}

TEST(Theorem39, CliqueBaseForSuperQuadraticTargets) {
  rng gen(10);
  theorem39_spec spec;
  const auto target = [](double n) { return n * n * n / 4.0; };  // Θ(n³)
  const graph g = theorem39_graph(32, target, gen, &spec);
  EXPECT_TRUE(spec.clique_base);
  EXPECT_GE(spec.ell, 1);
  EXPECT_TRUE(is_connected(g));
}

TEST(Theorem39, StarBaseForNearLinearTargets) {
  rng gen(11);
  theorem39_spec spec;
  const auto target = [](double n) { return n * std::log2(n) * 4.0; };
  const graph g = theorem39_graph(64, target, gen, &spec);
  EXPECT_FALSE(spec.clique_base);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(spec.extra_edges, 0);
}

TEST(Theorem39, RejectsOutOfRangeTargets) {
  rng gen(12);
  EXPECT_THROW(theorem39_graph(64, [](double) { return 1.0; }, gen),
               std::invalid_argument);
}

}  // namespace
}  // namespace pp
