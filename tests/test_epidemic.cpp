#include "dynamics/epidemic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/generators.h"
#include "graph/metrics.h"
#include "support/stats.h"

namespace pp {
namespace {

double harmonic(int n) {
  double h = 0.0;
  for (int i = 1; i <= n; ++i) h += 1.0 / i;
  return h;
}

// A verbatim copy of the event-driven broadcast and the estimates as they
// were before the reusable kernel: a fresh 8-byte-per-edge pool per
// broadcast, the fresh node read back through edges(), and log1p(-p)
// recomputed on every wait (only the calls between its functions are
// qualified, against argument-dependent lookup).  The kernel must reproduce
// it bit for bit.
namespace oracle {

std::uint64_t geometric(rng& gen, double p) {
  if (p == 1.0) return 1;
  const double u = 1.0 - gen.uniform01();
  const double draws = std::ceil(std::log(u) / std::log1p(-p));
  if (draws < 1.0) return 1;
  if (draws >= 9.2e18) return std::numeric_limits<std::uint64_t>::max() / 2;
  return static_cast<std::uint64_t>(draws);
}

class edge_id_pool {
 public:
  explicit edge_id_pool(std::size_t universe)
      : position_(universe, npos) {}

  bool contains(std::int64_t id) const {
    return position_[static_cast<std::size_t>(id)] != npos;
  }

  void insert(std::int64_t id) {
    if (contains(id)) return;
    position_[static_cast<std::size_t>(id)] = members_.size();
    members_.push_back(id);
  }

  void erase(std::int64_t id) {
    const std::size_t pos = position_[static_cast<std::size_t>(id)];
    if (pos == npos) return;
    const std::int64_t last = members_.back();
    members_[pos] = last;
    position_[static_cast<std::size_t>(last)] = pos;
    members_.pop_back();
    position_[static_cast<std::size_t>(id)] = npos;
  }

  std::size_t size() const { return members_.size(); }

  std::int64_t sample(rng& gen) const {
    return members_[static_cast<std::size_t>(gen.uniform_below(members_.size()))];
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> position_;
  std::vector<std::int64_t> members_;
};

broadcast_result simulate_broadcast(const graph& g, node_id source, rng gen) {
  const node_id n = g.num_nodes();
  const double m = static_cast<double>(g.num_edges());

  broadcast_result result;
  result.infection_step.assign(static_cast<std::size_t>(n), 0);
  std::vector<bool> informed(static_cast<std::size_t>(n), false);
  informed[static_cast<std::size_t>(source)] = true;

  edge_id_pool boundary(static_cast<std::size_t>(g.num_edges()));
  for (const std::int64_t id : g.incident_edge_ids(source)) boundary.insert(id);

  std::uint64_t step = 0;
  node_id remaining = n - 1;
  while (remaining > 0) {
    step += geometric(gen, static_cast<double>(boundary.size()) / m);
    const std::int64_t hit = boundary.sample(gen);
    const edge& e = g.edges()[static_cast<std::size_t>(hit)];
    const node_id fresh = informed[static_cast<std::size_t>(e.u)] ? e.v : e.u;

    informed[static_cast<std::size_t>(fresh)] = true;
    result.infection_step[static_cast<std::size_t>(fresh)] = step;
    --remaining;
    const auto nbrs = g.neighbors(fresh);
    const auto ids = g.incident_edge_ids(fresh);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (informed[static_cast<std::size_t>(nbrs[i])]) {
        boundary.erase(ids[i]);
      } else {
        boundary.insert(ids[i]);
      }
    }
  }
  result.completion_step = step;
  return result;
}

double estimate_broadcast_time(const graph& g, node_id source, int trials, rng gen) {
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto r =
        oracle::simulate_broadcast(g, source, gen.fork(static_cast<std::uint64_t>(t)));
    total += static_cast<double>(r.completion_step);
  }
  return total / trials;
}

broadcast_time_estimate estimate_worst_case_broadcast_time(
    const graph& g, int trials_per_source, int max_sources, rng gen) {
  const node_id n = g.num_nodes();
  std::vector<node_id> sources;
  if (n <= max_sources) {
    for (node_id v = 0; v < n; ++v) sources.push_back(v);
  } else {
    node_id lo = 0;
    node_id hi = 0;
    for (node_id v = 0; v < n; ++v) {
      if (g.degree(v) < g.degree(lo)) lo = v;
      if (g.degree(v) > g.degree(hi)) hi = v;
    }
    sources.push_back(lo);
    sources.push_back(hi);
    while (static_cast<int>(sources.size()) < max_sources) {
      sources.push_back(static_cast<node_id>(
          gen.uniform_below(static_cast<std::uint64_t>(n))));
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  }

  broadcast_time_estimate est;
  est.min_value = -1.0;
  std::uint64_t stream = 0;
  for (const node_id v : sources) {
    const double mean =
        oracle::estimate_broadcast_time(g, v, trials_per_source, gen.fork(stream++));
    if (mean > est.value) {
      est.value = mean;
      est.argmax = v;
    }
    if (est.min_value < 0.0 || mean < est.min_value) est.min_value = mean;
  }
  return est;
}

}  // namespace oracle

struct named_graph {
  const char* name;
  graph g;
  node_id source;  // a source whose broadcast the test replays directly
};

std::vector<named_graph> oracle_graphs() {
  rng gen(41);
  return {
      {"rr8", make_random_regular(300, 8, gen), 17},
      {"torus", make_grid_2d(12, 12, true), 5},
      {"cycle", make_cycle(60), 0},
      {"clique", make_clique(40), 3},
      {"er_dense", make_connected_erdos_renyi(80, 0.5, gen), 9},
      {"lollipop", make_lollipop(10, 15), 24},
      {"K2", make_clique(2), 1},
      // From the centre every edge is a boundary edge, so the first wait has
      // p = 1 and consumes no draw.
      {"star", make_star(50), 0},
  };
}

TEST(Broadcast, KernelMatchesParentOracle) {
  for (const auto& [name, g, source] : oracle_graphs()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto got = simulate_broadcast(g, source, rng(seed));
      const auto want = oracle::simulate_broadcast(g, source, rng(seed));
      EXPECT_EQ(got.infection_step, want.infection_step) << name << " seed " << seed;
      EXPECT_EQ(got.completion_step, want.completion_step) << name << " seed " << seed;

      EXPECT_EQ(estimate_broadcast_time(g, source, 7, rng(seed)),
                oracle::estimate_broadcast_time(g, source, 7, rng(seed)))
          << name << " seed " << seed;
      const auto est = estimate_worst_case_broadcast_time(g, 5, 4, rng(seed));
      const auto ref = oracle::estimate_worst_case_broadcast_time(g, 5, 4, rng(seed));
      EXPECT_EQ(est.value, ref.value) << name << " seed " << seed;
      EXPECT_EQ(est.argmax, ref.argmax) << name << " seed " << seed;
      EXPECT_EQ(est.min_value, ref.min_value) << name << " seed " << seed;
    }
  }
  // popsim's calibration budget, (30, 6), on the graph family it runs by
  // default.
  rng gen(7);
  const graph g = make_random_regular(1000, 8, gen);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto est = estimate_worst_case_broadcast_time(g, 30, 6, rng(seed));
    const auto ref = oracle::estimate_worst_case_broadcast_time(g, 30, 6, rng(seed));
    EXPECT_EQ(est.value, ref.value) << "seed " << seed;
    EXPECT_EQ(est.argmax, ref.argmax) << "seed " << seed;
    EXPECT_EQ(est.min_value, ref.min_value) << "seed " << seed;
  }
}

TEST(Broadcast, WorkspaceReuseMatchesFreshRuns) {
  // Back-to-back broadcasts on one workspace see the state the previous one
  // left: an empty pool and n informed bytes to reset.  Each must equal a
  // fresh run, with its infection steps too.
  for (const auto& [name, g, source] : oracle_graphs()) {
    detail::broadcast_workspace workspace(g);
    const node_id other = g.num_nodes() - 1 - source;
    for (const node_id v : {source, other, source}) {
      std::vector<std::uint64_t> steps(static_cast<std::size_t>(g.num_nodes()), 0);
      const std::uint64_t done = workspace.run(v, rng(v + 100), steps.data());
      const auto fresh = oracle::simulate_broadcast(g, v, rng(v + 100));
      EXPECT_EQ(done, fresh.completion_step) << name << " source " << v;
      EXPECT_EQ(steps, fresh.infection_step) << name << " source " << v;
    }
  }
}

TEST(Broadcast, InfectsEveryone) {
  const graph g = make_cycle(20);
  const auto r = simulate_broadcast(g, 3, rng(1));
  int at_zero = 0;
  for (node_id v = 0; v < 20; ++v) {
    if (r.infection_step[static_cast<std::size_t>(v)] == 0) ++at_zero;
  }
  EXPECT_EQ(at_zero, 1);  // only the source
  EXPECT_GT(r.completion_step, 0u);
}

TEST(Broadcast, InfectionStepsBoundedByCompletion) {
  const graph g = make_clique(12);
  const auto r = simulate_broadcast(g, 0, rng(2));
  std::uint64_t max_step = 0;
  for (const auto s : r.infection_step) max_step = std::max(max_step, s);
  EXPECT_EQ(max_step, r.completion_step);
}

TEST(Broadcast, CliqueMatchesClosedForm) {
  // E[T(v)] on K_n is exactly (n-1)·H_{n-1}.
  const int n = 64;
  const graph g = make_clique(n);
  const double expected = (n - 1) * harmonic(n - 1);
  const double measured = estimate_broadcast_time(g, 0, 3000, rng(3));
  EXPECT_NEAR(measured, expected, 0.04 * expected);
}

TEST(Broadcast, CycleMatchesClosedForm) {
  // The infected set is an arc with a 2-edge boundary at every stage, so
  // E[T(v)] = (n-1)·m/2 = n(n-1)/2 exactly.
  const int n = 32;
  const graph g = make_cycle(n);
  const double expected = n * (n - 1) / 2.0;
  const double measured = estimate_broadcast_time(g, 5, 2000, rng(4));
  EXPECT_NEAR(measured, expected, 0.05 * expected);
}

TEST(Broadcast, StarFromCentreMatchesClosedForm) {
  // From the centre: coupon collector over leaves, E = (n-1)·H_{n-1}.
  const int n = 40;
  const graph g = make_star(n);
  const double expected = (n - 1) * harmonic(n - 1);
  const double measured = estimate_broadcast_time(g, 0, 3000, rng(5));
  EXPECT_NEAR(measured, expected, 0.05 * expected);
}

TEST(Broadcast, NaiveAndEventDrivenAgree) {
  // Identical distribution; compare means and dispersion over many trials.
  for (const auto& g : {make_cycle(12), make_star(10), make_clique(8)}) {
    std::vector<double> naive;
    std::vector<double> event;
    rng gen(6);
    for (int t = 0; t < 1200; ++t) {
      naive.push_back(static_cast<double>(
          simulate_broadcast_naive(g, 0, gen.fork(2 * t)).completion_step));
      event.push_back(static_cast<double>(
          simulate_broadcast(g, 0, gen.fork(2 * t + 1)).completion_step));
    }
    const auto a = summarize(naive);
    const auto b = summarize(event);
    EXPECT_NEAR(a.mean, b.mean, 4 * (a.ci95_halfwidth + b.ci95_halfwidth))
        << "graph with n=" << g.num_nodes();
    EXPECT_NEAR(a.median, b.median, 0.25 * a.mean);
  }
}

TEST(Broadcast, Theorem6UpperBoundHolds) {
  // B(G) <= m·max{6 ln n, D} + 2 (Lemma 8).
  rng gen(7);
  const std::vector<graph> graphs{make_cycle(48), make_clique(24), make_star(32),
                                  make_grid_2d(6, 6, true)};
  for (const auto& g : graphs) {
    const double n = g.num_nodes();
    const double m = static_cast<double>(g.num_edges());
    const double d = diameter(g);
    const double bound = m * std::max(6.0 * std::log(n), d) + 2.0;
    const double measured =
        estimate_broadcast_time(g, 0, 200, gen.fork(static_cast<std::uint64_t>(m)));
    EXPECT_LE(measured, bound) << "n=" << n << " m=" << m;
  }
}

TEST(Broadcast, Lemma12LowerBoundHolds) {
  // B(G) >= (m/Δ)·ln(n-1); allow 5% Monte-Carlo slack on the estimate.
  rng gen(8);
  const std::vector<graph> graphs{make_cycle(40), make_clique(24), make_star(40),
                                  make_grid_2d(6, 6, true)};
  for (const auto& g : graphs) {
    const double bound = static_cast<double>(g.num_edges()) / g.max_degree() *
                         std::log(static_cast<double>(g.num_nodes() - 1));
    const auto est = estimate_worst_case_broadcast_time(
        g, 200, 16, gen.fork(static_cast<std::uint64_t>(g.num_nodes())));
    EXPECT_GE(est.value, 0.95 * bound) << "n=" << g.num_nodes();
  }
}

TEST(Broadcast, WorstCaseEstimateAtLeastSingleSource) {
  const graph g = make_lollipop(8, 12);
  const double single = estimate_broadcast_time(g, 0, 100, rng(9));
  const auto worst = estimate_worst_case_broadcast_time(g, 100, 30, rng(9));
  EXPECT_GE(worst.value, 0.8 * single);
  EXPECT_GE(worst.value, worst.min_value);
}

TEST(Propagation, DistanceKStepsIncrease) {
  const graph g = make_cycle(40);
  const auto dist = bfs_distances(g, 0);
  rng gen(10);
  double t5 = 0.0;
  double t20 = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto r = simulate_broadcast(g, 0, gen.fork(t));
    t5 += static_cast<double>(distance_k_propagation_step(r, dist, 5));
    t20 += static_cast<double>(distance_k_propagation_step(r, dist, 20));
  }
  EXPECT_LT(t5 / trials, t20 / trials);
}

TEST(Propagation, MissingDistanceGivesInfinity) {
  const graph g = make_clique(6);  // diameter 1
  const auto dist = bfs_distances(g, 0);
  const auto r = simulate_broadcast(g, 0, rng(11));
  EXPECT_EQ(distance_k_propagation_step(r, dist, 3), static_cast<std::uint64_t>(-1));
}

TEST(Propagation, Lemma14LowerBoundOnCycle) {
  // P[T_k < km/(Δe³)] <= 1/n for k >= ln n; on a cycle Δ = 2.
  const int n = 64;
  const graph g = make_cycle(n);
  const auto dist = bfs_distances(g, 0);
  const int k = 16;
  const double threshold =
      static_cast<double>(k) * g.num_edges() / (2.0 * std::exp(3.0));
  rng gen(12);
  int below = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const auto r = simulate_broadcast(g, 0, gen.fork(t));
    if (static_cast<double>(distance_k_propagation_step(r, dist, k)) < threshold) {
      ++below;
    }
  }
  EXPECT_LE(below, trials / 16);
}

TEST(Broadcast, DisconnectedGraphThrows) {
  const graph g = graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(simulate_broadcast(g, 0, rng(13)), std::logic_error);
}

TEST(Broadcast, DeterministicGivenSeed) {
  const graph g = make_grid_2d(5, 5, false);
  const auto a = simulate_broadcast(g, 7, rng(14));
  const auto b = simulate_broadcast(g, 7, rng(14));
  EXPECT_EQ(a.completion_step, b.completion_step);
  EXPECT_EQ(a.infection_step, b.infection_step);
}

}  // namespace
}  // namespace pp
