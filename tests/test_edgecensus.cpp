// Edge-census engine subsystem (src/engine/edgecensus/):
//
//   * seeded engine/reference equivalence for star_protocol — the compiled,
//     packed and tuned paths must reproduce the reference simulator's steps,
//     leader, stabilization flag and state census for the same seed on
//     star / cycle / grid / Erdős–Rényi graphs (stability is declared on
//     byte-identical scheduler steps to star_protocol::tracker_type);
//   * the incremental pair-counter invariant — after any sequence of class
//     flips (random, or driven by real interaction prefixes) the counters
//     equal a from-scratch recount of the current class vector;
//   * packed_csr / class_pair_index plumbing.
#include "engine/edgecensus/edgecensus.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "core/simulator.h"
#include "core/star_protocol.h"
#include "engine/edgecensus/census.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "sched/scheduler.h"

namespace pp {
namespace {

// ----------------------------------------------------------- pair indexing

TEST(ClassPairIndex, IsABijectionOverUnorderedPairs) {
  std::set<int> seen;
  for (int a = 0; a < kMaxEdgeClasses; ++a) {
    for (int b = a; b < kMaxEdgeClasses; ++b) {
      const int i = class_pair_index(a, b);
      EXPECT_EQ(i, class_pair_index(b, a));  // unordered
      EXPECT_GE(i, 0);
      EXPECT_LT(i, kMaxClassPairs);
      seen.insert(i);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), kMaxClassPairs);
  EXPECT_EQ(class_pair_index(0, 0), 0);
}

// ------------------------------------------------------------- packed_csr

TEST(PackedCsr, MirrorsGraphAdjacency) {
  rng gen(5);
  const graph g = make_connected_erdos_renyi(60, 0.1, gen);
  const packed_csr<std::uint16_t> csr(g);
  ASSERT_EQ(csr.offsets.size(), static_cast<std::size_t>(g.num_nodes()) + 1);
  ASSERT_EQ(csr.neighbors.size(), 2 * static_cast<std::size_t>(g.num_edges()));
  for (node_id v = 0; v < g.num_nodes(); ++v) {
    const auto row = csr.row(static_cast<std::size_t>(v));
    const auto ref = g.neighbors(v);
    ASSERT_EQ(row.size(), ref.size()) << "node " << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(static_cast<node_id>(row[i]), ref[i]);
    }
  }
}

TEST(PackedCsr, RejectsNodeIdsBeyondTheWordWidth) {
  // A graph of 70000 nodes cannot be viewed at u16 node width.  Keep it a
  // path so construction stays cheap.
  const graph g = make_path(70000);
  EXPECT_THROW(packed_csr<std::uint16_t>{g}, std::invalid_argument);
  EXPECT_NO_THROW(packed_csr<std::uint32_t>{g});
}

// ------------------------------------------- incremental counter invariant

// From-scratch recount of the unordered class-pair counters.
std::array<std::int64_t, kMaxClassPairs> recount(
    const graph& g, std::span<const std::uint8_t> cls) {
  std::array<std::int64_t, kMaxClassPairs> pairs{};
  for (const edge& e : g.edges()) {
    ++pairs[static_cast<std::size_t>(
        class_pair_index(cls[static_cast<std::size_t>(e.u)],
                         cls[static_cast<std::size_t>(e.v)]))];
  }
  return pairs;
}

void expect_counts_match(const edge_class_census& census, const graph& g,
                         const std::string& context) {
  const auto expected = recount(g, census.classes());
  for (int p = 0; p < kMaxClassPairs; ++p) {
    ASSERT_EQ(census.pairs()[p], expected[static_cast<std::size_t>(p)])
        << context << " pair " << p;
  }
}

TEST(EdgeClassCensus, RandomFlipsEqualRecountOnBothAdjacencyViews) {
  rng gen(17);
  const graph g = make_connected_erdos_renyi(50, 0.12, gen);
  const packed_csr<std::uint16_t> csr(g);
  const graph_rows rows{&g};

  std::vector<std::uint8_t> cls(static_cast<std::size_t>(g.num_nodes()));
  for (auto& c : cls) c = static_cast<std::uint8_t>(gen.uniform_below(4));
  edge_class_census via_csr;
  edge_class_census via_graph;
  via_csr.reset(cls, g.edges());
  via_graph.reset(cls, g.edges());
  expect_counts_match(via_csr, g, "initial");

  for (int step = 0; step < 2000; ++step) {
    const auto v = static_cast<std::size_t>(
        gen.uniform_below(static_cast<std::uint64_t>(g.num_nodes())));
    const auto c = static_cast<std::uint8_t>(gen.uniform_below(4));
    const bool moved_csr = via_csr.reclass(csr, v, c);
    const bool moved_graph = via_graph.reclass(rows, v, c);
    ASSERT_EQ(moved_csr, moved_graph);
    if (step % 97 == 0) {
      expect_counts_match(via_csr, g, "csr step " + std::to_string(step));
      expect_counts_match(via_graph, g, "graph step " + std::to_string(step));
    }
  }
  expect_counts_match(via_csr, g, "final csr");
  expect_counts_match(via_graph, g, "final graph");
}

// The ISSUE's property test: drive the census with *real* star-protocol
// interaction prefixes (initiator settled before responder, as in the
// engine's hot loop) and compare against the recount after every prefix.
TEST(EdgeClassCensus, InteractionPrefixesEqualRecount) {
  const star_protocol proto;
  rng graph_gen(23);
  const std::vector<std::pair<std::string, graph>> families = {
      {"star", make_star(40)},
      {"cycle", make_cycle(37)},
      {"er", make_connected_erdos_renyi(44, 0.15, graph_gen)},
  };
  for (const auto& [name, g] : families) {
    const graph_rows rows{&g};
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      std::vector<star_protocol::state_type> config(
          static_cast<std::size_t>(g.num_nodes()));
      for (node_id v = 0; v < g.num_nodes(); ++v) {
        config[static_cast<std::size_t>(v)] = proto.initial_state(v);
      }
      std::vector<std::uint8_t> cls(config.size());
      for (std::size_t v = 0; v < config.size(); ++v) {
        cls[v] = static_cast<std::uint8_t>(
            edge_census_traits<star_protocol>::class_of(proto, config[v]));
      }
      edge_class_census census;
      census.reset(cls, g.edges());

      edge_scheduler sched(g, rng(900 + trial));
      for (int step = 0; step < 400; ++step) {
        const interaction it = sched.next();
        auto& a = config[static_cast<std::size_t>(it.initiator)];
        auto& b = config[static_cast<std::size_t>(it.responder)];
        proto.interact(a, b);
        census.reclass(rows, static_cast<std::size_t>(it.initiator),
                       static_cast<std::uint8_t>(
                           edge_census_traits<star_protocol>::class_of(proto, a)));
        census.reclass(rows, static_cast<std::size_t>(it.responder),
                       static_cast<std::uint8_t>(
                           edge_census_traits<star_protocol>::class_of(proto, b)));
        if (step % 37 == 0) {
          expect_counts_match(census, g, name + " prefix " + std::to_string(step));
        }
      }
      expect_counts_match(census, g, name + " full prefix");
    }
  }
}

// --------------------------------------------- engine/reference equivalence

std::vector<std::pair<std::string, graph>> equivalence_families() {
  rng gen(7);
  std::vector<std::pair<std::string, graph>> fams;
  fams.emplace_back("star", make_star(64));
  fams.emplace_back("cycle", make_cycle(48));
  fams.emplace_back("grid", make_grid_2d(6, 6, false));
  fams.emplace_back("erdos-renyi", make_connected_erdos_renyi(40, 0.15, gen));
  return fams;
}

void expect_star_equivalent(const sim_options& options, std::uint64_t seed_base) {
  const star_protocol proto;
  for (const auto& [name, g] : equivalence_families()) {
    rng seed(seed_base);
    for (std::uint64_t t = 0; t < 6; ++t) {
      const auto ref = run_until_stable(proto, g, seed.fork(t), options);
      const auto fast = run_until_stable_fast(proto, g, seed.fork(t), options);
      ASSERT_EQ(ref.stabilized, fast.stabilized) << name << " trial " << t;
      ASSERT_EQ(ref.steps, fast.steps) << name << " trial " << t;
      ASSERT_EQ(ref.leader, fast.leader) << name << " trial " << t;
      ASSERT_EQ(ref.distinct_states_used, fast.distinct_states_used)
          << name << " trial " << t;
      for (const int bits : {8, 16, 32}) {
        const tuned_runner<star_protocol> runner(proto, g,
                                                 {vertex_order::natural, bits});
        const auto packed = runner.run(seed.fork(t), options);
        ASSERT_EQ(ref.stabilized, packed.stabilized)
            << name << " trial " << t << " u" << bits;
        ASSERT_EQ(ref.steps, packed.steps) << name << " trial " << t << " u" << bits;
        ASSERT_EQ(ref.leader, packed.leader)
            << name << " trial " << t << " u" << bits;
        ASSERT_EQ(ref.distinct_states_used, packed.distinct_states_used)
            << name << " trial " << t << " u" << bits;
      }
    }
  }
}

TEST(EdgeCensusEquivalence, StarAcrossFamilies) {
  // max_steps caps the non-stabilizing runs (two-leader deadlocks on general
  // graphs); equivalence must hold at the cap too.
  expect_star_equivalent({.max_steps = 20000}, 31);
}

TEST(EdgeCensusEquivalence, StarAcrossFamiliesWithCensus) {
  expect_star_equivalent({.max_steps = 20000, .state_census = true}, 32);
}

TEST(EdgeCensusEquivalence, StarStabilizesInOneStepOnStarsInTheEngine) {
  const star_protocol proto;
  rng seed(1);
  for (const node_id n : {2, 5, 100, 3000}) {
    const graph g = make_star(n);
    const tuned_runner<star_protocol> runner(proto, g);
    for (std::uint64_t t = 0; t < 5; ++t) {
      const auto r = runner.run(seed.fork(static_cast<std::uint64_t>(n) * 10 + t));
      ASSERT_TRUE(r.stabilized);
      EXPECT_EQ(r.steps, 1u) << "n=" << n;
      EXPECT_GE(r.leader, 0);
    }
  }
}

TEST(EdgeCensusEquivalence, MeasureElectionTunedMatchesReferenceSummary) {
  rng gen(41);
  const graph g = make_connected_erdos_renyi(32, 0.2, gen);
  const star_protocol proto;
  const sim_options options{.max_steps = 50000};
  const auto ref = measure_election(proto, g, 12, rng(42), options);
  const auto tuned = measure_election_tuned(proto, g, 12, rng(42), options);
  EXPECT_DOUBLE_EQ(ref.steps.mean, tuned.steps.mean);
  EXPECT_DOUBLE_EQ(ref.stabilized_fraction, tuned.stabilized_fraction);
}

// -------------------------------------------------------- reordered layout

TEST(EdgeCensusTuned, ReorderedRunsElectOneLeaderOnStars) {
  // Reordered runs trade per-seed equality for process isomorphism; on a
  // star the one-interaction stabilization is order-independent, so every
  // reorder must still elect in exactly one step with a valid original id.
  const star_protocol proto;
  const graph g = make_star(500);
  for (const auto order : {vertex_order::bfs, vertex_order::rcm}) {
    const tuned_runner<star_protocol> runner(proto, g, {order, 0});
    EXPECT_EQ(runner.pack_bits(), 8);  // 3 states, nibble-safe deltas
    rng seed(77);
    for (std::uint64_t t = 0; t < 6; ++t) {
      const auto r = runner.run(seed.fork(t));
      ASSERT_TRUE(r.stabilized);
      EXPECT_EQ(r.steps, 1u);
      EXPECT_GE(r.leader, 0);
      EXPECT_LT(r.leader, 500);
    }
  }
}

TEST(EdgeCensusTuned, WorkingSetAccountsForTheCsrView) {
  const star_protocol proto;
  const graph g = make_cycle(1000);
  const tuned_runner<star_protocol> runner(proto, g);
  // The accounting must cover at least the CSR adjacency ((n+1) u32 offsets
  // + 2m u16 neighbours on a 1000-node cycle) plus the class byte per node —
  // the arrays the edge-census flip walks actually touch.
  const std::size_t n = 1000;
  const std::size_t m = 1000;
  const std::size_t csr_bytes = (n + 1) * 4 + 2 * m * 2;
  EXPECT_GE(runner.working_set_bytes(), csr_bytes + n);
}

}  // namespace
}  // namespace pp
