#include "engine/engine.h"

#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <set>
#include <string>
#include <vector>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/majority.h"
#include "core/simulator.h"
#include "core/star_protocol.h"
#include "engine/block_rng.h"
#include "engine/wellmixed/wellmixed.h"
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

// The round-rescan closure: every round walks every pair over the ids known
// at its start and compiles those touching a new id.  close() must intern in
// exactly this order, since state ids fix table entries, artifact bytes and
// seeded trajectories.
template <typename P>
bool close_by_round_rescan(compiled_protocol<P>& compiled, std::size_t max_states) {
  std::size_t done = 0;
  while (done < compiled.num_states()) {
    if (compiled.num_states() > max_states) return false;
    const std::size_t k = compiled.num_states();
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = 0; b < k; ++b) {
        if (a >= done || b >= done) {
          compiled.transition(static_cast<std::uint32_t>(a),
                              static_cast<std::uint32_t>(b));
        }
      }
    }
    done = k;
  }
  return true;
}

// Closes `closed` and a round-rescan oracle from the same seeds and checks
// they agree on the outcome, every state id and (when the closure fits)
// every table entry.
template <typename P>
void expect_closure_matches_oracle(const P& proto, compiled_protocol<P>& closed,
                                   const std::vector<typename P::state_type>& seeds,
                                   std::size_t max_states, bool fits) {
  compiled_protocol<P> oracle(proto);
  for (const auto& s : seeds) {
    closed.intern(s);
    oracle.intern(s);
  }
  ASSERT_EQ(closed.close(max_states), fits);
  ASSERT_EQ(close_by_round_rescan(oracle, max_states), fits);
  ASSERT_EQ(closed.num_states(), oracle.num_states());
  const auto k = static_cast<std::uint32_t>(closed.num_states());
  for (std::uint32_t id = 0; id < k; ++id) {
    ASSERT_EQ(proto.encode(closed.decode(id)), proto.encode(oracle.decode(id)))
        << "id " << id;
  }
  if (!fits) return;
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) {
      const auto& got = closed.closed_transition(a, b);
      const auto want = oracle.transition(a, b);
      ASSERT_EQ(got.a2, want.a2) << a << "," << b;
      ASSERT_EQ(got.b2, want.b2) << a << "," << b;
      ASSERT_EQ(got.delta, want.delta) << a << "," << b;
    }
  }
}

template <typename P>
void expect_closure_matches_oracle(const P& proto,
                                   const std::vector<typename P::state_type>& seeds,
                                   std::size_t max_states, bool fits) {
  compiled_protocol<P> closed(proto);
  expect_closure_matches_oracle(proto, closed, seeds, max_states, fits);
}

TEST(CompiledProtocol, ClosureMatchesRoundRescanOracle) {
  rng gen(11);
  const graph rr8 = make_random_regular(1000, 8, gen);
  const fast_protocol small(fast_params{4, 8, 32});
  std::vector<fast_protocol::state_type> rr8_seeds;
  for (node_id v = 0; v < rr8.num_nodes(); ++v) {
    rr8_seeds.push_back(small.initial_state(v));
  }
  expect_closure_matches_oracle(small, rr8_seeds, kEngineClosureBudget, true);
  // Over budget: both stop at the start of the same round.
  expect_closure_matches_oracle(small, rr8_seeds, 100, false);

  const fast_protocol clique(fast_params::practical_clique(5000));
  std::vector<fast_protocol::state_type> clique_seeds;
  for (const auto& [state, count] : initial_multiset(clique, 5000)) {
    clique_seeds.push_back(state);
  }
  expect_closure_matches_oracle(clique, clique_seeds, kEngineClosureBudget, true);

  const star_protocol star;
  expect_closure_matches_oracle(star, {star.initial_state(0)}, 64, true);

  const beauquier_protocol bq(8);
  std::vector<bq_state> bq_seeds;
  for (node_id v = 0; v < 8; ++v) bq_seeds.push_back(bq.initial_state(v));
  expect_closure_matches_oracle(bq, bq_seeds, 64, true);
}

// The table is allocated uninitialised and intern() shells each new id with
// the not-compiled sentinel.  A shell cell it missed would read as compiled
// (a fresh page holds a2 = 0), so close() would skip it: the fill count
// would come up short of |Λ|² and the entry would differ from the oracle.
TEST(CompiledProtocol, ClosureFillsExactlyTheInternedSquare) {
  rng gen(11);
  const graph rr8 = make_random_regular(1000, 8, gen);
  const fast_protocol small(fast_params{4, 8, 32});
  std::vector<fast_protocol::state_type> seeds;
  for (node_id v = 0; v < rr8.num_nodes(); ++v) seeds.push_back(small.initial_state(v));

  using compiled = compiled_protocol<fast_protocol>;
  compiled closed(small);
  expect_closure_matches_oracle(small, closed, seeds, kEngineClosureBudget, true);
  const std::size_t k = closed.num_states();
  ASSERT_EQ(k, 241u);
  // Capacity 64 -> 128 -> 256: three grow() calls re-lay the square.
  EXPECT_EQ(closed.table_bytes(), 256u * 256u * sizeof(compiled::entry));
  EXPECT_EQ(closed.lazy_fills(), k * k);
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) closed.transition(a, b);
  }
  EXPECT_EQ(closed.lazy_fills(), k * k);
}

// Peak RSS (KB) of a forked child that runs `work` and exits, from wait4.
// Transparent huge pages are disabled in the child: with THP on `always`, a
// huge page backs the untouched row tails of the table too.
template <typename Work>
long child_peak_rss_kb(const Work& work) {
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
    try {
      work();
    } catch (...) {
      _exit(1);
    }
    _exit(0);
  }
  int status = 0;
  rusage usage{};
  EXPECT_EQ(wait4(pid, &status, 0, &usage), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return usage.ru_maxrss;
}

// Only the |Λ|² square of the cap² table becomes resident.  The wellmixed
// clique n = 5000 closure interns 1251 states into a 2048-pitch table
// (50.3 MB reserved, 18.8 MB of square); the 0.75 × reserved bound leaves
// room for page rounding and for the 1024-pitch table grow() copies from.
TEST(CompiledProtocol, ClosureKeepsOnlyTheInternedSquareResident) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators change what is resident";
#endif
  const fast_protocol proto(fast_params::practical_clique(5000));
  const auto initial = initial_multiset(proto, 5000);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const long idle_kb = child_peak_rss_kb([] {});
  const long closed_kb = child_peak_rss_kb([&] {
    compiled_protocol<fast_protocol> compiled(proto);
    for (const auto& [state, count] : initial) compiled.intern(state);
    if (!compiled.close(kEngineClosureBudget) || compiled.num_states() != 1251) _exit(2);
    const std::uint64_t bytes = compiled.table_bytes();
    if (write(fds[1], &bytes, sizeof(bytes)) != sizeof(bytes)) _exit(3);
  });
  close(fds[1]);
  std::uint64_t table_bytes = 0;
  ASSERT_EQ(read(fds[0], &table_bytes, sizeof(table_bytes)),
            static_cast<ssize_t>(sizeof(table_bytes)));
  close(fds[0]);
  ASSERT_EQ(table_bytes, 2048u * 2048u * sizeof(compiled_protocol<fast_protocol>::entry));
  const double growth = static_cast<double>(closed_kb - idle_kb) * 1024.0;
  EXPECT_LT(growth, 0.75 * static_cast<double>(table_bytes))
      << "idle child " << idle_kb << " KB, closing child " << closed_kb << " KB";
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
