// Event-driven silent-edge scheduler: the engine's one event-driven loop
// (cost model and math in README.md next to this file).
//
// Late in an election almost every scheduler step is *silent*: the drawn
// oriented pair's transition changes neither endpoint.  run_packed's fast
// path makes those steps cheap (one draw, two loads) but still pays for each
// one; in a token endgame (Beauquier, or the fast protocol's backup) that is
// the entire wall clock.  run_silent instead jumps over steps it knows are
// silent:
//
//   * the *inert set* (inert_states, compiled once per tuned_runner) is a set
//     of states whose pairwise transitions — a state with itself, and any two
//     members in both orientations — are all identities, so an edge whose
//     endpoints are both inert is silent in both orientations;
//   * the loop tracks the edges with at least one non-inert endpoint.  The
//     untracked steps before the next tracked one are Geometric(A/m) for A
//     tracked edges of m (jump.h); the tracked step is a uniform draw i in
//     [0, 2A): edge list[i mod A], flipped when i >= A.  A tracked pair may
//     still be silent; executing it is the no-op step the scheduler takes
//     anyway, so the law is run_packed's;
//   * the set changes only when a word change flips an endpoint's inert bit:
//     then that node's incidence row is walked, reading the other endpoint's
//     inert byte and no table entry;
//   * stability is re-checked exactly when run_packed would re-check it
//     (census delta nonzero, or an edge-census class flip).
//
// With every edge tracked and the list in edge order — no node has entered an
// inert state yet — the jump consumes no draw and i is run_packed's pick k,
// so the run replays run_packed draw for draw: same steps, same leader
// (default fast parameters on most graphs, tests/test_silent.cpp).  Once an
// edge has left the set the draws differ and the agreement is the 3σ
// contract of tests/test_silent.cpp and bench/silent.cpp.
//
// If no edge is tracked, every node is inert and the configuration can never
// change again: the run jumps straight to max_steps and reports
// unstabilized, the reference engine's t → max_steps spin delivered in O(1).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/simulator.h"
#include "engine/block_rng.h"
#include "engine/census.h"
#include "engine/compiled_protocol.h"
#include "engine/edgecensus/census.h"
#include "engine/edgecensus/edgecensus.h"
#include "engine/silent/jump.h"
#include "graph/graph.h"
#include "obs/probe.h"
#include "support/expects.h"

// This header is included by engine/engine.h (after the packed_endpoints /
// packed_start / elected_leader definitions it builds on, and before the
// tuned_runner that dispatches into it).  Include "engine/engine.h" to use
// run_silent.

namespace pp {

// Incidence rows for the inert-flip walks: for every node, the indices of
// its incident edges (each edge listed once per endpoint).  Width-independent
// — neighbor ids come from the packed_endpoints array.
struct silent_adjacency {
  explicit silent_adjacency(const graph& g) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    const auto m = static_cast<std::uint64_t>(g.num_edges());
    expects(m <= std::numeric_limits<std::uint32_t>::max(),
            "silent_adjacency: edge indices exceed u32");
    offsets.assign(n + 1, 0);
    for (const edge& e : g.edges()) {
      ++offsets[static_cast<std::size_t>(e.u) + 1];
      ++offsets[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    entries.resize(static_cast<std::size_t>(2 * m));
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    std::uint32_t j = 0;
    for (const edge& e : g.edges()) {
      entries[cursor[static_cast<std::size_t>(e.u)]++] = j;
      entries[cursor[static_cast<std::size_t>(e.v)]++] = j;
      ++j;
    }
  }

  std::span<const std::uint32_t> row(std::size_t v) const {
    return {entries.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }

  std::vector<std::uint32_t> offsets;  // size n + 1
  std::vector<std::uint32_t> entries;  // size 2m, edge indices
  std::size_t bytes() const {
    return offsets.size() * sizeof(std::uint32_t) +
           entries.size() * sizeof(std::uint32_t);
  }
};

// The tracked-edge set: O(1) membership toggle (swap-with-last removal
// through a position index), uniform draw by index, 8 bytes per edge.
class active_pair_set {
 public:
  explicit active_pair_set(std::uint64_t m)
      : pos_(static_cast<std::size_t>(m), kNone) {}

  std::uint64_t size() const { return list_.size(); }
  std::uint32_t at(std::uint64_t i) const {
    return list_[static_cast<std::size_t>(i)];
  }

  void set(std::uint32_t k, bool active) {
    std::uint32_t& p = pos_[k];
    if (active) {
      if (p != kNone) return;
      p = static_cast<std::uint32_t>(list_.size());
      list_.push_back(k);
    } else {
      if (p == kNone) return;
      const std::uint32_t last = list_.back();
      list_[p] = last;
      pos_[last] = p;
      list_.pop_back();
      p = kNone;
    }
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> list_;
  std::vector<std::uint32_t> pos_;
};

// The inert set of a closed table, one byte per dense id: greedy over the
// ids in order, state s joins iff (s, s) and, for every member t, (s, t) and
// (t, s) are identity transitions.  Beauquier's are its two token-free
// states; the star protocol's its two decided ones.
template <compilable_protocol P>
std::vector<std::uint8_t> inert_states(const compiled_protocol<P>& compiled) {
  using state_id = typename compiled_protocol<P>::state_id;
  const auto identity = [&](state_id a, state_id b) {
    const auto& e = compiled.closed_transition(a, b);
    return e.a2 == a && e.b2 == b;
  };
  std::vector<std::uint8_t> inert(compiled.num_states(), 0);
  std::vector<state_id> members;
  for (state_id s = 0; s < inert.size(); ++s) {
    if (!identity(s, s)) continue;
    bool joins = true;
    for (const state_id t : members) {
      if (!identity(s, t) || !identity(t, s)) {
        joins = false;
        break;
      }
    }
    if (joins) {
      inert[s] = 1;
      members.push_back(s);
    }
  }
  return inert;
}

// What run_silent reads besides the step loop's views: the incidence rows
// and the inert byte of every state.  tuned_runner builds it once, on its
// first silent run, and shares it read-only across trials.
struct silent_index {
  template <compilable_protocol P>
  silent_index(const compiled_protocol<P>& compiled, const graph& g)
      : rows(g), inert(inert_states(compiled)) {}

  silent_adjacency rows;
  std::vector<std::uint8_t> inert;
};

// run_silent: the event-driven counterpart of run_packed over the same
// packed table, endpoint array, CSR view (required for edge-census
// protocols) and shared start, plus the runner's silent_index.  `probe` only
// reads the run; its active steps are the executed steps that changed a
// word, and its active-set samples count tracked oriented pairs (2A).
template <typename W, typename N, compilable_protocol P, typename Probe>
election_result run_silent(const compiled_protocol<P>& compiled,
                           const packed_table<W, P>& table,
                           const packed_endpoints<N>& edges,
                           const silent_index& index,
                           const packed_start<W>& start, rng gen,
                           const sim_options& options,
                           const std::vector<node_id>* old_of_new,
                           const packed_csr<N>* adjacency,
                           [[maybe_unused]] Probe* probe) {
  using traits = census_model_t<P>;
  constexpr bool kEdgeCensus = edge_census_protocol<P>;
  const std::size_t n = start.config.size();
  const std::uint64_t m = edges.pairs.size();
  expects(m >= 1, "run_silent: graph must have at least one edge");
  expects(table.num_states() == compiled.num_states() &&
              index.inert.size() == compiled.num_states(),
          "run_silent: tables do not match the compiled table");
  expects(index.rows.offsets.size() == n + 1 &&
              index.rows.entries.size() == 2 * m,
          "run_silent: incidence rows do not match the graph");
  expects(old_of_new == nullptr || old_of_new->size() == n,
          "run_silent: node map does not match the graph");
  if constexpr (kEdgeCensus) {
    expects(adjacency != nullptr && adjacency->offsets.size() == n + 1,
            "run_silent: edge-census protocols need the graph's CSR adjacency "
            "view");
  }
  if constexpr (Probe::enabled) {
    expects(probe != nullptr, "run_silent: enabled probe type needs a probe");
  }

  std::vector<W> config = start.config;
  std::int64_t totals[kMaxCensusCounters] = {};
  for (int i = 0; i < traits::kCounters; ++i) {
    totals[i] = start.totals[static_cast<std::size_t>(i)];
  }
  edge_class_census ecensus;
  if constexpr (kEdgeCensus) ecensus = start.ecensus;
  const auto stable_now = [&] {
    if constexpr (Probe::enabled) probe->on_predicate_evals(1);
    if constexpr (kEdgeCensus) {
      return traits::stable(totals, ecensus.pairs());
    } else {
      return traits::stable(totals);
    }
  };

  std::vector<std::uint8_t> seen;
  const bool census = options.state_census;
  if (census) {
    seen.assign(table.num_states(), 0);
    for (const auto id : config) seen[id] = 1;
  }

  std::uint64_t steps = 0;
  const auto finish = [&](bool stabilized) {
    election_result result;
    result.stabilized = stabilized;
    result.steps = steps;
    if (census) {
      for (const auto s : seen) result.distinct_states_used += s;
    }
    if (stabilized) {
      result.leader = elected_leader_compiled(config, compiled, old_of_new);
    }
    return result;
  };
  // The rest of the budget is silent: no tracked edge, or a jump past it.
  const auto capped = [&] {
    if constexpr (Probe::enabled) probe->on_steps(options.max_steps - steps, 0);
    steps = options.max_steps;
    return finish(false);
  };

  if (stable_now()) return finish(true);
  const auto* const pairs = edges.pairs.data();
  const std::uint8_t* const inert = index.inert.data();
  // Filled in edge order, so with every edge tracked list[j] == j.
  active_pair_set tracked(m);
  for (std::uint64_t j = 0; j < m; ++j) {
    if (!inert[config[pairs[j].a]] || !inert[config[pairs[j].b]]) {
      tracked.set(static_cast<std::uint32_t>(j), true);
    }
  }
  // After x's inert bit flipped: a non-inert x tracks every incident edge; an
  // inert x keeps an edge iff its other endpoint is not inert.
  const auto walk = [&](std::size_t x, bool x_inert) {
    for (const std::uint32_t j : index.rows.row(x)) {
      if (x_inert) {
        const auto pr = pairs[j];
        const std::size_t other = pr.a == x ? pr.b : pr.a;
        tracked.set(j, !inert[config[other]]);
      } else {
        tracked.set(j, true);
      }
    }
  };

  block_rng draw(gen);
  for (;;) {
    if (steps >= options.max_steps) return finish(false);
    const std::uint64_t a = tracked.size();
    if (a == 0) return capped();
    const std::uint64_t remaining = options.max_steps - steps;
    const std::uint64_t skip = sample_silent_run(
        [&] { return draw.uniform01(); }, a, m, remaining);
    if constexpr (Probe::enabled) probe->on_draws(a == m ? 1 : 2);
    if (skip >= remaining) return capped();
    const std::uint64_t i = draw.uniform_below(2 * a);
    const bool flip = i >= a;
    const auto pr = pairs[tracked.at(flip ? i - a : i)];
    const auto u = static_cast<std::size_t>(flip ? pr.b : pr.a);
    const auto v = static_cast<std::size_t>(flip ? pr.a : pr.b);
    const W ca = config[u];
    const W cb = config[v];
    const packed_entry<W> e = table.at(ca, cb);
    config[u] = e.a2;
    config[v] = e.b2;
    steps += skip + 1;
    if constexpr (Probe::enabled) {
      probe->on_steps(skip + 1, (e.a2 != ca || e.b2 != cb) ? 1 : 0);
    }
    if (census) {
      if (e.a2 != ca) seen[e.a2] = 1;
      if (e.b2 != cb) seen[e.b2] = 1;
    }
    bool moved = e.delta_nonzero();
    if constexpr (kEdgeCensus) {
      if (e.a2 != ca) {
        moved |= ecensus.reclass(*adjacency, u, compiled.state_class(e.a2));
      }
      if (e.b2 != cb) {
        moved |= ecensus.reclass(*adjacency, v, compiled.state_class(e.b2));
      }
    }
    if (e.delta_nonzero()) {
      for (int c = 0; c < traits::kCounters; ++c) {
        totals[c] += e.delta_of(c);
      }
    }
    // Both words are stored before either walk reads the other endpoint.
    if (inert[ca] != inert[e.a2]) walk(u, inert[e.a2] != 0);
    if (inert[cb] != inert[e.b2]) walk(v, inert[e.b2] != 0);
    if constexpr (Probe::enabled) {
      if (probe->want_census(steps)) {
        probe->on_census(steps, totals, traits::kCounters);
      }
      if (probe->want_active_set(steps)) {
        probe->on_active_set(steps, 2 * tracked.size());
      }
    }
    if (moved && stable_now()) return finish(true);
  }
}

}  // namespace pp
