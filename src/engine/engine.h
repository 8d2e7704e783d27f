// The batched simulation engine: compiled transition tables + a branch-free
// scheduler fast path.
//
// One step loop (detail::step_loop) computes exactly the same election_result
// as the reference run_until_stable (same seed ⇒ same steps, leader,
// stabilized and census — tested step-for-step in tests/test_engine.cpp) but
// executes each scheduler step as:
//   * one buffered Lemire draw in [0, 2m) (block_rng — no call, no modulo);
//   * one endpoint-pair load, resolved to the ordered pair without a branch;
//   * one compiled-table load and two config stores;
//   * four integer adds onto the census totals and the stability predicate,
//     both skipped entirely on zero-delta steps (the predicate cannot flip
//     when the totals do not move).
// The reference path instead pays two non-inlined calls (scheduler + rng), a
// 64-bit modulo, the full protocol transition logic and four tracker updates
// per step; bench/engine.cpp measures the resulting speedup (≥5× on the
// fast protocol across clique / ring / dense-random graphs).
//
// The loop is a template over its table and its endpoint layout, entered two
// ways (src/engine/README.md documents both layouts):
//   * run_compiled / run_until_stable_fast — the lazily filled u32 table
//     (compiled_protocol) over the doubled edge_endpoints array, whose draw
//     indexes the ordered pair directly; the pair line is prefetched a
//     batch-lag ahead;
//   * run_packed, served by tuned_runner — a closed table packed to the
//     narrowest width holding |Λ| (u8/u16/u32, packed_table) over the
//     single-orientation packed_endpoints array (half the memory of the
//     doubled one; the draw's orientation bit becomes two conditional
//     moves), with a two-level software-prefetch pipeline (endpoint pairs a
//     batch-lag ahead, then the two config words of each upcoming pair) and
//     optional BFS/RCM vertex reordering (graph/reorder.h) so the two config
//     touches of mesh-like families land on nearby cache lines.
// The doubled layout stays as the lazy path's own: it is the baseline that
// bench/locality.cpp's packed+RCM gate divides by and a rung of the
// perfbench engine ladder, and moving the lazy path onto packed endpoints
// would leave that gate measuring little but the reordering.
//
// At equal (seed, graph, natural order) a packed run is bit-identical to
// run_compiled at every width — tests/test_engine_packed.cpp pins u8/u16/u32
// against the reference.  Reordered runs execute the identical process on an
// isomorphic graph (initial states and the reported leader ride the
// permutation), so they agree statistically — the wellmixed 3σ contract —
// but not per seed.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/simulator.h"
#include "engine/block_rng.h"
#include "engine/census.h"
#include "engine/compiled_protocol.h"
#include "engine/edgecensus/census.h"
#include "engine/edgecensus/edgecensus.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "obs/probe.h"
#include "sched/scheduler.h"
#include "support/expects.h"

namespace pp {

// Endpoint layouts.  Each hands the step loop a `reader` — a by-value view
// whose base pointer and edge count stay in registers across the loop's byte
// stores — that maps a draw k ∈ [0, 2m) to its ordered pair (the same
// pick-to-interaction mapping as edge_scheduler::next) and emits the
// layout's prefetches over the pick batch.  Prefetches are loads and hints
// only, so the executed trajectory is untouched; prefetching a config word
// that an intervening step overwrites is harmless (the real load at step
// time sees the stored value).  prefetch() is always_inline because GCC
// otherwise may judge the out-of-line call side-effect free (a prefetch
// writes nothing) and delete it, prefetches included.

// The doubled edge list as one flat array of ordered pairs: index k < m is
// edge k in its stored orientation, k in [m, 2m) is edge k - m flipped.  A
// scheduler draw in [0, 2m) maps straight to pairs[k] — branch-free (no
// modulo, no orientation flip) and one cache line per step instead of two.
struct edge_endpoints {
  explicit edge_endpoints(const graph& g);

  std::vector<interaction> pairs;  // size 2m
  std::uint64_t doubled() const { return static_cast<std::uint64_t>(pairs.size()); }

  // Prefetches the pair line kAhead steps early.
  struct reader {
    static constexpr std::size_t kAhead = 16;
    const interaction* pairs;
    std::uint64_t two_m;

    std::uint64_t draws() const { return two_m; }
    template <typename W>
    [[gnu::always_inline]] void prefetch(const std::uint64_t* picks,
                                         std::size_t i, std::size_t len,
                                         const W*) const {
      if (i + kAhead < len) {
        __builtin_prefetch(&pairs[picks[i + kAhead]], /*rw=*/0, /*locality=*/1);
      }
    }
    std::pair<std::size_t, std::size_t> at(std::uint64_t k) const {
      const interaction it = pairs[k];
      return {static_cast<std::size_t>(it.initiator),
              static_cast<std::size_t>(it.responder)};
    }
  };
  reader step_reader() const { return {pairs.data(), doubled()}; }
};

// Single-orientation endpoint array at node word width N (u16 when n fits,
// u32 otherwise).  Each edge is stored once in its canonical u < v
// orientation; the reader folds the orientation half of the scheduler draw
// k ∈ [0, 2m) into two conditional moves (k >= m swaps the endpoints), which
// halves the randomly-accessed endpoint working set relative to
// edge_endpoints' doubled array — the dominant term on sparse graphs, where
// the pair array is 4×–8× the config array.
template <typename N>
struct packed_endpoints {
  struct pair_type {
    N a;
    N b;
  };

  explicit packed_endpoints(const graph& g) {
    expects(g.num_edges() >= 1,
            "packed_endpoints: graph must have at least one edge");
    expects(static_cast<std::uint64_t>(g.num_nodes() - 1) <=
                static_cast<std::uint64_t>(std::numeric_limits<N>::max()),
            "packed_endpoints: node ids do not fit the word width");
    pairs.reserve(static_cast<std::size_t>(g.num_edges()));
    for (const edge& e : g.edges()) {
      pairs.push_back({static_cast<N>(e.u), static_cast<N>(e.v)});
    }
  }

  std::vector<pair_type> pairs;  // size m, stored (u < v) orientation
  std::size_t bytes() const { return pairs.size() * sizeof(pair_type); }

  // Two-level prefetch pipeline: the pair line is requested kPairAhead steps
  // early; once it has (likely) arrived — kConfAhead steps out — it is loaded
  // and the two config words it names are requested in turn.
  struct reader {
    static constexpr std::size_t kPairAhead = 16;
    static constexpr std::size_t kConfAhead = 8;
    const pair_type* pairs;
    std::uint64_t m;

    std::uint64_t draws() const { return 2 * m; }
    template <typename W>
    [[gnu::always_inline]] void prefetch(const std::uint64_t* picks,
                                         std::size_t i, std::size_t len,
                                         const W* config) const {
      if (i + kPairAhead < len) {
        const std::uint64_t k = picks[i + kPairAhead];
        __builtin_prefetch(&pairs[k >= m ? k - m : k], /*rw=*/0, /*locality=*/1);
      }
      if (i + kConfAhead < len) {
        const std::uint64_t k = picks[i + kConfAhead];
        // Orientation is irrelevant for the hint: both config words are
        // touched either way.
        const auto pr = pairs[k >= m ? k - m : k];
        __builtin_prefetch(&config[pr.a], /*rw=*/1, /*locality=*/1);
        __builtin_prefetch(&config[pr.b], /*rw=*/1, /*locality=*/1);
      }
    }
    std::pair<std::size_t, std::size_t> at(std::uint64_t k) const {
      const bool flip = k >= m;
      const auto pr = pairs[flip ? k - m : k];
      return {static_cast<std::size_t>(flip ? pr.b : pr.a),
              static_cast<std::size_t>(flip ? pr.a : pr.b)};
    }
  };
  reader step_reader() const { return {pairs.data(), pairs.size()}; }
};

// Smallest-id node with leader output in `config` — original ids when
// `old_of_new` is given (reordered runs), run-graph ids otherwise.  Shared by
// the step loop and run_silent so their epilogues cannot drift apart and
// silently break the bit-identity contract.
template <typename W, typename OutputFn>
node_id elected_leader(const std::vector<W>& config, OutputFn&& output,
                       const std::vector<node_id>* old_of_new) {
  const auto n = static_cast<node_id>(config.size());
  if (old_of_new == nullptr) {
    for (node_id v = 0; v < n; ++v) {
      if (output(config[static_cast<std::size_t>(v)]) == role::leader) return v;
    }
    return -1;
  }
  node_id leader = -1;
  for (node_id v = 0; v < n; ++v) {
    if (output(config[static_cast<std::size_t>(v)]) == role::leader) {
      const node_id original = (*old_of_new)[static_cast<std::size_t>(v)];
      if (leader < 0 || original < leader) leader = original;
    }
  }
  return leader;
}

// elected_leader through the compiled role table, with a SIMD shortcut: at
// u8 word width with exactly one leader-role state id the scan is a memchr
// for that byte — first occurrence == smallest node id with leader output,
// so the result is identical to the generic loop.  This matters for
// one-interaction elections (star graphs), where the O(n) epilogue scan,
// not the run, dominates a trial.
template <typename W, compilable_protocol P>
node_id elected_leader_compiled(const std::vector<W>& config,
                                const compiled_protocol<P>& compiled,
                                const std::vector<node_id>* old_of_new) {
  if constexpr (std::is_same_v<W, std::uint8_t>) {
    if (old_of_new == nullptr) {
      int leader_states = 0;
      std::uint8_t leader_id = 0;
      const auto k = static_cast<std::uint32_t>(compiled.num_states());
      for (std::uint32_t id = 0; id < k; ++id) {
        if (compiled.output(id) == role::leader) {
          ++leader_states;
          leader_id = static_cast<std::uint8_t>(id);
        }
      }
      if (leader_states == 0) return -1;
      if (leader_states == 1) {
        const void* hit = std::memchr(config.data(), leader_id, config.size());
        if (hit == nullptr) return -1;
        return static_cast<node_id>(static_cast<const std::uint8_t*>(hit) -
                                    config.data());
      }
    }
  }
  return elected_leader(
      config, [&](W id) { return compiled.output(id); }, old_of_new);
}

// The initial state a run starts from: the initial config at word width W,
// the census totals it implies and — for edge-census protocols — the initial
// edge-class census.  The initial configuration of a sweep is deterministic,
// so tuned_runner computes this once and every trial's setup collapses to a
// few memcpys instead of n intern lookups plus an O(m) pair recount — the
// term that dominates one-interaction elections like star-on-star
// (bench/star.cpp).
template <typename W>
struct packed_start {
  std::vector<W> config;
  std::array<std::int64_t, kMaxCensusCounters> totals{};
  edge_class_census ecensus;  // empty for counter-shaped protocols
};

// Builds the initial state a run on (compiled, g, old_of_new) starts from.
// The single definition serves tuned_runner's per-sweep precompute (which
// run_packed and run_silent start from) and run_compiled, so they can never
// drift — the "identical by construction" half of the bit-identity
// contract.
// Requires every initial state to be interned already (id_of).
template <typename W, compilable_protocol P>
packed_start<W> make_packed_start(const compiled_protocol<P>& compiled,
                                  const graph& g,
                                  const std::vector<node_id>* old_of_new) {
  using traits = census_model_t<P>;
  const P& proto = compiled.protocol();
  const node_id n = g.num_nodes();
  packed_start<W> s;
  s.config.resize(static_cast<std::size_t>(n));
  for (node_id v = 0; v < n; ++v) {
    const node_id src = old_of_new ? (*old_of_new)[static_cast<std::size_t>(v)] : v;
    const auto id = compiled.id_of(proto.initial_state(src));
    s.config[static_cast<std::size_t>(v)] = static_cast<W>(id);
    const auto& c = compiled.contribution(id);
    for (int i = 0; i < traits::kCounters; ++i) {
      s.totals[static_cast<std::size_t>(i)] += c[static_cast<std::size_t>(i)];
    }
  }
  if constexpr (edge_census_protocol<P>) {
    std::vector<std::uint8_t> cls(s.config.size());
    for (std::size_t v = 0; v < cls.size(); ++v) {
      cls[v] = compiled.state_class(s.config[v]);
    }
    s.ecensus.reset(cls, g.edges());
  }
  return s;
}

namespace detail {

// The step loop behind run_compiled and run_packed: runs one election from
// `start` over `table` and the `edges` layout.  The table is either the
// lazily filled compiled_protocol itself (which may grow during the run) or
// a closed packed_table snapshot of `compiled`; `compiled` supplies roles
// and edge classes.  `rows` is the adjacency the edge-census class-flip
// walks load (unused by counter-shaped protocols).
//
// `old_of_new`, when given, maps the run's node ids back to the caller's
// (pre-relabelling) ids for the reported leader (`start` already holds the
// mapped initial states).
//
// `probe` (obs/probe.h) collects phase telemetry when Probe::enabled; with
// the default null_probe every hook is an `if constexpr` dead branch, so the
// instrumented loop compiles to the uninstrumented one.  Probes only read
// the run — they never alter the draw stream, the stopping step or the
// result (the zero-cost/determinism contract bench/obs.cpp and
// tests/test_obs.cpp enforce).
template <typename Table, typename Endpoints, typename Rows, typename W,
          compilable_protocol P, typename Probe>
election_result step_loop(const compiled_protocol<P>& compiled,
                          Table& table, const Endpoints& edges,
                          const Rows* rows, packed_start<W> start, rng gen,
                          const sim_options& options,
                          const std::vector<node_id>* old_of_new,
                          [[maybe_unused]] Probe* probe) {
  using traits = census_model_t<P>;
  constexpr bool kEdgeCensus = edge_census_protocol<P>;
  std::vector<W> config = std::move(start.config);
  std::int64_t totals[kMaxCensusCounters] = {};
  for (int i = 0; i < traits::kCounters; ++i) {
    totals[i] = start.totals[static_cast<std::size_t>(i)];
  }
  // Edge-census protocols track a class byte per node and the per-class-pair
  // edge counters alongside the node totals; stability is the traits' joint
  // predicate over both.  Counter-shaped protocols skip all of it (constexpr).
  edge_class_census ecensus;
  if constexpr (kEdgeCensus) ecensus = std::move(start.ecensus);
  if constexpr (Probe::enabled) {
    expects(probe != nullptr, "step_loop: enabled probe type needs a probe");
  }
  [[maybe_unused]] const std::uint64_t fills_at_start = table.lazy_fills();
  const auto stable_now = [&] {
    if constexpr (Probe::enabled) probe->on_predicate_evals(1);
    if constexpr (kEdgeCensus) {
      return traits::stable(totals, ecensus.pairs());
    } else {
      return traits::stable(totals);
    }
  };

  // With the census on, distinct states are a byte-mark per state id: every
  // id ever written into `config` gets marked, which is exactly the set the
  // reference simulator's unordered_set accumulates.
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
    if constexpr (Probe::enabled) {
      probe->on_table_fills(table.lazy_fills() - fills_at_start);
    }
    return result;
  };

  const auto pairs = edges.step_reader();
  const std::uint64_t draws = pairs.draws();
  block_rng draw(gen);

  // Picks are generated a batch ahead of their use: the draw stream does not
  // depend on the configuration, so the layout can prefetch upcoming pairs
  // while earlier steps execute, hiding the per-step cache misses on large
  // graphs.  The draw *order* is unchanged, so runs stay bit-identical to the
  // reference simulator; draws generated past the stopping step are simply
  // discarded (the generator is owned by value).
  constexpr std::size_t kBatch = 256;
  std::uint64_t picks[kBatch];

  while (!stable_now()) {
    if (steps >= options.max_steps) return finish(false);
    // The max_steps bound is folded into the block length, and the stability
    // predicate is only re-evaluated after a step whose census delta is
    // nonzero — on zero-delta steps (the overwhelming majority on
    // sparse-token protocols) the totals cannot move, so neither the four
    // counter adds nor the predicate run.  Edge-census protocols extend the
    // fast path's trigger to class flips: a step that changes neither the
    // node totals nor any node's class cannot move the pair counters either,
    // so the joint predicate is equally skippable.  Census marks fire only
    // for ids that actually changed: an unchanged id was marked when it was
    // written into `config`.  All of this is observationally identical to
    // the per-step checks (same stopping step, same marks), so seeded
    // equivalence with the reference simulator is preserved.
    const std::uint64_t remaining = options.max_steps - steps;
    const std::size_t len =
        remaining < kBatch ? static_cast<std::size_t>(remaining) : kBatch;
    for (std::size_t i = 0; i < len; ++i) picks[i] = draw.uniform_below(draws);
    if constexpr (Probe::enabled) probe->on_draws(len);
    // Step/active counts accumulate in locals and flush once per batch: a
    // per-step read-modify-write through the probe pointer is measurable at
    // this loop's step rate, a register add is not (bench/obs.cpp gates the
    // enabled path at <= 10%).
    [[maybe_unused]] const std::uint64_t probe_base = steps;
    [[maybe_unused]] std::uint64_t probe_active = 0;
    for (std::size_t i = 0; i < len; ++i) {
      pairs.prefetch(picks, i, len, config.data());
      const auto [u, v] = pairs.at(picks[i]);
      const W ca = config[u];
      const W cb = config[v];
      const auto e = table.at(ca, cb);
      config[u] = e.a2;
      config[v] = e.b2;
      ++steps;
      if constexpr (Probe::enabled) {
        probe_active += (e.a2 != ca || e.b2 != cb) ? 1u : 0u;
      }
      if (census) {
        if (e.a2 != ca) table.mark(seen, e.a2);
        if (e.b2 != cb) table.mark(seen, e.b2);
      }
      if constexpr (kEdgeCensus) {
        bool moved = e.delta_nonzero();
        if (e.a2 != ca) {
          moved |= ecensus.reclass(*rows, u, compiled.state_class(e.a2));
        }
        if (e.b2 != cb) {
          moved |= ecensus.reclass(*rows, v, compiled.state_class(e.b2));
        }
        if (e.delta_nonzero()) {
          for (int c = 0; c < traits::kCounters; ++c) {
            totals[c] += e.delta_of(c);
          }
        }
        if (moved && stable_now()) break;
      } else {
        if (e.delta_nonzero()) {
          for (int c = 0; c < traits::kCounters; ++c) {
            totals[c] += e.delta_of(c);
          }
          if (stable_now()) break;
        }
      }
      // Sampled after the delta lands, so a sample at step s reports the
      // census *after* s steps; the stabilizing step breaks above and is
      // reported by the result instead.
      if constexpr (Probe::enabled) {
        if (probe->want_census(steps)) {
          probe->on_census(steps, totals, traits::kCounters);
        }
      }
    }
    if constexpr (Probe::enabled) {
      probe->on_steps(steps - probe_base, probe_active);
    }
  }
  return finish(true);
}

}  // namespace detail

// Runs one election on a compiled table and the doubled endpoint array.
// `compiled` fills lazily during the run; if it is closed() the run never
// mutates it, so a single closed table (and one edge_endpoints) can be shared
// by concurrent trials of a parameter sweep.
//
// `old_of_new`, when given, maps the run's node ids back to the caller's
// (pre-relabelling) ids: node v starts in initial_state(old_of_new[v]) and
// the reported leader is the smallest *original* id with leader output, so a
// run on a relabelled graph is the exact original process under an
// isomorphism.  nullptr (the default) leaves behaviour — and the PR 2
// bit-identity with the reference simulator — untouched.  `probe` is as in
// detail::step_loop.
template <compilable_protocol P, typename Probe = obs::null_probe>
election_result run_compiled(compiled_protocol<P>& compiled,
                             const edge_endpoints& edges, const graph& g,
                             rng gen, const sim_options& options = {},
                             const std::vector<node_id>* old_of_new = nullptr,
                             Probe* probe = nullptr) {
  const P& proto = compiled.protocol();
  const node_id n = g.num_nodes();
  expects(edges.doubled() == 2 * static_cast<std::uint64_t>(g.num_edges()),
          "run_compiled: endpoint arrays do not match the graph");
  expects(g.num_edges() >= 1, "run_compiled: graph must have at least one edge");
  expects(old_of_new == nullptr ||
              old_of_new->size() == static_cast<std::size_t>(n),
          "run_compiled: node map does not match the graph");
  for (node_id v = 0; v < n; ++v) {
    compiled.intern(proto.initial_state(
        old_of_new ? (*old_of_new)[static_cast<std::size_t>(v)] : v));
  }
  const graph_rows rows{&g};
  return detail::step_loop(
      compiled, compiled, edges, &rows,
      make_packed_start<std::uint32_t>(compiled, g, old_of_new), gen, options,
      old_of_new, probe);
}

// Drop-in fast replacement for run_until_stable on compilable protocols:
// compiles the protocol lazily and runs one election.  Same result as the
// reference simulator for the same seed.
template <compilable_protocol P>
election_result run_until_stable_fast(const P& proto, const graph& g, rng gen,
                                      const sim_options& options = {}) {
  compiled_protocol<P> compiled(proto);
  const edge_endpoints edges(g);
  return run_compiled(compiled, edges, g, gen, options);
}

// run_packed: the step loop over a width-packed closed table, packed
// endpoint array and W-word config.  For the same (seed, graph, nullptr map)
// it is bit-identical to run_compiled at every width: the draw stream, the
// pick-to-interaction mapping, the census marks and the stability predicate
// are all unchanged — only the bytes per touch shrink.  Requires the closed
// table the packed_table snapshot was taken from.
//
// Edge-census protocols additionally need `adjacency` — the packed CSR view
// their class-flip walks load (edgecensus/edgecensus.h).  Every run starts
// from `start`, the runner's precomputed initial state (make_packed_start).
// Only tuned_runner calls it.
template <typename W, typename N, compilable_protocol P, typename Probe>
election_result run_packed(const compiled_protocol<P>& compiled,
                           const packed_table<W, P>& table,
                           const packed_endpoints<N>& edges, const graph& g,
                           rng gen, const sim_options& options,
                           const std::vector<node_id>* old_of_new,
                           const packed_csr<N>* adjacency,
                           const packed_start<W>& start, Probe* probe) {
  const node_id n = g.num_nodes();
  expects(edges.pairs.size() == static_cast<std::size_t>(g.num_edges()),
          "run_packed: endpoint array does not match the graph");
  expects(g.num_edges() >= 1, "run_packed: graph must have at least one edge");
  expects(table.num_states() == compiled.num_states(),
          "run_packed: packed table does not match the compiled table");
  expects(old_of_new == nullptr ||
              old_of_new->size() == static_cast<std::size_t>(n),
          "run_packed: node map does not match the graph");
  if constexpr (edge_census_protocol<P>) {
    expects(adjacency != nullptr &&
                adjacency->offsets.size() == static_cast<std::size_t>(n) + 1,
            "run_packed: edge-census protocols need the graph's CSR adjacency "
            "view");
  }
  expects(start.config.size() == static_cast<std::size_t>(n),
          "run_packed: shared initial state does not match the graph");
  return detail::step_loop(compiled, table, edges, adjacency, start, gen, options,
                           old_of_new, probe);
}


}  // namespace pp

// The event-driven silent-edge scheduler (run_silent + silent_index) builds
// on the packed views defined above; tuned_runner below dispatches into it
// when sim_options::scheduler == scheduler_kind::silent.
#include "engine/silent/silent.h"  // NOLINT(build/include_order)

namespace pp {

// States the reachable closure may intern before tuned/sweep runners fall
// back to per-trial lazy u32 tables (a closed table of k states is k²
// entries; 2048² packed u16 entries are ~34 MB).
inline constexpr std::size_t kEngineClosureBudget = 2048;

// Data-layout knobs for tuned_runner / measure_election_tuned.
struct engine_tuning {
  // Vertex relabelling applied to the graph before the run (graph/reorder.h).
  // natural preserves per-seed bit-identity with the reference simulator;
  // bfs/rcm trade it for 3σ statistical agreement.
  vertex_order order = vertex_order::natural;
  // Config word width: 0 picks the narrowest width that holds |Λ| (and, for
  // u8, whose census deltas fit the nibble encoding); 8/16/32 force a width
  // and fail loudly if the closed table does not fit it.
  int pack_bits = 0;
};

// tuned_runner resolves the engine data layout once — vertex order, config
// word width, endpoint node width — and then serves any number of runs
// through the branch-free loop instantiated for that layout.  Construction
// does all the heavy setup (reorder + relabel, reachability closure, packed
// table + endpoint snapshots); run() only dispatches on the stored widths,
// so trials of a sweep share every byte of read-only state.  If the
// reachable space exceeds the closure budget the runner degrades to the lazy
// u32 path (packed widths need a closed table): run_compiled over a per-run
// table, still bit-identical per seed at natural order.
template <compilable_protocol P>
class tuned_runner {
 public:
  // Borrows `proto` and `g`, which must outlive the runner: natural-order
  // runs read `g`, and runs past the closure budget compile their own tables
  // from `proto`.
  tuned_runner(const P& proto, const graph& g, const engine_tuning& tuning = {})
      : proto_(&proto), tuning_(tuning), original_(&g), compiled_(proto) {
    expects(tuning.pack_bits == 0 || tuning.pack_bits == 8 ||
                tuning.pack_bits == 16 || tuning.pack_bits == 32,
            "tuned_runner: pack_bits must be 0 (auto), 8, 16 or 32");
    if (tuning_.order != vertex_order::natural) {
      const auto perm = order_permutation(g, tuning_.order);
      relabeled_ = g.relabel(perm);
      old_of_new_ = invert_permutation(perm);
    }
    for (node_id v = 0; v < g.num_nodes(); ++v) {
      compiled_.intern(proto.initial_state(v));
    }
    closed_ = compiled_.close(kEngineClosureBudget);
    if (!closed_) {
      expects(tuning_.pack_bits == 0 || tuning_.pack_bits == 32,
              "tuned_runner: packed widths need a closed table (reachable "
              "space exceeded the closure budget)");
      pack_bits_ = 32;
      // The failed closure left a partially-grown table (tens of MB at the
      // default budget) that run() never reads — every fallback run compiles
      // its own lazy table.  Record its footprint for the accounting, then
      // release it for the runner's lifetime.
      fallback_table_bytes_ = compiled_.table_bytes();
      compiled_ = compiled_protocol<P>(proto);
      fallback_edges_.emplace(run_graph());
      return;
    }
    const std::size_t k = compiled_.num_states();
    if (tuning_.pack_bits == 0) {
      pack_bits_ = (k <= 256 && compiled_.deltas_fit_nibble()) ? 8
                   : k <= 65536                                ? 16
                                                               : 32;
    } else {
      pack_bits_ = tuning_.pack_bits;
    }
    if (static_cast<std::uint64_t>(run_graph().num_nodes()) <= 65536) {
      pairs_.template emplace<packed_endpoints<std::uint16_t>>(run_graph());
      if constexpr (edge_census_protocol<P>) {
        csr_.template emplace<packed_csr<std::uint16_t>>(run_graph());
      }
    } else {
      pairs_.template emplace<packed_endpoints<std::uint32_t>>(run_graph());
      if constexpr (edge_census_protocol<P>) {
        csr_.template emplace<packed_csr<std::uint32_t>>(run_graph());
      }
    }
    switch (pack_bits_) {
      case 8:
        table_.template emplace<packed_table<std::uint8_t, P>>(compiled_);
        build_start<std::uint8_t>();
        break;
      case 16:
        table_.template emplace<packed_table<std::uint16_t, P>>(compiled_);
        build_start<std::uint16_t>();
        break;
      default:
        table_.template emplace<packed_table<std::uint32_t, P>>(compiled_);
        build_start<std::uint32_t>();
        break;
    }
  }

  // One election through the resolved layout.  Thread-safe for concurrent
  // calls: packed state is read-only, and the lazy fallback compiles a local
  // table per call.
  election_result run(rng gen, const sim_options& options = {}) const {
    return run(gen, options, static_cast<obs::null_probe*>(nullptr));
  }

  // Probed variant: same dispatch, same trajectory (the probe only reads).
  template <typename Probe>
  election_result run(rng gen, const sim_options& options, Probe* probe) const {
    const auto* map = old_of_new_.empty() ? nullptr : &old_of_new_;
    if (!closed_) {
      expects(options.scheduler != scheduler_kind::silent,
              "tuned_runner: the silent scheduler needs a closed table "
              "(reachable space exceeded the closure budget)");
      compiled_protocol<P> local(*proto_);
      return run_compiled(local, *fallback_edges_, run_graph(), gen, options,
                          map, probe);
    }
    switch (pack_bits_) {
      case 8: return run_width<std::uint8_t>(gen, options, map, probe);
      case 16: return run_width<std::uint16_t>(gen, options, map, probe);
      default: return run_width<std::uint32_t>(gen, options, map, probe);
    }
  }

  // The graph the hot loop actually runs on (relabelled unless natural).
  const graph& run_graph() const {
    return old_of_new_.empty() ? *original_ : relabeled_;
  }

  vertex_order order() const { return tuning_.order; }
  // Resolved config word width (8/16/32; 32 on the lazy fallback).
  int pack_bits() const { return pack_bits_; }
  // False iff the closure budget was exceeded and runs use lazy u32 tables.
  bool packed() const { return closed_; }
  // The shared closed table; empty on the lazy fallback (each run owns one).
  const compiled_protocol<P>& compiled() const { return compiled_; }
  // Maps run-graph node ids back to original ids; empty for natural order.
  const std::vector<node_id>& old_of_new() const { return old_of_new_; }
  // The packed table's raw row-major entries at the resolved width (empty
  // on the lazy fallback): the bytes the fleet artifact's PACK section
  // stores and a rebuilt worker's validation compares.
  std::span<const std::uint8_t> packed_bytes() const {
    return std::visit(
        [](const auto& t) -> std::span<const std::uint8_t> {
          if constexpr (std::is_same_v<std::decay_t<decltype(t)>, std::monostate>) {
            return {};
          } else {
            return {reinterpret_cast<const std::uint8_t*>(t.entries().data()), t.bytes()};
          }
        },
        table_);
  }

  // Resident bytes of the hot loop: config array + transition table +
  // endpoint pairs (the quantities bench/locality.cpp attributes wins to).
  std::size_t working_set_bytes() const {
    const auto n = static_cast<std::size_t>(run_graph().num_nodes());
    std::size_t total = n * static_cast<std::size_t>(pack_bits_ / 8);
    if (!closed_) {
      total += fallback_table_bytes_;
      total += fallback_edges_->pairs.size() * sizeof(interaction);
      return total;
    }
    std::visit(
        [&](const auto& t) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(t)>, std::monostate>) {
            total += t.bytes();
          }
        },
        table_);
    std::visit(
        [&](const auto& e) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(e)>, std::monostate>) {
            total += e.bytes();
          }
        },
        pairs_);
    std::visit(
        [&](const auto& c) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(c)>, std::monostate>) {
            total += c.bytes();
          }
        },
        csr_);
    // Edge-census runs also touch the class byte per node on flip walks.
    if constexpr (edge_census_protocol<P>) {
      total += static_cast<std::size_t>(run_graph().num_nodes());
    }
    return total;
  }

  // Bytes one scheduler step touches: one endpoint pair, one table entry and
  // two config words (each word's load and store hit the same line).
  std::size_t bytes_per_step() const {
    const std::size_t word = static_cast<std::size_t>(pack_bits_ / 8);
    std::size_t pair_bytes = sizeof(interaction);
    std::size_t entry_bytes = sizeof(typename compiled_protocol<P>::entry);
    if (closed_) {
      // Inspect the stored variant rather than re-deriving the constructor's
      // width threshold, so the accounting tracks the layout actually run.
      pair_bytes = std::holds_alternative<packed_endpoints<std::uint16_t>>(pairs_)
                       ? sizeof(typename packed_endpoints<std::uint16_t>::pair_type)
                       : sizeof(typename packed_endpoints<std::uint32_t>::pair_type);
      entry_bytes = pack_bits_ == 8    ? sizeof(packed_entry<std::uint8_t>)
                    : pack_bits_ == 16 ? sizeof(packed_entry<std::uint16_t>)
                                       : sizeof(packed_entry<std::uint32_t>);
    }
    return pair_bytes + entry_bytes + 2 * word;
  }

 private:
  // Precomputes the sweep's shared initial state (config, totals, edge-class
  // census) for the resolved width; run() hands it to every trial.  The
  // construction itself is make_packed_start — the same function
  // run_compiled starts from — so the two cannot drift.
  template <typename W>
  void build_start() {
    start_ = make_packed_start<W>(
        compiled_, run_graph(), old_of_new_.empty() ? nullptr : &old_of_new_);
  }

  template <typename W, typename Probe>
  election_result run_width(rng gen, const sim_options& options,
                            const std::vector<node_id>* map,
                            Probe* probe) const {
    const auto& table = std::get<packed_table<W, P>>(table_);
    const auto& start = std::get<packed_start<W>>(start_);
    const bool silent = options.scheduler == scheduler_kind::silent;
    // get_if yields nullptr while csr_ holds monostate — exactly the
    // counter-shaped protocols, for which run_packed ignores the view.
    if (const auto* e16 =
            std::get_if<packed_endpoints<std::uint16_t>>(&pairs_)) {
      if (silent) {
        return run_silent(compiled_, table, *e16, silent_views(), start, gen,
                          options, map,
                          std::get_if<packed_csr<std::uint16_t>>(&csr_), probe);
      }
      return run_packed(compiled_, table, *e16, run_graph(), gen, options, map,
                        std::get_if<packed_csr<std::uint16_t>>(&csr_), start,
                        probe);
    }
    if (silent) {
      return run_silent(compiled_, table,
                        std::get<packed_endpoints<std::uint32_t>>(pairs_),
                        silent_views(), start, gen, options, map,
                        std::get_if<packed_csr<std::uint32_t>>(&csr_), probe);
    }
    return run_packed(compiled_, table,
                      std::get<packed_endpoints<std::uint32_t>>(pairs_),
                      run_graph(), gen, options, map,
                      std::get_if<packed_csr<std::uint32_t>>(&csr_), start,
                      probe);
  }

  // The silent scheduler's incidence rows and inert set, built on first use
  // and then shared read-only across trials; the step scheduler never pays
  // for them.  std::call_once makes the lazy build safe for run()'s
  // concurrent-trial contract (the TSan CI job covers this path).
  const silent_index& silent_views() const {
    std::call_once(silent_once_, [this] {
      silent_index_.emplace(compiled_, run_graph());
    });
    return *silent_index_;
  }

  const P* proto_;
  engine_tuning tuning_;
  const graph* original_;
  graph relabeled_;                 // only filled when order != natural
  std::vector<node_id> old_of_new_;  // empty for natural order
  compiled_protocol<P> compiled_;
  bool closed_ = false;
  int pack_bits_ = 32;
  std::variant<std::monostate, packed_table<std::uint8_t, P>,
               packed_table<std::uint16_t, P>, packed_table<std::uint32_t, P>>
      table_;
  std::variant<std::monostate, packed_endpoints<std::uint16_t>,
               packed_endpoints<std::uint32_t>>
      pairs_;
  // CSR adjacency for edge-census class walks (monostate otherwise).
  std::variant<std::monostate, packed_csr<std::uint16_t>,
               packed_csr<std::uint32_t>>
      csr_;
  // Shared initial state at the resolved width (monostate on the fallback).
  std::variant<std::monostate, packed_start<std::uint8_t>,
               packed_start<std::uint16_t>, packed_start<std::uint32_t>>
      start_;
  std::optional<edge_endpoints> fallback_edges_;  // lazy fallback only
  std::size_t fallback_table_bytes_ = 0;          // released table's footprint
  // Lazily built silent-scheduler views (mutable: run() is const and
  // thread-safe; call_once guards the build).
  mutable std::once_flag silent_once_;
  mutable std::optional<silent_index> silent_index_;
};

}  // namespace pp
