// Multi-trial, multithreaded measurement of election and dynamics quantities.
//
// Every trial t of an experiment uses the generator seed_gen.fork(t), so the
// estimates are reproducible regardless of thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/families.h"
#include "core/simulator.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "engine/wellmixed/wellmixed.h"
#include "fleet/supervisor.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/stats.h"

namespace pp {

// Aggregate of repeated election runs of one protocol on one graph.
struct election_summary {
  sample_summary steps;            // over stabilized trials only
  double stabilized_fraction = 0;  // trials that stabilized within max_steps
  double max_states_used = 0;      // empirical space complexity (census runs)
  // Trial 0's leader (-1 if it elected none, or for an empty sweep).  Trial
  // 0 always runs seed_gen.fork(0), so this is the same node at every thread
  // or worker count, and reporting it costs no extra election.
  node_id sample_leader = -1;
};

// Aggregates per-trial results (indexed by trial) into an election_summary.
election_summary summarize_election_results(const std::vector<election_result>& results);

// Runs `trials` independent elections of `proto` on `g` in parallel.
template <typename P>
election_summary measure_election(const P& proto, const graph& g, int trials,
                                  rng seed_gen, const sim_options& options = {},
                                  std::size_t threads = 0) {
  std::vector<election_result> results(static_cast<std::size_t>(trials));
  parallel_for(
      static_cast<std::size_t>(trials),
      [&](std::size_t t) {
        results[t] = run_until_stable(proto, g, seed_gen.fork(t), options);
      },
      threads);
  return summarize_election_results(results);
}

// Runs `trials` trials of a prepared sweep — anything with
// `run(rng, const sim_options&) const`, i.e. tuned_runner or
// wellmixed_sweep — in parallel on this process's threads: trial t runs
// seed_gen.fork(t).  The in-process counterpart of measure_election_fleet
// below, with the same summary at any thread count.
template <typename Sweep>
election_summary measure_election_sweep(const Sweep& sweep, int trials,
                                        rng seed_gen,
                                        const sim_options& options = {},
                                        std::size_t threads = 0) {
  std::vector<election_result> results(static_cast<std::size_t>(trials));
  parallel_for(
      static_cast<std::size_t>(trials),
      [&](std::size_t t) { results[t] = sweep.run(seed_gen.fork(t), options); },
      threads);
  return summarize_election_results(results);
}

// kEngineClosureBudget — the states the reachable closure may intern before
// sweeps fall back to per-trial lazy tables — lives in engine/engine.h next
// to the tuned_runner that shares it.

// As measure_election, but through the tuned compiled engine
// (engine/engine.h): the vertex order (natural / BFS / RCM relabelling) and
// the config word width are resolved once by a shared tuned_runner, and every
// trial reuses its packed table, packed endpoint array and relabelled graph
// (or, past the closure budget, compiles its own lazy table).  Trial t uses
// the same seed_gen.fork(t) generator, and with the default tuning's natural
// order the engine is draw-for-draw equivalent to the reference simulator,
// so the summary is identical to measure_election per seed at every width —
// only faster.  Reordered runs execute the same process on an isomorphic
// graph — initial states and leaders ride the permutation — so every
// statistic's *distribution* is unchanged but per-seed equality is traded
// for 3σ statistical agreement, the same contract as the well-mixed engine.
template <compilable_protocol P>
election_summary measure_election_tuned(const P& proto, const graph& g,
                                        int trials, rng seed_gen,
                                        const sim_options& options = {},
                                        const engine_tuning& tuning = {},
                                        std::size_t threads = 0) {
  return measure_election_sweep(tuned_runner<P>(proto, g, tuning), trials,
                                seed_gen, options, threads);
}

// Runs `trials` trials of a prepared sweep — anything with
// `run(rng, const sim_options&) const`, i.e. tuned_runner or
// wellmixed_sweep — across `jobs` worker *processes* under the sweep
// supervisor (fleet/supervisor.h), where measure_election_sweep uses
// threads.  Workers inherit the prepared sweep copy-on-write and stream
// per-trial results back over pipes; crashed, hung or misbehaving workers
// are killed and respawned with their incomplete trials, and `sup` adds
// journaling/resume, fault injection and the flight recorder.  Trial t
// runs seed_gen.fork(t) wherever it lands and the merge
// reassembles results by trial index, so for both engines (the well-mixed
// one is deterministic per (seed, batch size)) the summary is byte-identical
// to the serial sweep at any worker count and through every recovery path —
// the seed-partition contract of tests/test_fleet.cpp and the CI
// fleet-determinism gate.
template <typename Sweep>
election_summary measure_election_fleet(const Sweep& sweep, int trials,
                                        rng seed_gen, const sim_options& options,
                                        int jobs,
                                        const fleet::supervise_options& sup = {}) {
  return summarize_election_results(fleet::supervised_fleet_run(
      static_cast<std::uint64_t>(trials), seed_gen,
      [&](std::uint64_t, rng gen) { return sweep.run(gen, options); }, jobs,
      sup));
}

// Well-mixed (clique) sweep on the multiset batch engine: trial t runs
// run_wellmixed with seed_gen.fork(t) on a population of n agents.  The O(n)
// initial multiset is built once and shared by every trial, so each trial
// costs only the O(|Λ|)-per-batch simulation; there is no graph object and
// no Θ(n²) edge memory, which is what lets clique sweeps reach n = 10⁸.
// Results agree with measure_election / measure_election_tuned statistically
// (bench/wellmixed.cpp pins the 3σ agreement), not per-seed — see
// engine/wellmixed/README.md for the batching caveat.
template <node_census_protocol P>
election_summary measure_election_wellmixed(const P& proto, std::uint64_t n,
                                            int trials, rng seed_gen,
                                            const sim_options& options = {},
                                            std::size_t threads = 0) {
  return measure_election_sweep(wellmixed_sweep<P>(proto, n), trials, seed_gen,
                                options, threads);
}

// Estimates B(G) and wraps it with the family's predicted shape for
// measured/shape ratio reporting.
struct broadcast_summary {
  double measured = 0.0;   // estimate of B(G) in scheduler steps
  double shape = 0.0;      // family closed-form Θ-shape value
  double ratio() const { return shape > 0 ? measured / shape : 0.0; }
};
broadcast_summary measure_broadcast(const graph& g, const graph_family& family,
                                    int trials_per_source, int max_sources,
                                    rng seed_gen);

// Reads a positive scale factor from the PP_BENCH_SCALE environment variable
// (default 1.0); benches multiply their problem sizes/trial counts by it.
double bench_scale();

}  // namespace pp
