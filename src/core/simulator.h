// Generic simulator: runs any population_protocol under the stochastic
// scheduler until the protocol's stability tracker fires (§2.2).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/protocol.h"
#include "graph/graph.h"
#include "sched/scheduler.h"
#include "support/expects.h"
#include "support/rng.h"

namespace pp {

// Outcome of one run.
struct election_result {
  bool stabilized = false;
  // Scheduler steps until the stability predicate first held (== the paper's
  // stabilization time), or max_steps if it never did.
  std::uint64_t steps = 0;
  // Lowest-indexed node whose output is `leader` in the stable
  // configuration; -1 if none (possible for non-election protocols such as
  // majority, where the output map reuses the role alphabet).
  node_id leader = -1;
  // Number of distinct node states observed during the run (only if the
  // census was enabled; this is the empirical space complexity).
  std::size_t distinct_states_used = 0;
};

// Which scheduler advances the step counter.  `step` is the per-interaction
// schedulers (one uniform pair draw per step); `silent` is the event-driven
// scheduler (engine/silent/): it draws only from the edges with an endpoint
// outside the table's inert states and jumps the counter geometrically over
// the steps in between, which are all silent.  The choice is a runtime knob
// — it never changes the protocol, the graph or the artifact format — and
// the silent scheduler preserves the distribution of (steps, leader)
// exactly, so results agree with the step scheduler under the 3σ
// statistical contract (and per seed while every edge is tracked).
enum class scheduler_kind : std::uint8_t { step = 0, silent = 1 };

inline const char* to_string(scheduler_kind s) {
  return s == scheduler_kind::silent ? "silent" : "step";
}

struct sim_options {
  std::uint64_t max_steps = UINT64_MAX;
  bool state_census = false;
  // Batch size for the well-mixed multiset engine (run_wellmixed); 0 enables
  // the error-controlled adaptive leap (starts at n/64, grows toward n in
  // quiet phases, shrinks when the composition drifts), and values above n
  // are clamped to n.  Ignored by the per-interaction simulators.
  std::uint64_t wellmixed_batch = 0;
  // Scheduler for the tuned/packed engine; ignored by engines that have no
  // silent path (reference simulator, wellmixed multiset).
  scheduler_kind scheduler = scheduler_kind::step;
};

// Runs `proto` on `g` from its initial configuration until the tracker
// declares stability or `max_steps` elapse.
template <population_protocol P>
  requires stability_tracker<typename P::tracker_type, P>
election_result run_until_stable(const P& proto, const graph& g, rng gen,
                                 const sim_options& options = {}) {
  const node_id n = g.num_nodes();
  std::vector<typename P::state_type> config(static_cast<std::size_t>(n));
  for (node_id v = 0; v < n; ++v) {
    config[static_cast<std::size_t>(v)] = proto.initial_state(v);
  }

  std::unordered_set<std::uint64_t> census;
  if (options.state_census) {
    census.reserve(static_cast<std::size_t>(n));
    for (const auto& s : config) census.insert(proto.encode(s));
  }

  typename P::tracker_type tracker(proto, g,
                                   std::span<const typename P::state_type>(config));
  edge_scheduler sched(g, gen);

  election_result result;
  while (!tracker.is_stable()) {
    if (sched.steps() >= options.max_steps) {
      result.steps = sched.steps();
      result.distinct_states_used = census.size();
      return result;
    }
    const interaction it = sched.next();
    auto& a = config[static_cast<std::size_t>(it.initiator)];
    auto& b = config[static_cast<std::size_t>(it.responder)];
    const auto old_a = a;
    const auto old_b = b;
    proto.interact(a, b);
    tracker.on_interaction(proto, it.initiator, it.responder, old_a, old_b, a, b);
    if (options.state_census) {
      // Every id in `config` is already in the census (initial states were
      // inserted up front, transition results below), so no-op interactions
      // — the overwhelming majority on sparse-token protocols — skip the
      // hash-set probe entirely.  `encode` is injective, so comparing codes
      // is exact state comparison without requiring operator== on states.
      const std::uint64_t ea = proto.encode(a);
      const std::uint64_t eb = proto.encode(b);
      if (ea != proto.encode(old_a)) census.insert(ea);
      if (eb != proto.encode(old_b)) census.insert(eb);
    }
  }

  result.stabilized = true;
  result.steps = sched.steps();
  result.distinct_states_used = census.size();
  for (node_id v = 0; v < n; ++v) {
    if (proto.output(config[static_cast<std::size_t>(v)]) == role::leader) {
      result.leader = v;
      break;
    }
  }
  return result;
}

}  // namespace pp
