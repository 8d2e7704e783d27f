// One-way epidemics: the information-propagation process of §3.
//
// Every node starts with a unique message; when two nodes interact they
// exchange everything they know.  Followed from a single source v this is the
// infection process whose completion time is the broadcast time T(v); its
// worst-case expectation over sources is B(G), the quantity parameterising
// the paper's upper bounds (Theorems 21 and 24).
//
// Two simulators are provided:
//  * `simulate_broadcast_naive` draws every scheduler step (reference
//    implementation, used in differential tests);
//  * `simulate_broadcast` is event-driven: the set of informed nodes only
//    changes when the scheduler hits a boundary edge, so the wait is
//    Geometric(|∂S|/m) and we skip it in O(1).  The sampled trajectory has
//    exactly the naive distribution.
//
// One kernel, `detail::broadcast_workspace::run`, is the event-driven loop
// behind simulate_broadcast and both estimates.  Its workspace is built once
// per call of those functions and reused by every source and trial of an
// estimate, so B(G) pays no per-broadcast allocation or O(m) fill.  It holds
// 12 bytes per edge: a u32 pool position, and a pool slot of two u32s, the
// edge id and the edge's uninformed endpoint, so an infection reads the fresh
// node straight from the slot it samples.  Per node it holds one informed
// byte.  Per boundary size k < 2n it caches log(1 - k/m), the geometric
// wait's denominator, computed on first use through the geometric_log_q that
// rng::geometric calls; sparse boundaries stay below 2n (random 8-regular
// graphs peak near 1.6n), and on dense graphs, where most sizes occur once,
// the wait computes it directly.  Two invariants make the reuse sound:
//  * an edge is in the pool exactly while one of its ends is informed, and
//    informed nodes stay informed, so the endpoint a slot carries stays the
//    uninformed one for as long as the slot lives;
//  * a broadcast ends with every node informed, hence an empty pool, so the
//    next run resets only the n informed bytes.
// The kernel consumes the generator's draws in the same order as the former
// per-broadcast pool did and divides by the same doubles, so every T(v)
// sample, B(G) and the fast protocol's parameters built from it are
// bit-identical to it; Broadcast.KernelMatchesParentOracle in
// tests/test_epidemic.cpp pins this against a verbatim copy of that code.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "support/rng.h"

namespace pp {

// Outcome of one broadcast trial from a single source.
struct broadcast_result {
  // infection_step[v] = scheduler step at which v became informed (0 for the
  // source itself).
  std::vector<std::uint64_t> infection_step;
  // Step at which the last node became informed, i.e. one sample of T(source).
  std::uint64_t completion_step = 0;
};

// Event-driven broadcast from `source`.  Requires a connected graph.
broadcast_result simulate_broadcast(const graph& g, node_id source, rng gen);

// Step-by-step reference broadcast (identical distribution, much slower).
broadcast_result simulate_broadcast_naive(const graph& g, node_id source, rng gen);

// Monte-Carlo estimate of E[T(source)] from `trials` independent runs.
double estimate_broadcast_time(const graph& g, node_id source, int trials, rng gen);

// Estimate of the worst-case expected broadcast time B(G) = max_v E[T(v)].
// Evaluates E[T(v)] for up to `max_sources` sources (all of them if
// n <= max_sources, otherwise the extremal-degree nodes plus random ones —
// on every family in this repo the maximiser is extremal in degree).
struct broadcast_time_estimate {
  double value = 0.0;     // max over evaluated sources of the mean T(v)
  node_id argmax = 0;     // source attaining the max
  double min_value = 0.0; // min over evaluated sources (best-case source)
};
broadcast_time_estimate estimate_worst_case_broadcast_time(
    const graph& g, int trials_per_source, int max_sources, rng gen);

namespace detail {

// The event-driven broadcast kernel and its reusable workspace (see the file
// comment).  Requires g to outlive the workspace.
class broadcast_workspace {
 public:
  explicit broadcast_workspace(const graph& g);

  // One broadcast from `source`: returns its completion step and, when
  // `infection_step` is non-null, writes each node's infection step into
  // infection_step[0, n) (the source's entry is left untouched).
  std::uint64_t run(node_id source, rng gen, std::uint64_t* infection_step);

 private:
  struct slot {
    std::uint32_t edge;  // edge id
    node_id uninformed;  // its endpoint outside the informed set
  };

  // Moves the edges of the newly informed node v into or out of the pool.
  void visit(node_id v);
  double log_q(std::size_t k);

  const graph& g_;
  double m_;
  std::vector<std::uint32_t> position_;  // per edge: its pool slot, or absent
  std::vector<slot> pool_;               // boundary edges in [0, size_)
  std::uint32_t size_ = 0;
  std::vector<std::uint8_t> informed_;   // per node
  std::vector<double> log_q_;            // per boundary size k < 2n; 0 = not yet
};

}  // namespace detail

// Distance-k propagation time T_k(source) extracted from one trial: the
// earliest infection step among nodes at BFS distance exactly k, or
// UINT64_MAX if no node is at that distance (§3.2).
std::uint64_t distance_k_propagation_step(const broadcast_result& r,
                                          const std::vector<std::int32_t>& distances,
                                          std::int32_t k);

}  // namespace pp
