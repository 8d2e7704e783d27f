// Ring network: why cycles are the hard case (Lemma 37, Table 1).
//
//   $ ./example_ring_network [n]
//
// Cycles are Ω(n²)-renitent: no protocol can elect a stable leader faster
// than information crosses a quarter of the ring, which takes Θ(n²)
// scheduler steps.  This example measures that wall (quarter-arc propagation
// time), then shows the paper's fast protocol tracking it within a log
// factor while the 6-state protocol pays Θ(n³·polylog).
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "dynamics/epidemic.h"
#include "graph/generators.h"
#include "graph/metrics.h"

int main(int argc, char** argv) {
  const pp::node_id n = argc > 1 ? std::atoi(argv[1]) : 96;
  const pp::graph g = pp::make_cycle(n);
  const double nn = static_cast<double>(n);
  std::printf("ring of %d nodes\n\n", n);

  pp::rng seed(13);

  // The renitent wall: information needs Θ(n²) steps to cross n/4 hops.
  const auto dist = pp::bfs_distances(g, 0);
  double quarter = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto r = pp::simulate_broadcast(g, 0, seed.fork(t));
    quarter += static_cast<double>(
        pp::distance_k_propagation_step(r, dist, n / 4));
  }
  quarter /= trials;
  std::printf("quarter-ring propagation time: %.0f steps (= %.2f · n²/16)\n",
              quarter, quarter / (nn * nn / 16.0));
  std::printf("=> any stable leader election on this ring needs Ω(n²) steps "
              "(Theorem 34 + Lemma 37)\n\n");

  const double b = pp::estimate_broadcast_time(g, 0, 60, seed.fork(1000));
  std::printf("broadcast time B ~ %.0f (= %.2f · n²/2)\n", b, b / (nn * nn / 2.0));

  const pp::fast_protocol fast(pp::fast_params::practical(g, b));
  const auto fast_s = pp::measure_election_tuned(fast, g, 6, seed.fork(1001));
  std::printf("fast protocol (Thm 24): %.0f steps = %.1f·B = %.2f·B·lg n\n",
              fast_s.steps.mean, fast_s.steps.mean / b,
              fast_s.steps.mean / (b * std::log2(nn)));

  const pp::beauquier_protocol bq(n);
  const auto bq_s = pp::measure_election_tuned(
      bq, g, 6, seed.fork(1002), {.scheduler = pp::scheduler_kind::silent});
  std::printf("6-state protocol (Thm 16): %.0f steps = %.2f · n³ "
              "(H(G)·n·log n with H = n²/4)\n",
              bq_s.steps.mean, bq_s.steps.mean / (nn * nn * nn));

  std::printf("\nThe ring pins the whole complexity landscape of the paper in\n"
              "one picture: a Θ(n²) information-theoretic wall, a protocol\n"
              "that hugs it up to O(log n), and a constant-memory protocol a\n"
              "factor ~n·log n behind.\n");
  return 0;
}
