// E6 — Theorem 39 / Lemmas 37/38: renitent graphs, where leader election is
// as slow as broadcast.
//
// The Lemma 38 construction (four base copies joined into a ring by paths of
// length 2ℓ) is Ω(ℓm)-renitent: *any* protocol needs Ω(ℓm) expected steps,
// and B(G) = Θ(ℓm).  The bench sweeps ℓ, measures B(G) and the stabilization
// time of the fast protocol (our best upper bound, O(B·log n)), and shows
// that (a) both grow as Θ(ℓm), and (b) election time / B(G) stays within a
// logarithmic factor — i.e. on these graphs the Theorem 34 lower bound and
// the Theorem 24 upper bound pinch the true complexity to Θ̃(B(G)).
// A Theorem 39 instance with target T(n) = n² is included.
#include <cmath>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/fast_election.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "support/fit.h"

namespace pp {
namespace {

void lemma38_sweep() {
  const int trials = bench::scaled(6);
  text_table table({"ell", "n", "m", "B measured", "B/(ell*m)", "fast steps",
                    "fast/B", "fast/(B lg n)"});

  rng seed(6);
  std::uint64_t stream = 0;
  std::vector<double> ells;
  std::vector<double> broadcast;
  std::vector<double> election;
  const graph base = make_clique(8);
  for (const node_id ell : {4, 8, 16, 32}) {
    const graph g = make_renitent(base, 0, ell);
    const double n = static_cast<double>(g.num_nodes());
    const double m = static_cast<double>(g.num_edges());

    const auto b = estimate_worst_case_broadcast_time(g, bench::scaled(30), 8,
                                                      seed.fork(stream++));
    const fast_protocol proto(fast_params::practical(g, b.value));
    const auto s = measure_election_tuned(proto, g, trials, seed.fork(stream++));

    ells.push_back(static_cast<double>(ell));
    broadcast.push_back(b.value);
    election.push_back(s.steps.mean);
    table.add_row({format_number(ell), format_number(n), format_number(m),
                   format_number(b.value), format_number(b.value / (ell * m), 3),
                   format_number(s.steps.mean), format_number(s.steps.mean / b.value, 3),
                   format_number(s.steps.mean / (b.value * std::log2(n)), 3)});
  }

  std::printf("Lemma 38 renitent graphs (base K_8, ring of four copies):\n");
  bench::print_table(table);
  const auto bfit = fit_loglog(ells, broadcast);
  const auto efit = fit_loglog(ells, election);
  std::printf(
      "growth in ell: B slope %.2f, election slope %.2f.  Both quantities\n"
      "are Θ(ℓ·m) with m = 112 + 8ℓ, so the slope drifts from 1 towards 2 as\n"
      "the paths dominate; the flat B/(ℓ·m) column is the sharp check.  The\n"
      "fast/(B·lg n) column is flat: election time matches the Ω(B) lower\n"
      "bound up to the protocol's L·2^{h+1}Δ/m ≈ 16·lg n constant.\n\n",
      bfit.slope, efit.slope);
}

void theorem39_instance() {
  rng seed(7);
  theorem39_spec spec;
  rng make_gen = seed.fork(0);
  const auto target = [](double n) { return n * n; };
  const graph g = theorem39_graph(64, target, make_gen, &spec);

  const auto b = estimate_worst_case_broadcast_time(g, bench::scaled(30), 8,
                                                    seed.fork(1));
  const fast_protocol proto(fast_params::practical(g, b.value));
  const auto s = measure_election_tuned(proto, g, bench::scaled(6), seed.fork(2));

  // Theorem 39 promises Θ(T(n)) at the size n of the *constructed* graph.
  const double n_total = static_cast<double>(g.num_nodes());
  const double t_target = target(n_total);
  const double log_n = std::log2(n_total);
  std::printf("Theorem 39 instance, target T(n)=n² (base size 64, star base: %s,"
              " ell=%d, extra edges=%lld):\n",
              spec.clique_base ? "no" : "yes", spec.ell,
              static_cast<long long>(spec.extra_edges));
  std::printf("  graph: n=%d m=%lld diameter=%d, T(n)=%s\n", g.num_nodes(),
              static_cast<long long>(g.num_edges()), diameter(g),
              format_number(t_target).c_str());
  std::printf("  B measured = %s, B/T = %s (Θ(1) expected)\n",
              format_number(b.value).c_str(),
              format_number(b.value / t_target, 3).c_str());
  std::printf("  election steps = %s, election/(T·lg n) = %s "
              "(flat O(1)·protocol-constant expected)\n\n",
              format_number(s.steps.mean).c_str(),
              format_number(s.steps.mean / (t_target * log_n), 3).c_str());
}

void lemma37_cycle_isolation() {
  // Cycles are Ω(n²)-renitent: information needs Ω(ℓ·m) = Ω(n²) steps to
  // cross a quarter arc.  Measure the distance-(n/4) propagation time.
  text_table table({"n", "mean T_{n/4}", "T/(n^2/16)"});
  rng seed(8);
  for (const node_id n : {64, 128, 256}) {
    const graph g = make_cycle(n);
    const auto dist = bfs_distances(g, 0);
    const int k = n / 4;
    double total = 0.0;
    const int trials = bench::scaled(100);
    for (int t = 0; t < trials; ++t) {
      const auto r = simulate_broadcast(g, 0, seed.fork(static_cast<std::uint64_t>(n) * 1000 + t));
      total += static_cast<double>(distance_k_propagation_step(r, dist, k));
    }
    const double mean = total / trials;
    table.add_row({format_number(n), format_number(mean),
                   format_number(mean / (n * n / 16.0), 3)});
  }
  std::printf("Lemma 37: quarter-arc isolation on cycles (Θ(n²)):\n");
  bench::print_table(table);
}

}  // namespace
}  // namespace pp

int main() {
  pp::bench::banner("E6", "Theorem 39 / Lemmas 37-38 (renitent constructions)",
                    "election time ≍ B(G) ≍ Θ(ℓ·m) on renitent graphs — the\n"
                    "lower bound of Theorem 34 is matched by Theorem 24 up to log n.");
  pp::lemma38_sweep();
  pp::theorem39_instance();
  pp::lemma37_cycle_isolation();
  return 0;
}
