// E5 — the dense-random rows of Table 1 and the shapes behind Theorems 40/46.
//
// On connected G(n,p) with constant p: B(G) = O(n log n) w.h.p. (Lemma 11),
// so the fast protocol runs in O(n log² n); the 6-state protocol needs
// ~H(G)·n·log n = Θ(n² log n) (Proposition 20: H = O(n)); and by Theorem 46
// *no* constant-state protocol can beat n² on these graphs — the measured
// 6-state/fast gap growing linearly in n is the empirical face of that
// separation.  Theorem 40's Ω(n log n) bound for any protocol on dense
// graphs shows in the fast protocol's normalised column staying >= order 1.
#include <cmath>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/id_election.h"
#include "graph/generators.h"

namespace pp {
namespace {

void run() {
  bench::banner("E5", "Table 1 dense-random rows + Theorems 40/46 shapes",
                "fast ~ n log² n; id ~ n log n (>= Ω(n log n), Thm 40);\n"
                "6-state ~ n² log n (o(n²) impossible for constant state, Thm 46).");

  const int trials = bench::scaled(8);
  text_table table({"p", "n", "fast steps", "/n lg^2 n", "id steps", "/n lg n",
                    "6-state steps", "/n^2 lg n", "gap 6st/fast"});

  rng seed(5);
  std::uint64_t stream = 0;
  for (const double p : {0.5, 0.25}) {
    for (const node_id n : {64, 128, 256}) {
      rng make_gen = seed.fork(stream++);
      const graph g = make_connected_erdos_renyi(n, p, make_gen);
      const double nn = static_cast<double>(n);
      const double lg = std::log2(nn);

      const double b_measured =
          estimate_worst_case_broadcast_time(g, bench::scaled(30), 6,
                                             seed.fork(stream++))
              .value;

      const fast_protocol fast(fast_params::practical(g, b_measured));
      // Compiled engine: same fork(t) seeds, identical results, ~5x the rate.
      const auto fast_s = measure_election_tuned(fast, g, trials, seed.fork(stream++));

      const id_protocol ident(id_protocol::suggested_k(n));
      const auto id_s = measure_election(ident, g, trials, seed.fork(stream++));

      const beauquier_protocol bq(n);
      const auto bq_s = measure_election_tuned(bq, g, trials, seed.fork(stream++),
                                               {.scheduler = scheduler_kind::silent});

      table.add_row({format_number(p, 2), format_number(nn),
                     format_number(fast_s.steps.mean),
                     format_number(fast_s.steps.mean / (nn * lg * lg), 3),
                     format_number(id_s.steps.mean),
                     format_number(id_s.steps.mean / (nn * lg), 3),
                     format_number(bq_s.steps.mean),
                     format_number(bq_s.steps.mean / (nn * nn * lg), 3),
                     format_number(bq_s.steps.mean / fast_s.steps.mean, 3)});
    }
  }

  bench::print_table(table);
  std::printf(
      "Reading: normalised columns flat in n reproduce the asymptotic rows;\n"
      "the final gap column growing roughly linearly in n is the measured\n"
      "face of the Theorem 46 constant-state lower bound.\n");
}

}  // namespace
}  // namespace pp

int main() {
  pp::run();
  return 0;
}
