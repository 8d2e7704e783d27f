// E4 — the clique rows of Table 1: Θ(n log n)-to-polylog-states versus
// Θ(n²)-to-constant-states.
//
// On cliques the fast protocol stabilizes in O(B·log n) = O(n log² n) steps
// with O(log² n) states, the identifier protocol in O(n log n) steps with
// poly(n) states, and the constant-state protocol in Θ(n²)·O(log n) steps.
// The bench sweeps n and prints normalised columns: flat steps/(n·log n),
// steps/(n·log² n) and steps/n² confirm the scaling; the widening gap column
// reproduces the space-time separation.
#include <cmath>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "graph/generators.h"
#include "core/id_election.h"
#include "support/fit.h"

namespace pp {
namespace {

void run() {
  bench::banner("E4", "Table 1 clique rows (time-space trade-off on cliques)",
                "fast ~ n·log² n (polylog states), id ~ n·log n (poly states),\n"
                "6-state ~ n² up to log factors; gap 6-state/fast grows ~ n/log n.");

  const int trials = bench::scaled(8);
  text_table table({"n", "fast steps", "/n lg^2 n", "id steps", "/n lg n",
                    "6-state steps", "/n^2", "gap 6st/fast"});

  rng seed(4);
  std::uint64_t stream = 0;
  std::vector<double> sizes;
  std::vector<double> fast_means;
  std::vector<double> bq_means;
  for (const node_id n : {64, 128, 256, 512}) {
    const graph g = make_clique(n);
    const double nn = static_cast<double>(n);
    const double lg = std::log2(nn);
    const double b_measured =
        estimate_worst_case_broadcast_time(g, bench::scaled(30), 4, seed.fork(stream++))
            .value;

    const fast_protocol fast(fast_params::practical(g, b_measured));
    // Compiled engine: same fork(t) seeds, identical results, ~5x the rate.
    const auto fast_s = measure_election_tuned(fast, g, trials, seed.fork(stream++));

    const id_protocol ident(id_protocol::suggested_k(n));
    const auto id_s = measure_election(ident, g, trials, seed.fork(stream++));

    const beauquier_protocol bq(n);
    const auto bq_s = measure_election_tuned(bq, g, trials, seed.fork(stream++),
                                             {.scheduler = scheduler_kind::silent});

    sizes.push_back(nn);
    fast_means.push_back(fast_s.steps.mean);
    bq_means.push_back(bq_s.steps.mean);
    table.add_row({format_number(nn), format_number(fast_s.steps.mean),
                   format_number(fast_s.steps.mean / (nn * lg * lg), 3),
                   format_number(id_s.steps.mean),
                   format_number(id_s.steps.mean / (nn * lg), 3),
                   format_number(bq_s.steps.mean),
                   format_number(bq_s.steps.mean / (nn * nn), 3),
                   format_number(bq_s.steps.mean / fast_s.steps.mean, 3)});
  }

  const auto fast_fit = fit_loglog(sizes, fast_means);
  const auto bq_fit = fit_loglog(sizes, bq_means);
  bench::print_table(table);
  std::printf("log-log slopes: fast %.2f (expect ~1.1-1.4), 6-state %.2f "
              "(expect ~2±0.2).\n",
              fast_fit.slope, bq_fit.slope);
}

}  // namespace
}  // namespace pp

int main() {
  pp::run();
  return 0;
}
