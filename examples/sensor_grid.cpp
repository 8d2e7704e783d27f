// Sensor grid: leader election in a toroidal wireless sensor network.
//
//   $ ./example_sensor_grid [side] [trials]
//
// The motivating scenario of population protocols on graphs: cheap agents
// with O(1)-ish memory interacting only with spatial neighbours.  On a
// side x side torus this example compares the paper's three protocols —
// time, space, and the trade-off between them — the practical face of
// Table 1 for a low-conductance topology.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/id_election.h"
#include "dynamics/epidemic.h"
#include "graph/generators.h"
#include "support/table.h"

int main(int argc, char** argv) {
  const pp::node_id side = argc > 1 ? std::atoi(argv[1]) : 10;
  const int trials = argc > 2 ? std::atoi(argv[2]) : 10;

  const pp::graph g = pp::make_grid_2d(side, side, /*torus=*/true);
  const double n = static_cast<double>(g.num_nodes());
  std::printf("sensor network: %dx%d torus (n=%d, m=%lld)\n", side, side,
              g.num_nodes(), static_cast<long long>(g.num_edges()));

  pp::rng seed(7);
  const double b =
      pp::estimate_worst_case_broadcast_time(g, 40, 8, seed.fork(0)).value;
  std::printf("measured broadcast time B(G) ~ %.0f interactions (~n^1.5 = %.0f)\n\n",
              b, std::pow(n, 1.5));

  pp::text_table table(
      {"protocol", "memory (states)", "mean interactions", "x broadcast time"});

  {
    const pp::fast_protocol proto(pp::fast_params::practical(g, b));
    // Compiled engine (src/engine/): same seeded results, ~5x the step rate.
    const auto census = pp::run_until_stable_fast(
        proto, g, seed.fork(1), {.max_steps = UINT64_MAX, .state_census = true});
    const auto s = pp::measure_election_tuned(proto, g, trials, seed.fork(2));
    table.add_row({"fast space-efficient (Thm 24)",
                   pp::format_number(static_cast<double>(census.distinct_states_used)),
                   pp::format_number(s.steps.mean),
                   pp::format_number(s.steps.mean / b, 3)});
  }
  {
    const pp::id_protocol proto(pp::id_protocol::suggested_k(g.num_nodes()));
    const auto census = pp::run_until_stable(
        proto, g, seed.fork(3), {.max_steps = UINT64_MAX, .state_census = true});
    const auto s = pp::measure_election(proto, g, trials, seed.fork(4));
    table.add_row({"identifier broadcast (Thm 21)",
                   pp::format_number(static_cast<double>(census.distinct_states_used)),
                   pp::format_number(s.steps.mean),
                   pp::format_number(s.steps.mean / b, 3)});
  }
  {
    const pp::beauquier_protocol proto(g.num_nodes());
    const auto s = pp::measure_election_tuned(
        proto, g, trials, seed.fork(5), {.scheduler = pp::scheduler_kind::silent});
    table.add_row({"6-state tokens (Thm 16)", "6",
                   pp::format_number(s.steps.mean),
                   pp::format_number(s.steps.mean / b, 3)});
  }

  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nTrade-off: identifiers are fastest but need ~n^4 state values —\n"
      "unrealistic for 8-bit sensors; 6 states always works but pays\n"
      "~H(G)·n·log n time; the paper's fast protocol sits in between with\n"
      "O(log² n) states at ~B(G)·log n time.\n");
  return 0;
}
