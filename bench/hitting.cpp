// E7 — Theorem 16 and Lemmas 17/18/19: the constant-state protocol through
// random-walk quantities.
//
// Per family: exact worst-case classic hitting time H(G) (linear solve),
// sampled population-model hitting time H_P and meeting time M, and the
// measured 6-state stabilization time.  The paper's chain of bounds —
// H_P <= 27·n·H (Lemma 17), M <= 2·H_P (Lemma 18), stabilization
// O(H·n·log n) (Theorem 16) — shows up as every ratio column staying <= 1
// (or O(1) for the last).
#include <cmath>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/beauquier.h"
#include "dynamics/random_walk.h"
#include "graph/generators.h"

namespace pp {
namespace {

void run() {
  bench::banner("E7", "Theorem 16 + Lemmas 17/18 (hitting/meeting times)",
                "H_P/27nH <= 1;  M/2H_P <= 1;  6-state steps / H·n·lg n = O(1).");

  text_table table({"family", "n", "H exact", "H_P sampled", "H_P/27nH",
                    "M sampled", "M/2H_P", "cover_P", "/54H n lg n",
                    "6-state steps", "/H n lg n"});

  struct family_case {
    std::string name;
    graph g;
  };
  std::vector<family_case> cases;
  rng make_gen(9);
  cases.push_back({"clique", make_clique(48)});
  cases.push_back({"cycle", make_cycle(48)});
  cases.push_back({"star", make_star(48)});
  cases.push_back({"torus", make_grid_2d(7, 7, true)});
  cases.push_back({"lollipop", make_lollipop(24, 24)});
  cases.push_back({"er_dense", make_connected_erdos_renyi(48, 0.5, make_gen)});

  rng seed(10);
  std::uint64_t stream = 0;
  const int pairs = bench::scaled(12);
  const int walk_trials = bench::scaled(30);
  for (auto& fc : cases) {
    const graph& g = fc.g;
    const double n = static_cast<double>(g.num_nodes());
    const double h = exact_worst_case_hitting_time(g);

    const double hp = estimate_worst_case_population_hitting_time(
        g, pairs, walk_trials, seed.fork(stream++));

    // Meeting time of two walks at (approximately) antipodal starts.
    rng meet_gen = seed.fork(stream++);
    double m_total = 0.0;
    const int m_trials = bench::scaled(60);
    for (int t = 0; t < m_trials; ++t) {
      m_total += static_cast<double>(sample_population_meeting_time(
          g, 0, g.num_nodes() / 2, meet_gen));
    }
    const double meeting = m_total / m_trials;

    // Lemma 19: a population-model walk visits every node within
    // O(H·n·log n) steps (explicit 54·H·n·log n envelope from the proof).
    rng cover_gen = seed.fork(stream++);
    double cover_total = 0.0;
    const int cover_trials = bench::scaled(40);
    for (int t = 0; t < cover_trials; ++t) {
      cover_total +=
          static_cast<double>(sample_population_cover_time(g, 0, cover_gen));
    }
    const double cover = cover_total / cover_trials;

    const beauquier_protocol proto(g.num_nodes());
    const auto s = measure_election_tuned(proto, g, bench::scaled(10),
                                          seed.fork(stream++),
                                          {.scheduler = scheduler_kind::silent});

    const double theorem16_shape = h * n * std::log2(n);
    table.add_row({fc.name, format_number(n), format_number(h), format_number(hp),
                   format_number(hp / (27.0 * n * h), 3), format_number(meeting),
                   format_number(meeting / (2.0 * hp), 3), format_number(cover),
                   format_number(cover / (54.0 * theorem16_shape), 3),
                   format_number(s.steps.mean),
                   format_number(s.steps.mean / theorem16_shape, 3)});
  }

  bench::print_table(table);
  std::printf(
      "Note: H_P/27nH far below 1 shows Lemma 17 is loose but safe; the\n"
      "lollipop row exhibits the Θ(n³) worst case of classic hitting times.\n");
}

}  // namespace
}  // namespace pp

int main() {
  pp::run();
  return 0;
}
