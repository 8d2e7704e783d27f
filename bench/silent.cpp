// E19 — event-driven silent-edge scheduler (src/engine/silent/).
//
// Two claims are pinned here:
//
//   1. Agreement: on the same tuned runner, the silent scheduler's mean
//      stabilization step count AND mean elected-leader id match the step
//      scheduler's within 3σ (standard errors combined) — skipping silent
//      runs analytically is statistically invisible in when the election
//      ends and in who wins.  Checked in the fast protocol's two extreme
//      regimes (default parameters: almost every step active; the
//      backup-dominated regime: almost every step silent) and always
//      enforced, at every PP_BENCH_SCALE.
//
//   2. Rate: in the backup-dominated regime the election endgame is two
//      tokens meeting on the graph — Θ(n²) scheduler steps of which only
//      O(active) change state.  At n = 10⁶ the silent scheduler runs the
//      complete election outright; the step scheduler's projected wall
//      clock for the same election (its measured steps/sec over a bounded
//      budget, extrapolated to the silent run's step count) must be
//      >= 3× the silent scheduler's actual wall clock (enforced at
//      PP_BENCH_SCALE >= 1; the measured margin is orders of magnitude).
//
// Emits BENCH_silent.json next to the tables.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/fast_election.h"
#include "engine/engine.h"
#include "graph/generators.h"

namespace pp {
namespace {

// The backup-dominated regime: a low elimination threshold hands the fast
// protocol off to the Beauquier backup quickly, leaving the silent-rich
// two-token endgame as the entire wall clock — the regime the scheduler
// exists for.  (Default parameters keep elections inside the fast phase,
// where every interaction ticks a streak clock and no step is silent.)
fast_params backup_regime_params() {
  fast_params p;
  p.h = 4;
  p.level_threshold = 8;
  p.max_level = 9;
  return p;
}

sim_options silent_options(std::uint64_t max_steps = UINT64_MAX) {
  sim_options o;
  o.scheduler = scheduler_kind::silent;
  o.max_steps = max_steps;
  return o;
}

struct mean_se {
  double mean = 0, se = 0;
};

mean_se summarize(const std::vector<double>& xs) {
  mean_se s;
  const auto n = static_cast<double>(xs.size());
  for (const double x : xs) s.mean += x;
  s.mean /= n;
  double ss = 0;
  for (const double x : xs) ss += (x - s.mean) * (x - s.mean);
  s.se = n > 1 ? std::sqrt(ss / (n - 1) / n) : 0.0;
  return s;
}

double deviation_sigmas(const mean_se& a, const mean_se& b) {
  const double sigma = std::sqrt(a.se * a.se + b.se * b.se);
  return sigma > 0 ? std::fabs(a.mean - b.mean) / sigma : 0.0;
}

struct agreement_cell {
  std::string regime;
  node_id n = 0;
  int trials = 0;
  mean_se step_steps, silent_steps;
  mean_se step_leader, silent_leader;
  double steps_dev_sigmas() const {
    return deviation_sigmas(step_steps, silent_steps);
  }
  // On these node-symmetric graphs the elected leader id is close to
  // uniform over [0, n); agreement of its mean is the distributional check
  // on *which* leader wins, complementing the step-count check on *when*.
  double leader_dev_sigmas() const {
    return deviation_sigmas(step_leader, silent_leader);
  }
  bool pass() const {
    return steps_dev_sigmas() <= 3.0 && leader_dev_sigmas() <= 3.0;
  }
};

// Stabilization-step and elected-leader distributions, step vs silent
// scheduler, on one shared runner (independent seeds: once a node turns
// inert the schedulers consume draws differently).
agreement_cell run_agreement(const std::string& regime, const fast_params& p,
                             const graph& g, int trials, std::uint64_t seed) {
  agreement_cell c;
  c.regime = regime;
  c.n = g.num_nodes();
  c.trials = trials;
  const fast_protocol proto(p);
  const tuned_runner<fast_protocol> runner(proto, g);
  std::vector<double> step_steps, silent_steps, step_leader, silent_leader;
  rng step_gen(seed), silent_gen(seed + 1);
  for (int t = 0; t < trials; ++t) {
    const auto s = runner.run(step_gen.fork(static_cast<std::uint64_t>(t)));
    const auto q = runner.run(silent_gen.fork(static_cast<std::uint64_t>(t)),
                              silent_options());
    if (s.stabilized) {
      step_steps.push_back(static_cast<double>(s.steps));
      step_leader.push_back(static_cast<double>(s.leader));
    }
    if (q.stabilized) {
      silent_steps.push_back(static_cast<double>(q.steps));
      silent_leader.push_back(static_cast<double>(q.leader));
    }
  }
  c.step_steps = summarize(step_steps);
  c.silent_steps = summarize(silent_steps);
  c.step_leader = summarize(step_leader);
  c.silent_leader = summarize(silent_leader);
  return c;
}

struct rate_cell {
  std::string scheduler;
  std::uint64_t n = 0;
  std::uint64_t steps = 0;
  double seconds = 0;
  bool full_election = false;
  bool stabilized = false;
  double sps() const {
    return seconds > 0 ? static_cast<double>(steps) / seconds : 0;
  }
};

// A complete backup-regime election under the silent scheduler.  The
// incidence rows and the inert set are built by an untimed 0-step run
// first, mirroring the untimed graph/endpoint construction of the other
// engine benches.
rate_cell silent_full(const tuned_runner<fast_protocol>& runner,
                      std::uint64_t n, std::uint64_t seed) {
  rate_cell c;
  c.scheduler = "silent";
  c.n = n;
  c.full_election = true;
  runner.run(rng(seed), silent_options(0));  // warm silent views + table
  bench::stopwatch clock;
  const auto r = runner.run(rng(seed), silent_options());
  c.seconds = clock.seconds();
  c.steps = r.steps;
  c.stabilized = r.stabilized;
  return c;
}

// Steps/sec of the step scheduler on the same runner over a bounded budget
// (steady-state rate; the full backup-regime election would take hours at
// full scale — that projection is the point of the acceptance gate).
rate_cell packed_capped(const tuned_runner<fast_protocol>& runner,
                        std::uint64_t n, std::uint64_t budget,
                        std::uint64_t seed) {
  rate_cell c;
  c.scheduler = "step";
  c.n = n;
  const sim_options opts{.max_steps = budget};
  runner.run(rng(seed), sim_options{.max_steps = budget / 8});  // warm caches
  bench::stopwatch clock;
  const auto r = runner.run(rng(seed + 1), opts);
  c.seconds = clock.seconds();
  c.steps = r.steps;
  c.stabilized = r.stabilized;
  return c;
}

bool run() {
  bench::banner(
      "E19", "silent-edge scheduler (event-driven engine, src/engine/silent/)",
      "Tracking the edges with a non-inert endpoint and jumping the rest\n"
      "geometrically: statistical agreement with the step scheduler in both\n"
      "activity regimes, then a full backup-regime election at n = 1e6\n"
      "against the step scheduler's projected wall clock.");

  const double scale = bench_scale();
  const bool full = scale >= 1.0;

  // ---- 1. agreement gate (always on) ----
  const int trials = std::max(8, bench::scaled(24));
  rng graph_gen(19);
  std::vector<agreement_cell> agreement;
  agreement.push_back(run_agreement("fast-phase (default params)",
                                    fast_params::practical_clique(128),
                                    make_cycle(128), trials, 900));
  agreement.push_back(run_agreement(
      "backup-dominated", backup_regime_params(),
      make_random_regular(256, 8, graph_gen), trials, 1100));

  text_table agree_table({"regime", "n", "trials", "step mean", "silent mean",
                          "steps |dev|/sigma", "leader |dev|/sigma", "pass"});
  bool agreement_ok = true;
  for (const auto& c : agreement) {
    agreement_ok = agreement_ok && c.pass();
    agree_table.add_row({c.regime, format_number(c.n), format_number(c.trials),
                         format_number(c.step_steps.mean, 4),
                         format_number(c.silent_steps.mean, 4),
                         format_number(c.steps_dev_sigmas(), 2),
                         format_number(c.leader_dev_sigmas(), 2),
                         c.pass() ? "yes" : "NO"});
  }
  bench::print_table(agree_table);

  // ---- 2. rate cells ----
  // Full scale: the headline n = 10⁶ regular graph.  CI scale: n = 2·10⁴,
  // where the endgame is short enough for the step scheduler to sample —
  // the cells exercise both code paths without the acceptance margin.
  const std::uint64_t n = full ? 1'000'000 : 20'000;
  const std::uint64_t packed_budget =
      full ? 2'000'000'000ull
           : static_cast<std::uint64_t>(bench::scaled(200'000'000));
  const fast_protocol proto(backup_regime_params());
  rng gg(99);
  const graph g = make_random_regular(static_cast<node_id>(n), 8, gg);
  const tuned_runner<fast_protocol> runner(proto, g);

  std::vector<rate_cell> rates;
  rates.push_back(silent_full(runner, n, 7));
  rates.push_back(packed_capped(runner, n, packed_budget, 11));

  text_table rate_table({"scheduler", "n", "steps", "time (s)", "steps/s",
                         "full election"});
  for (const auto& c : rates) {
    rate_table.add_row({c.scheduler, format_number(static_cast<double>(c.n)),
                        format_number(static_cast<double>(c.steps)),
                        format_number(c.seconds, 3), format_number(c.sps(), 3),
                        c.full_election ? (c.stabilized ? "yes" : "NO") : "-"});
  }
  bench::print_table(rate_table);

  // ---- acceptance (full scale only) ----
  // The step scheduler pays every silent step; its projected wall clock for
  // the silent run's step count must be >= 3x the silent scheduler's actual
  // one, and the silent election must have completed.
  const rate_cell& silent_cell = rates[0];
  const rate_cell& packed_cell = rates[1];
  const double projected_packed_seconds =
      packed_cell.sps() > 0
          ? static_cast<double>(silent_cell.steps) / packed_cell.sps()
          : 0.0;
  const double speedup = silent_cell.seconds > 0
                             ? projected_packed_seconds / silent_cell.seconds
                             : 0.0;
  bool scale_ok = true;
  if (full) {
    scale_ok = silent_cell.stabilized && speedup >= 3.0;
    std::printf(
        "acceptance: full n=1e6 backup-regime election %s under the silent\n"
        "scheduler in %.1fs; step scheduler projected %.0fs for the same\n"
        "steps = %.1fx (>= 3 enforced): %s\n",
        silent_cell.stabilized ? "completed" : "DID NOT complete",
        silent_cell.seconds, projected_packed_seconds, speedup,
        scale_ok ? "PASS" : "FAIL");
  } else {
    std::printf(
        "informational (scale < 1): silent %.3fs for %llu steps; step\n"
        "scheduler projected %.1fs = %.2fx (gate enforced at scale >= 1).\n",
        silent_cell.seconds,
        static_cast<unsigned long long>(silent_cell.steps),
        projected_packed_seconds, speedup);
  }

  bench::json_writer json;
  json.begin_object();
  json.key("bench").value("silent");
  json.key("scale").value(scale);
  json.key("agreement").begin_array();
  for (const auto& c : agreement) {
    json.begin_object();
    json.key("regime").value(c.regime);
    json.key("n").value(static_cast<std::int64_t>(c.n));
    json.key("trials").value(c.trials);
    json.key("step_mean_steps").value(c.step_steps.mean);
    json.key("silent_mean_steps").value(c.silent_steps.mean);
    json.key("step_mean_leader").value(c.step_leader.mean);
    json.key("silent_mean_leader").value(c.silent_leader.mean);
    json.key("steps_deviation_sigmas").value(c.steps_dev_sigmas());
    json.key("leader_deviation_sigmas").value(c.leader_dev_sigmas());
    json.key("pass").value(c.pass());
    json.end_object();
  }
  json.end_array();
  json.key("rates").begin_array();
  for (const auto& c : rates) {
    json.begin_object();
    json.key("scheduler").value(c.scheduler);
    json.key("n").value(c.n);
    json.key("steps").value(c.steps);
    json.key("seconds").value(c.seconds);
    json.key("steps_per_sec").value(c.sps());
    json.key("full_election").value(c.full_election);
    json.key("stabilized").value(c.stabilized);
    json.end_object();
  }
  json.end_array();
  json.key("projected_step_seconds").value(projected_packed_seconds);
  json.key("speedup_projected").value(speedup);
  json.key("agreement_pass").value(agreement_ok);
  json.key("scale_pass").value(scale_ok);
  json.end_object();
  json.write_file("BENCH_silent.json");

  std::printf(
      "Reading: the agreement rows are the correctness gate (the jump must\n"
      "be statistically invisible in both activity regimes); the rate rows\n"
      "show the endgame cost collapsing from Theta(n^2) scheduler steps to\n"
      "O(active) executed ones.\nWrote BENCH_silent.json.\n");

  if (!agreement_ok) {
    std::fprintf(stderr,
                 "FAIL: silent/step mean stabilization steps disagree beyond "
                 "3 sigma.\n");
  }
  if (!scale_ok) {
    std::fprintf(stderr,
                 "FAIL: scale acceptance not met (full n=1e6 election must "
                 "complete and the projected step-scheduler wall clock must "
                 "be >= 3x the silent one).\n");
  }
  return agreement_ok && scale_ok;
}

}  // namespace
}  // namespace pp

int main() { return pp::run() ? 0 : 1; }
