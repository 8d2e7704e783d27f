// E17 — fleet sweep scaling (src/fleet/): trials/sec vs worker processes.
//
// Two claims are pinned here:
//
//   1. Determinism: the merged summary of a supervised fleet sweep
//      (measure_election_fleet) is *identical* — every statistic, bit for
//      bit — to the in-process serial sweep over the same seed list, for
//      every worker count, on both the per-interaction tuned engine and the
//      well-mixed batch engine.  This is the seed-partition contract of the
//      sweep supervisor (records merged by trial index; trial t always runs
//      seed_gen.fork(t)) and CI fails if it breaks at any W.
//
//   2. Scaling: independent trials shard embarrassingly, so trials/sec
//      should grow near-linearly with W until the host runs out of cores.
//      When the process may run on >= 2 CPUs (its affinity mask, not the
//      host's core count) at PP_BENCH_SCALE >= 1, the W = 2 row must reach
//      >= 1.7x the W = 1 rate (the serial in-process loop, no fork); on
//      1-core hosts (like the reference machine, where the next multiplier
//      is horizontal across *hosts*) and pinned runs the rows are
//      informational.
//
//   3. Journal overhead: spooling every completed trial to the crash-safe
//      .ppaj journal (fleet/journal.h) under the supervisor must cost at
//      most 5% of trials/sec vs the same supervised sweep with journaling
//      off — crash resilience is meant to be cheap enough to leave on.
//      Enforced at PP_BENCH_SCALE >= 1, informational below.
//
//   4. Remote overhead: the same W=2 supervised sweep over loopback TCP to
//      a warm resident popsimd (fleet/net.h + service.h) must stay within
//      15% of the fork path — the socket transport is meant to make more
//      hosts nearly free, not to tax each one.  Enforced at scale >= 1.
//
// Emits BENCH_fleet.json next to the table.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/fast_election.h"
#include "fleet/artifact.h"
#include "fleet/net.h"
#include "fleet/service.h"
#include "fleet/sweep.h"
#include "graph/generators.h"
#include "support/parallel.h"

namespace pp {
namespace {

struct fleet_cell {
  std::string engine;
  std::uint64_t n = 0;
  int trials = 0;
  int jobs = 0;
  double seconds = 0;
  bool equal_summary = true;  // vs the jobs = 1 sweep
  double trials_per_sec() const { return seconds > 0 ? trials / seconds : 0.0; }
};

bool same_summary(const election_summary& a, const election_summary& b) {
  return a.stabilized_fraction == b.stabilized_fraction &&
         a.max_states_used == b.max_states_used &&
         a.steps.count == b.steps.count && a.steps.mean == b.steps.mean &&
         a.steps.stddev == b.steps.stddev && a.steps.median == b.steps.median &&
         a.steps.q10 == b.steps.q10 && a.steps.q90 == b.steps.q90;
}

int run() {
  const double scale = bench_scale();
  bench::banner(
      "E17", "fleet sweep scaling (process sharding, src/fleet/)",
      "Independent trials shard across worker processes with disjoint seed\n"
      "blocks; the merged summary must be byte-identical to the serial sweep\n"
      "at every worker count, and trials/sec should scale with cores.");

  const std::vector<int> job_counts = {1, 2, 4};
  std::vector<fleet_cell> cells;
  bool determinism_ok = true;

  // --- per-interaction tuned engine on a ring ---
  const node_id n_ring = static_cast<node_id>(4000 * scale) + 64;
  const int trials_ring = bench::scaled(24);
  {
    const graph g = make_cycle(n_ring);
    const double b = estimate_worst_case_broadcast_time(g, 10, 4, rng(11)).value;
    const fast_protocol proto(fast_params::practical(g, b));
    const tuned_runner<fast_protocol> runner(proto, g);
    election_summary baseline;
    for (const int jobs : job_counts) {
      fleet_cell c;
      c.engine = "tuned";
      c.n = static_cast<std::uint64_t>(n_ring);
      c.trials = trials_ring;
      c.jobs = jobs;
      bench::stopwatch timer;
      const auto summary =
          jobs == 1 ? measure_election_sweep(runner, trials_ring, rng(7), {}, 1)
                    : measure_election_fleet(runner, trials_ring, rng(7), {}, jobs);
      c.seconds = timer.seconds();
      if (jobs == 1) baseline = summary;
      c.equal_summary = same_summary(summary, baseline);
      determinism_ok = determinism_ok && c.equal_summary;
      cells.push_back(c);
    }
  }

  // --- well-mixed batch engine on a clique ---
  const std::uint64_t n_wm = static_cast<std::uint64_t>(30000 * scale) + 1000;
  const int trials_wm = bench::scaled(16);
  {
    const fast_protocol proto(fast_params::practical_clique(n_wm));
    election_summary baseline;
    for (const int jobs : job_counts) {
      fleet_cell c;
      c.engine = "wellmixed";
      c.n = n_wm;
      c.trials = trials_wm;
      c.jobs = jobs;
      // Each row builds its own sweep inside the timer, as the serial
      // measure_election_wellmixed does.
      bench::stopwatch timer;
      const auto summary =
          jobs == 1
              ? measure_election_wellmixed(proto, n_wm, trials_wm, rng(13), {}, 1)
              : measure_election_fleet(wellmixed_sweep<fast_protocol>(proto, n_wm),
                                       trials_wm, rng(13), {}, jobs);
      c.seconds = timer.seconds();
      if (jobs == 1) baseline = summary;
      c.equal_summary = same_summary(summary, baseline);
      determinism_ok = determinism_ok && c.equal_summary;
      cells.push_back(c);
    }
  }

  // --- journal overhead: supervised W=2 sweep, journaling off vs on ---
  // Same workload as the tuned rows; each variant is timed twice and the
  // faster rep is kept, so transient scheduler noise does not read as
  // journal cost.
  double journal_overhead = 0;
  bool journal_equal = true;
  double sup_plain_s = 0, sup_journal_s = 0;
  {
    const graph g = make_cycle(n_ring);
    const double b = estimate_worst_case_broadcast_time(g, 10, 4, rng(11)).value;
    const fast_protocol proto(fast_params::practical(g, b));
    const tuned_runner<fast_protocol> runner(proto, g);
    const std::string journal_path = "BENCH_fleet.ppaj";
    election_summary plain, journaled;
    for (int rep = 0; rep < 2; ++rep) {
      bench::stopwatch plain_timer;
      plain = measure_election_fleet(runner, trials_ring, rng(7), {}, 2);
      const double ps = plain_timer.seconds();
      if (rep == 0 || ps < sup_plain_s) sup_plain_s = ps;

      fleet::supervise_options with_journal;
      with_journal.journal_path = journal_path;
      with_journal.journal_tag = 7;
      bench::stopwatch journal_timer;
      journaled = measure_election_fleet(runner, trials_ring, rng(7), {}, 2,
                                         with_journal);
      const double js = journal_timer.seconds();
      if (rep == 0 || js < sup_journal_s) sup_journal_s = js;
    }
    std::remove(journal_path.c_str());
    journal_equal = same_summary(journaled, plain);
    determinism_ok = determinism_ok && journal_equal;
    journal_overhead =
        sup_plain_s > 0 ? (sup_journal_s - sup_plain_s) / sup_plain_s : 0.0;
  }

  // --- remote overhead: W=2 supervised fork sweep vs the same sweep over
  // loopback sockets to a resident popsimd (fleet/net.h + service.h) ---
  // Fastest of two reps again: the first remote rep ships the artifact and
  // warms the daemon's cache, so the kept rep measures the resident steady
  // state — connection handshakes plus TCP record streaming.
  double remote_overhead = 0;
  bool remote_equal = true;
  double fork_s = 0, remote_s = 0;
  {
    // Fixed n regardless of scale: the sweep must serialize into a .ppaf
    // artifact, and the fast protocol's reachable space on a cycle stops
    // closing into a packed table somewhere past n ≈ 2000 (the scaling
    // rows above don't artifact, so they can grow with scale).  1200
    // matches the CI fleet-determinism artifact.
    const node_id n_net = 1200;
    const graph g = make_cycle(n_net);
    const double b = estimate_worst_case_broadcast_time(g, 10, 4, rng(11)).value;
    const fast_protocol proto(fast_params::practical(g, b));
    const tuned_runner<fast_protocol> runner(proto, g);
    const std::string artifact_path = "BENCH_fleet_net.ppaf";
    fleet::save_artifact(
        fleet::make_tuned_artifact(runner, g, "cycle", fleet::fast_desc(proto.params())),
        artifact_path);
    const fleet::service_process daemon(fleet::service_options{});
    const std::vector<fleet::net::host_addr> hosts(
        2, fleet::net::host_addr{"127.0.0.1", daemon.port()});
    fleet::worker_manifest manifest;
    manifest.artifact_path = artifact_path;
    manifest.seed = 7;
    manifest.trials = static_cast<std::uint64_t>(trials_ring);
    election_summary forked, remote;
    for (int rep = 0; rep < 2; ++rep) {
      bench::stopwatch fork_timer;
      // Same trial seeds as the remote path: supervised_remote_sweep derives
      // its seed generator as rng(manifest.seed).fork(2) (worker_manifest
      // contract), so the fork baseline must start from the same generator
      // for the summaries to be byte-identical.
      forked = measure_election_fleet(runner, trials_ring, rng(7).fork(2), {}, 2);
      const double fs = fork_timer.seconds();
      if (rep == 0 || fs < fork_s) fork_s = fs;

      bench::stopwatch remote_timer;
      remote = summarize_election_results(
          fleet::net::supervised_remote_sweep(hosts, 2, manifest, {}));
      const double rs = remote_timer.seconds();
      if (rep == 0 || rs < remote_s) remote_s = rs;
    }
    std::remove(artifact_path.c_str());
    remote_equal = same_summary(remote, forked);
    determinism_ok = determinism_ok && remote_equal;
    remote_overhead = fork_s > 0 ? (remote_s - fork_s) / fork_s : 0.0;
  }

  text_table table({"engine", "n", "trials", "W", "seconds", "trials/s",
                    "speedup", "eq"});
  double tuned_w1 = 0, tuned_w2 = 0;
  for (const fleet_cell& c : cells) {
    double base_rate = 0;
    for (const fleet_cell& b : cells) {
      if (b.engine == c.engine && b.jobs == 1) base_rate = b.trials_per_sec();
    }
    const double speedup = base_rate > 0 ? c.trials_per_sec() / base_rate : 0.0;
    if (c.engine == "tuned" && c.jobs == 1) tuned_w1 = c.trials_per_sec();
    if (c.engine == "tuned" && c.jobs == 2) tuned_w2 = c.trials_per_sec();
    table.add_row({c.engine, std::to_string(c.n), std::to_string(c.trials),
                   std::to_string(c.jobs), format_number(c.seconds, 3),
                   format_number(c.trials_per_sec(), 3),
                   format_number(speedup, 3), c.equal_summary ? "yes" : "NO"});
  }
  bench::print_table(table);
  std::printf(
      "journal overhead (supervised W=2, %d trials): off %.3fs, on %.3fs "
      "-> %+.1f%% (eq %s)\n",
      trials_ring, sup_plain_s, sup_journal_s, 100.0 * journal_overhead,
      journal_equal ? "yes" : "NO");
  std::printf(
      "remote overhead (W=2 loopback popsimd vs fork, %d trials): fork "
      "%.3fs, remote %.3fs -> %+.1f%% (eq %s)\n",
      trials_ring, fork_s, remote_s, 100.0 * remote_overhead,
      remote_equal ? "yes" : "NO");

  const std::size_t cores = usable_cpus();
  const double w2_speedup = tuned_w1 > 0 ? tuned_w2 / tuned_w1 : 0.0;
  // The scaling gate needs real parallel hardware and a workload big enough
  // to amortise the fork: enforced at scale >= 1 when the process may run on
  // >= 2 CPUs (its affinity mask, so a run pinned to one CPU stays
  // informational), else informational (the reference host has 1 core).
  const bool enforce_scaling = cores >= 2 && scale >= 1.0;
  const bool scaling_ok = !enforce_scaling || w2_speedup >= 1.7;
  const bool enforce_journal = scale >= 1.0;
  const bool journal_ok = !enforce_journal || journal_overhead <= 0.05;
  // Socket transport is allowed a little more than the journal (handshake +
  // TCP framing on every reconnect-free stream), but a warm resident daemon
  // on loopback must stay within 15% of the fork path.
  const bool enforce_remote = scale >= 1.0;
  const bool remote_ok = !enforce_remote || remote_overhead <= 0.15;

  bench::json_writer json;
  json.begin_object();
  json.key("bench").value("fleet");
  json.key("scale").value(scale);
  json.key("cores").value(static_cast<std::uint64_t>(cores));
  json.key("results").begin_array();
  for (const fleet_cell& c : cells) {
    json.begin_object();
    json.key("engine").value(c.engine);
    json.key("n").value(c.n);
    json.key("trials").value(c.trials);
    json.key("jobs").value(c.jobs);
    json.key("seconds").value(c.seconds);
    json.key("trials_per_sec").value(c.trials_per_sec());
    json.key("equal_summary").value(c.equal_summary);
    json.end_object();
  }
  json.end_array();
  json.key("w2_speedup_tuned").value(w2_speedup);
  json.key("determinism_pass").value(determinism_ok);
  json.key("scaling_enforced").value(enforce_scaling);
  json.key("scaling_pass").value(scaling_ok);
  json.key("journal_overhead_frac").value(journal_overhead);
  json.key("journal_enforced").value(enforce_journal);
  json.key("journal_overhead_pass").value(journal_ok);
  json.key("remote_overhead_frac").value(remote_overhead);
  json.key("remote_enforced").value(enforce_remote);
  json.key("remote_overhead_pass").value(remote_ok);
  json.end_object();
  json.write_file("BENCH_fleet.json");

  std::printf(
      "Reading: `eq` is the hard gate — a fleet sweep must merge to exactly\n"
      "the serial summary at every W (seed-partition determinism).  The\n"
      "speedup column is the horizontal-scaling story; it is enforced\n"
      "(>= 1.7x at W=2) only with >= 2 usable CPUs at full scale.  Journal\n"
      "spooling must cost <= 5%% trials/sec (enforced at full scale), and a\n"
      "warm loopback popsimd must stay within 15%% of the fork path.\n"
      "Wrote BENCH_fleet.json.\n");

  if (!determinism_ok) {
    std::fprintf(stderr,
                 "FAIL: a fleet sweep diverged from the serial summary.\n");
  }
  if (!scaling_ok) {
    std::fprintf(stderr,
                 "FAIL: W=2 fleet speedup %.2fx below the 1.7x acceptance "
                 "threshold with %zu usable CPUs.\n",
                 w2_speedup, cores);
  }
  if (!journal_ok) {
    std::fprintf(stderr,
                 "FAIL: journal spooling cost %.1f%% of trials/sec, above "
                 "the 5%% acceptance threshold.\n",
                 100.0 * journal_overhead);
  }
  if (!remote_ok) {
    std::fprintf(stderr,
                 "FAIL: the loopback socket sweep cost %.1f%% vs the fork "
                 "path, above the 15%% acceptance threshold.\n",
                 100.0 * remote_overhead);
  }
  return determinism_ok && scaling_ok && journal_ok && remote_ok ? 0 : 1;
}

}  // namespace
}  // namespace pp

int main() { return pp::run(); }
