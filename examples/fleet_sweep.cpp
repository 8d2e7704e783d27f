// Fleet sweep quickstart (src/fleet/): prepare a sweep once, serialize it as
// a checksummed artifact, and shard the trials across worker processes.
//
// The flow mirrors what `popsim --jobs W --save-artifact F` automates:
//   1. build the protocol + graph and resolve the engine layout once
//      (tuned_runner: closed table, packed snapshot, reorder permutation);
//   2. save its artifact, written straight from the runner, and open the
//      file (fleet::open_sweep) — the opener rebuilds the sweep and
//      compares its tables' prints with the stored ones, so
//      version-skewed workers fail loudly instead of silently diverging;
//   3. run the same seed list serially and through two supervised forked
//      workers and check the summaries match *exactly* (seed-partition
//      determinism: trial t always runs seed_gen.fork(t), records merge by
//      trial index);
//   4. re-run it with the flight recorder attached (src/obs/) — the same
//      hookup `popsim --metrics F --trace F` automates — and write the
//      metrics snapshot + Chrome trace timeline to disk.
#include <cstdio>
#include <string>

#include "analysis/experiment.h"
#include "core/fast_election.h"
#include "dynamics/epidemic.h"
#include "fleet/artifact.h"
#include "fleet/supervisor.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"

int main() {
  const pp::node_id n = 2000;
  const int trials = 16;
  const pp::graph g = pp::make_cycle(n);
  const double b =
      pp::estimate_worst_case_broadcast_time(g, 10, 4, pp::rng(1)).value;
  const pp::fast_protocol proto(pp::fast_params::practical(g, b));
  const pp::tuned_runner<pp::fast_protocol> runner(proto, g);
  std::printf("prepared: ring n=%d, |Lambda|=%zu, pack=u%d\n", n,
              runner.compiled().num_states(), runner.pack_bits());

  // Serialize the prepared sweep and rebuild it from the file, as a worker
  // process (or another host) would.
  const std::string path = "/tmp/fleet_sweep_example.ppaf";
  pp::fleet::save_artifact(
      pp::fleet::make_tuned_artifact(runner, g, "cycle",
                                     pp::fleet::fast_desc(proto.params())),
      path);
  return pp::fleet::open_sweep(path, [&](const auto& rebuilt) {
    std::printf("artifact: %s round-tripped and validated (closed table, "
                "packed snapshot, graph)\n", path.c_str());

    // Same seed list, serial vs two worker processes: identical summaries.
    const auto serial = pp::measure_election_sweep(rebuilt->runner, trials, pp::rng(7));
    const auto fleet =
        pp::measure_election_fleet(rebuilt->runner, trials, pp::rng(7), {}, 2);
    std::printf("serial: mean %.0f steps over %zu stabilized trials\n",
                serial.steps.mean, serial.steps.count);
    std::printf("fleet (2 workers): mean %.0f steps over %zu stabilized trials\n",
                fleet.steps.mean, fleet.steps.count);
    const bool identical = serial.steps.mean == fleet.steps.mean &&
                           serial.steps.stddev == fleet.steps.stddev &&
                           serial.stabilized_fraction == fleet.stabilized_fraction;
    std::printf("merged summaries identical: %s\n", identical ? "yes" : "NO");

    // The same sweep once more, flight-recorded: the trace collects the
    // supervisor timeline (spawn/assign/record/merge spans and instants, one
    // track per worker slot), the registry the fleet.* counters.
    // `popsim --metrics F --trace F --jobs W` wires exactly this —
    // plus per-trial worker spans and engine.* probe rollups via exec-worker
    // sidecars, which fork-mode workers don't write.
    pp::obs::metrics_registry metrics;
    pp::obs::trace_writer trace;
    pp::fleet::supervise_options sup;
    sup.metrics = &metrics;
    sup.trace = &trace;
    const auto recorded =
        pp::measure_election_fleet(rebuilt->runner, trials, pp::rng(7), {}, 2, sup);
    const bool recorded_identical = serial.steps.mean == recorded.steps.mean;
    const std::string metrics_path = "/tmp/fleet_sweep_example_metrics.json";
    const std::string trace_path = "/tmp/fleet_sweep_example_trace.json";
    const bool wrote = metrics.write_json(metrics_path) &&
                       trace.write_json(trace_path);
    std::printf("recorded sweep: identical again: %s; %llu records received, "
                "%llu workers spawned\n",
                recorded_identical ? "yes" : "NO",
                static_cast<unsigned long long>(
                    metrics.counter("fleet.records_received")),
                static_cast<unsigned long long>(
                    metrics.counter("fleet.workers_spawned")));
    std::printf("metrics snapshot: %s\n", metrics_path.c_str());
    std::printf("trace timeline:   %s  (load in chrome://tracing or "
                "ui.perfetto.dev)\n", trace_path.c_str());

    std::remove(path.c_str());
    return identical && recorded_identical && wrote ? 0 : 1;
  });
}
