// perfbench_ledger: the in-process half of the popsim end-to-end benchmark
// (perfbench/run.py).
//
//   perfbench_ledger pass [--trace FILE] [--popsim EXE] [--work DIR]
//                         [--ladder N] -- <popsim arguments>
//
// `pass` replays one popsim invocation: it takes the arguments popsim gets,
// calls the public library functions popsim calls, in popsim's order and
// with its seed forks, and wraps every call in a layer span.  A layer the
// invocation bypasses still gets an empty span, so every workload reports
// every layer (tens of nanoseconds where bypassed).  Beyond popsim's calls,
// the closure also runs alone before the runner constructor (closure.s;
// pack.s is the constructor minus it), and a fleet pass reads its artifact
// back once, as each worker does.  After the replay, --ladder N (with
// --work DIR) runs two more things on the graph `popsim rr8 N fast` builds
// for the invocation's seed:
//   * the backup-regime election: it saves the sweep artifact of the fast
//     protocol with h = 4, L = 8, α·L = 9 (bench/silent.cpp's
//     backup-dominated regime) to DIR/backup.ppaf, then runs it on the silent
//     scheduler as `popsim --load-artifact DIR/backup.ppaf --engine silent`
//     would (the silent.* layer);
//   * the engine ladder: capped runs of every engine rung on trial 0's
//     generator, on that graph with the calibrated protocol and on the
//     backup artifact's runner, then one closure that exceeds the engine
//     budget.
//
// Spans go to a Chrome trace (--trace FILE, through obs::trace_writer) and,
// at nanosecond resolution, into the one JSON object printed on stdout:
// per-layer self times and counts, and the per-trial results run.py checks
// popsim's printed summary against.
#include <sys/stat.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/families.h"
#include "core/fast_election.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "engine/wellmixed/wellmixed.h"
#include "fleet/artifact.h"
#include "fleet/supervisor.h"
#include "fleet/sweep.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/trace.h"
#include "support/parse.h"

namespace {

using pp::fast_protocol;
using runner_type = pp::tuned_runner<fast_protocol>;

// CLOCK_MONOTONIC in nanoseconds: the clock obs::trace_now_us reads, so the
// ledger's spans and the fleet supervisor's events share one epoch.
std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(ts.tv_nsec);
}

// Layer spans, kept in memory: each is a B/E pair on the trace writer's
// layers lane and a nanosecond interval with its parent for the self-time
// ledger.
class span_log {
 public:
  static constexpr int kTid = 100;  // clear of the supervisor's slot lanes

  explicit span_log(pp::obs::trace_writer* trace) : trace_(trace) {
    if (trace_ != nullptr) trace_->name_thread(kTid, "ledger layers");
  }

  void open(const std::string& name) {
    const std::int64_t t = now_ns();
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), t, t});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    if (trace_ != nullptr) trace_->begin_at(name, kTid, t / 1000);
  }

  void close() {
    const std::int64_t t = now_ns();
    span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.t1 = t;
    if (trace_ != nullptr) trace_->end_at(s.name, kTid, t / 1000);
  }

  // Runs fn inside a span named `name` and returns its result.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    open(name);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      close();
    } else {
      auto result = fn();
      close();
      return result;
    }
  }

  bool seen(const std::string& name) const {
    for (const span& s : spans_) {
      if (s.name == name) return true;
    }
    return false;
  }

  // Seconds of wall a span covers minus the part its child spans cover,
  // summed per name.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> children(spans_.size(), 0);
    for (const span& s : spans_) {
      if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      out[s.name] += static_cast<double>(s.t1 - s.t0 - children[i]) * 1e-9;
    }
    return out;
  }

  double seconds(const std::string& name) const {
    double total = 0;
    for (const span& s : spans_) {
      if (s.name == name) total += static_cast<double>(s.t1 - s.t0) * 1e-9;
    }
    return total;
  }

 private:
  struct span {
    std::string name;
    int parent = -1;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
  };
  pp::obs::trace_writer* trace_;
  std::vector<span> spans_;
  std::vector<int> stack_;
};

// Group spans: not layers; their self time is wall no layer covers.
const char* const kGroups[] = {"pass", "mirror", "backup", "ladder"};

// The replay's layer slots (a bypassed slot gets an empty span).
const char* const kMirrorSlots[] = {
    "graph.build",    "graph.rebuild",     "calibrate",     "closure",
    "pack",           "artifact.build",    "artifact.save", "artifact.load",
    "artifact.validate", "step",           "wellmixed",     "fleet.sweep",
    "epilogue.rerun"};

// Layer spans whose metric is "<name>.s" rather than "<name>_s".
const char* const kPlainLayers[] = {"calibrate", "closure", "pack",
                                    "step",      "silent",  "wellmixed"};

// The slice of popsim's command line the workloads use:
// `<family> <n> fast [--trials T] [--seed S] [--jobs J] [--engine wellmixed]`.
struct invocation {
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t trials = 5;
  std::uint64_t seed = 1;
  bool wellmixed = false;
  std::uint64_t jobs = 1;
};

bool parse_invocation(const std::vector<std::string>& args, invocation& inv) {
  if (args.size() < 3 || args[2] != "fast") return false;
  inv.family = args[0];
  if (!pp::parse_u64(args[1].c_str(), inv.n) || inv.n < 2) return false;
  for (std::size_t i = 3; i + 1 < args.size(); i += 2) {
    const std::string& flag = args[i];
    const char* value = args[i + 1].c_str();
    if (flag == "--trials") {
      if (!pp::parse_u64(value, inv.trials) || inv.trials < 1) return false;
    } else if (flag == "--seed") {
      if (!pp::parse_u64(value, inv.seed)) return false;
    } else if (flag == "--jobs") {
      if (!pp::parse_u64(value, inv.jobs) || inv.jobs < 1) return false;
    } else if (flag == "--engine" && args[i + 1] == "wellmixed") {
      inv.wellmixed = true;
    } else {
      return false;
    }
  }
  if (args.size() % 2 == 0) return false;  // a flag without its value
  return !inv.wellmixed || (inv.family == "clique" && inv.jobs == 1);
}

struct pass_config {
  std::string trace_path;
  std::string popsim;  // popsim binary the fleet supervisor execs
  std::string work;    // directory for the artifacts, manifest and sidecars
  std::uint64_t ladder_n = 0;
};

struct pass_output {
  std::map<std::string, double> metrics;
  std::vector<pp::election_result> trials;
  pp::node_id sample_leader = -1;
};

double file_mb(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<double>(st.st_size) / 1e6;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Constructs a runner or sweep out of line.  Inlined into a span's lambda,
// the wellmixed sweep constructor's closure loop ran ~3x slower than the
// same loop compiled out of line, which would charge the ledger's own
// codegen to the pack layer.
template <typename T, typename... Args>
[[gnu::noinline]] std::unique_ptr<T> construct(const Args&... args) {
  return std::make_unique<T>(args...);
}

// Trials t = 0..T-1 on generator rng(seed).fork(2).fork(t) inside one span,
// each under the probe popsim's observed workers attach (default stride,
// windows every 64 strides); returns the summed probe counts.
template <typename RunFn>
pp::obs::probe_stats timed_trials(span_log& log, const std::string& layer,
                                  std::uint64_t trials, const pp::rng& seed,
                                  std::vector<pp::election_result>& results,
                                  RunFn&& run) {
  pp::obs::probe_stats total;
  log.time(layer, [&] {
    for (std::uint64_t t = 0; t < trials; ++t) {
      pp::obs::run_probe probe(pp::obs::run_probe::kDefaultStride,
                               pp::obs::run_probe::kDefaultStride * 64);
      results.push_back(run(seed.fork(2).fork(t), &probe));
      probe.finish();
      const pp::obs::probe_stats& st = probe.stats();
      total.steps += st.steps;
      total.active_steps += st.active_steps;
      total.rng_draws += st.rng_draws;
      total.predicate_evals += st.predicate_evals;
      total.batches += st.batches;
      total.batch_retries += st.batch_retries;
    }
  });
  return total;
}

// The engine's reachability closure from the initial states of the given
// nodes or multiset classes, as the runner and sweep constructors run it.
template <typename Seeds>
pp::compiled_protocol<fast_protocol> closure_of(const fast_protocol& proto,
                                                const Seeds& seeds) {
  pp::compiled_protocol<fast_protocol> compiled(proto);
  for (const auto& seed : seeds) {
    if constexpr (std::is_same_v<std::decay_t<decltype(seed)>, pp::node_id>) {
      compiled.intern(proto.initial_state(seed));
    } else {
      compiled.intern(seed.first);
    }
  }
  compiled.close(pp::kEngineClosureBudget);
  return compiled;
}

std::vector<pp::node_id> nodes_of(const pp::graph& g) {
  std::vector<pp::node_id> nodes(static_cast<std::size_t>(g.num_nodes()));
  for (pp::node_id v = 0; v < g.num_nodes(); ++v) nodes[static_cast<std::size_t>(v)] = v;
  return nodes;
}

// The closure timed alone; its table is freed inside the span.
template <typename Seeds>
void timed_closure(span_log& log, const fast_protocol& proto, const Seeds& seeds,
                   pass_output& out) {
  log.time("closure", [&] {
    const auto compiled = closure_of(proto, seeds);
    out.metrics["closure.states"] = static_cast<double>(compiled.num_states());
    out.metrics["closure.table_mb"] =
        static_cast<double>(compiled.table_bytes()) / 1e6;
  });
}

// The supervised fleet sweep popsim runs for --jobs > 1: artifact build and
// save, then `popsim --worker` subprocesses under the supervisor with
// popsim's default supervise_options plus the flight recorder.
void fleet_sweep(span_log& log, const invocation& inv, const pass_config& cfg,
                 const runner_type& runner, const pp::graph& g,
                 const pp::fast_params& params, pp::obs::trace_writer* trace,
                 pass_output& out) {
  auto& m = out.metrics;
  const std::string artifact_path = cfg.work + "/artifact.ppaf";
  const auto artifact = log.time("artifact.build", [&] {
    return pp::fleet::make_tuned_artifact(runner, g, inv.family,
                                          pp::fleet::fast_desc(params));
  });
  log.time("artifact.save", [&] { pp::fleet::save_artifact(artifact, artifact_path); });
  m["artifact.mb"] = file_mb(artifact_path);
  // Each worker loads the artifact, rebuilds the graph and validates its
  // runner; one such read, against this process's runner, stands in for
  // theirs.
  const auto loaded =
      log.time("artifact.load", [&] { return pp::fleet::load_artifact(artifact_path); });
  log.time("graph.rebuild", [&] { return pp::fleet::rebuild_graph(*loaded.graph); });
  log.time("artifact.validate",
           [&] { pp::fleet::validate_tuned_artifact(loaded, runner); });

  pp::obs::metrics_registry registry;
  log.time("fleet.sweep", [&] {
    pp::fleet::worker_manifest manifest;
    manifest.artifact_path = artifact_path;
    manifest.seed = inv.seed;
    manifest.trials = inv.trials;
    manifest.jobs = static_cast<int>(inv.jobs);
    const std::string manifest_path = cfg.work + "/manifest";
    pp::fleet::write_manifest(manifest, manifest_path);
    pp::fleet::supervise_options sup;
    sup.max_retries = 2;
    sup.journal_tag = inv.seed;
    sup.probe_stride = pp::obs::run_probe::kDefaultStride;
    sup.metrics = &registry;
    if (trace != nullptr) {
      sup.trace = trace;
      sup.sidecar_dir = cfg.work;  // workers report their trials here
    }
    const pp::fleet::trial_fn inline_fn = [&](std::uint64_t, pp::rng gen) {
      return runner.run(gen);
    };
    out.trials = pp::fleet::supervised_spawn_sweep(cfg.popsim, manifest_path,
                                                   manifest, sup, inline_fn);
  });
  m["fleet.records"] = static_cast<double>(registry.counter("fleet.records_received"));
  m["fleet.respawns"] = static_cast<double>(registry.counter("fleet.workers_respawned"));
  // The step layer runs in the workers; their sidecars carry its counts and
  // trial durations.
  m["step.steps"] = static_cast<double>(registry.counter("engine.steps"));
  m["step.rng_draws"] = static_cast<double>(registry.counter("engine.rng_draws"));
  m["step.predicate_evals"] =
      static_cast<double>(registry.counter("engine.predicate_evals"));
  if (const auto* h = registry.find_histogram("engine.trial_duration_us")) {
    m["step.s"] = static_cast<double>(h->sum) * 1e-6;
    m["step.ns_per_step"] = ratio(m["step.s"] * 1e9, m["step.steps"]);
  }
}

// `popsim <family> <n> fast ...` on the tuned engine: build, calibrate,
// close, pack, then the serial trials or the fleet sweep, then the
// sample-leader rerun on rng(seed).fork(3).
void tuned_mirror(span_log& log, const invocation& inv, const pass_config& cfg,
                  pp::obs::trace_writer* trace, pass_output& out) {
  const pp::rng seed(inv.seed);
  auto& m = out.metrics;
  const pp::graph g = log.time("graph.build", [&] {
    pp::rng make_gen = seed.fork(0);
    return pp::family_by_name(inv.family).make(static_cast<pp::node_id>(inv.n),
                                               make_gen);
  });
  m["graph.edges"] = static_cast<double>(g.num_edges());
  const pp::fast_params params = log.time("calibrate", [&] {
    const double b =
        pp::estimate_worst_case_broadcast_time(g, 30, 6, seed.fork(1)).value;
    m["calibrate.broadcast_steps"] = b;
    return pp::fast_params::practical(g, b);
  });
  const fast_protocol proto(params);
  timed_closure(log, proto, nodes_of(g), out);
  const auto runner = log.time("pack", [&] { return construct<runner_type>(proto, g); });
  m["pack.working_set_mb"] = static_cast<double>(runner->working_set_bytes()) / 1e6;
  m["pack.bytes_per_step"] = static_cast<double>(runner->bytes_per_step());

  if (inv.jobs > 1) {
    fleet_sweep(log, inv, cfg, *runner, g, params, trace, out);
  } else {
    const pp::obs::probe_stats st =
        timed_trials(log, "step", inv.trials, seed, out.trials,
                     [&](pp::rng gen, auto* probe) {
                       return runner->run(gen, pp::sim_options{}, probe);
                     });
    m["step.steps"] = static_cast<double>(st.steps);
    m["step.rng_draws"] = static_cast<double>(st.rng_draws);
    m["step.predicate_evals"] = static_cast<double>(st.predicate_evals);
    m["step.ns_per_step"] =
        ratio(log.seconds("step") * 1e9, static_cast<double>(st.steps));
  }
  out.sample_leader =
      log.time("epilogue.rerun", [&] { return runner->run(seed.fork(3)).leader; });
}

// `popsim clique <n> fast --engine wellmixed ...`: no graph, no rerun.
void wellmixed_mirror(span_log& log, const invocation& inv, pass_output& out) {
  const pp::rng seed(inv.seed);
  auto& m = out.metrics;
  const pp::fast_params params = log.time(
      "calibrate", [&] { return pp::fast_params::practical_clique(inv.n); });
  const fast_protocol proto(params);
  timed_closure(log, proto, pp::initial_multiset(proto, inv.n), out);
  const auto sweep = log.time("pack", [&] {
    return construct<pp::wellmixed_sweep<fast_protocol>>(proto, inv.n);
  });
  m["pack.working_set_mb"] = static_cast<double>(sweep->compiled().table_bytes()) / 1e6;
  const pp::obs::probe_stats st =
      timed_trials(log, "wellmixed", inv.trials, seed, out.trials,
                   [&](pp::rng gen, auto* probe) {
                     return sweep->run(gen, pp::sim_options{}, probe);
                   });
  m["wellmixed.steps"] = static_cast<double>(st.steps);
  m["wellmixed.batches"] = static_cast<double>(st.batches);
  m["wellmixed.batch_retries"] = static_cast<double>(st.batch_retries);
  m["wellmixed.ns_per_batch"] =
      ratio(log.seconds("wellmixed") * 1e9, static_cast<double>(st.batches));
}

// The backup-regime protocol and its runner, rebuilt from the artifact as
// `popsim --load-artifact` does.  Members are declared in dependency order:
// the runner keeps pointers to the protocol and the graph.
struct backup_sweep {
  explicit backup_sweep(const std::string& path)
      : artifact(pp::fleet::load_artifact(path)),
        g(pp::fleet::rebuild_graph(*artifact.graph)),
        proto(pp::fleet::fast_params_of(artifact.protocol)),
        runner(proto, g, pp::fleet::tuning_of(artifact)) {
    pp::fleet::validate_tuned_artifact(artifact, runner);
  }

  pp::fleet::sweep_artifact artifact;
  pp::graph g;
  fast_protocol proto;
  runner_type runner;
};

// Saves the backup-regime artifact for `popsim rr8 <n> fast --seed S`'s graph
// to `path`, then runs `popsim --load-artifact <path> --engine silent
// --trials 1 --seed S`'s election: the first silent run builds the runner's
// incidence rows, so a zero-step call does that alone before the trial.
std::unique_ptr<backup_sweep> backup_election(span_log& log, std::uint64_t n,
                                              const std::string& path,
                                              std::uint64_t seed_value,
                                              pass_output& out) {
  const pp::rng seed(seed_value);
  log.open("backup");
  log.time("backup.build", [&] {
    pp::rng make_gen = seed.fork(0);
    const pp::graph g =
        pp::family_by_name("rr8").make(static_cast<pp::node_id>(n), make_gen);
    pp::fast_params params;
    params.h = 4;
    params.level_threshold = 8;
    params.max_level = 9;
    const fast_protocol proto(params);
    const runner_type runner(proto, g);
    pp::fleet::save_artifact(
        pp::fleet::make_tuned_artifact(runner, g, "rr8", pp::fleet::fast_desc(params)),
        path);
  });
  auto sweep = log.time("backup.setup", [&] { return construct<backup_sweep>(path); });
  pp::sim_options options;
  options.scheduler = pp::scheduler_kind::silent;
  log.time("silent.incidence", [&] {
    pp::sim_options warm = options;
    warm.max_steps = 0;
    sweep->runner.run(seed.fork(2).fork(0), warm);
  });
  std::vector<pp::election_result> results;
  const pp::obs::probe_stats st = timed_trials(
      log, "silent", 1, seed, results,
      [&](pp::rng gen, auto* probe) { return sweep->runner.run(gen, options, probe); });
  log.close();
  auto& m = out.metrics;
  const auto steps = static_cast<double>(st.steps);
  const auto active = static_cast<double>(st.active_steps);
  m["silent.steps"] = steps;
  m["silent.active_steps"] = active;
  m["silent.silent_frac"] = steps > 0 ? 1.0 - active / steps : 0;
  m["silent.ns_per_active_step"] = ratio(log.seconds("silent") * 1e9, active);
  return sweep;
}

// One engine rung: a capped run from trial 0's generator inside its span.
template <typename RunFn>
void rung(span_log& log, const std::string& name, std::uint64_t cap,
          double bytes_per_step, pass_output& out, RunFn&& run) {
  pp::sim_options options;
  options.max_steps = cap;
  const pp::election_result r = log.time("ladder." + name, [&] { return run(options); });
  out.metrics["ladder." + name + ".ns_per_step"] =
      ratio(log.seconds("ladder." + name) * 1e9, static_cast<double>(r.steps));
  out.metrics["ladder." + name + ".bytes_per_step"] = bytes_per_step;
}

// The engine ladder.  Rungs reference -> run_compiled (lazy u32) ->
// run_packed at forced u32 and auto u16 run the calibrated fast protocol on
// the graph `popsim rr8 <n> fast --seed S` builds; run_packed at u8 and
// run_silent run the backup artifact's runner.  Bytes per step are the
// runner's bytes_per_step() for the packed rungs and the same sum (pair,
// table entry, two config words) for the lazy one; the reference's is an
// edge plus two state structs.  Then one closure past the engine budget:
// the calibrated fast protocol on a 4000-node cycle (ROADMAP E-c).
void ladder(span_log& log, std::uint64_t n, std::uint64_t seed_value,
            const runner_type& backup, pass_output& out) {
  const pp::rng seed(seed_value);
  const pp::rng gen = seed.fork(2).fork(0);
  log.open("ladder");
  // The graph popsim builds for `<family> <size> fast --seed S`, and the
  // fast protocol it calibrates there.
  const auto calibrated = [&](const std::string& family, std::uint64_t size) {
    return log.time("ladder.setup", [&] {
      pp::rng make_gen = seed.fork(0);
      pp::graph g =
          pp::family_by_name(family).make(static_cast<pp::node_id>(size), make_gen);
      const pp::fast_params params = pp::fast_params::practical(
          g, pp::estimate_worst_case_broadcast_time(g, 30, 6, seed.fork(1)).value);
      return std::make_pair(std::move(g), params);
    });
  };
  const auto rr8 = calibrated("rr8", n);
  const pp::graph& g = rr8.first;
  const fast_protocol proto(rr8.second);
  using state = fast_protocol::state_type;
  using entry = pp::compiled_protocol<fast_protocol>::entry;
  rung(log, "reference", 1u << 20, sizeof(pp::edge) + 2 * sizeof(state), out,
       [&](const pp::sim_options& o) { return pp::run_until_stable(proto, g, gen, o); });
  {
    pp::compiled_protocol<fast_protocol> lazy(proto);
    const auto edges = log.time("ladder.setup", [&] { return pp::edge_endpoints(g); });
    rung(log, "compiled_u32", 1u << 22,
         sizeof(pp::interaction) + sizeof(entry) + 2 * sizeof(std::uint32_t), out,
         [&](const pp::sim_options& o) {
           return pp::run_compiled(lazy, edges, g, gen, o);
         });
  }
  for (const int bits : {32, 0}) {
    const auto runner = log.time("ladder.setup", [&] {
      return construct<runner_type>(
          proto, g, pp::engine_tuning{pp::vertex_order::natural, bits});
    });
    rung(log, "packed_u" + std::to_string(runner->pack_bits()), 1u << 22,
         static_cast<double>(runner->bytes_per_step()), out,
         [&](const pp::sim_options& o) { return runner->run(gen, o); });
  }
  const double bytes = static_cast<double>(backup.bytes_per_step());
  rung(log, "packed_u" + std::to_string(backup.pack_bits()), 1u << 24, bytes, out,
       [&](const pp::sim_options& o) { return backup.run(gen, o); });
  rung(log, "silent", 1u << 24, bytes, out, [&](pp::sim_options o) {
    o.scheduler = pp::scheduler_kind::silent;
    return backup.run(gen, o);
  });

  const auto cycle = calibrated("cycle", 4000);
  const fast_protocol cycle_proto(cycle.second);
  const auto cycle_nodes = nodes_of(cycle.first);
  const bool closed = log.time("closure.failed", [&] {
    return closure_of(cycle_proto, cycle_nodes).closed();
  });
  pp::expects(!closed, "perfbench_ledger: the cycle closure fit the engine budget");
  log.close();
}

void put_number(std::string& json, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  json += buf;
}

std::string render(const pass_output& out, const span_log& log) {
  std::map<std::string, double> m = out.metrics;
  double covered = 0;
  for (const auto& [name, s] : log.self_seconds()) {
    bool group = false;
    for (const char* g : kGroups) group |= name == g;
    if (group) continue;
    covered += s;
    if (name.rfind("ladder.", 0) == 0) continue;  // rungs report ns/step
    bool plain = false;
    for (const char* p : kPlainLayers) plain |= name == p;
    m.emplace(name + (plain ? ".s" : "_s"), s);  // keeps a fleet's worker step.s
  }
  // pack.s is the runner constructor minus the closure it repeats.
  m["pack.s"] -= m["closure.s"];
  const double wall = log.seconds("pass");
  m["trace.wall_s"] = wall;
  m["trace.mirror_s"] = log.seconds("mirror");
  m["trace.coverage"] = ratio(covered, wall);

  std::string json = "{\"metrics\": {";
  const char* sep = "";
  for (const auto& [name, v] : m) {
    json += sep;
    json += "\"" + name + "\": ";
    put_number(json, v);
    sep = ", ";
  }
  json += "}, \"trials\": [";
  sep = "";
  for (const pp::election_result& r : out.trials) {
    json += sep;
    json += "{\"steps\": " + std::to_string(r.steps) +
            ", \"stabilized\": " + (r.stabilized ? "true" : "false") +
            ", \"leader\": " + std::to_string(r.leader) + "}";
    sep = ", ";
  }
  // The step mean popsim prints, from the same summary function.
  json += "], \"steps_mean\": ";
  put_number(json, pp::summarize_election_results(out.trials).steps.mean);
  json += ", \"sample_leader\": " + std::to_string(out.sample_leader) + "}";
  return json;
}

int pass_main(int argc, char** argv) {
  pass_config cfg;
  int i = 2;
  for (; i < argc && std::string(argv[i]) != "--"; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return 2;
    const char* value = argv[i + 1];
    if (flag == "--trace") {
      cfg.trace_path = value;
    } else if (flag == "--popsim") {
      cfg.popsim = value;
    } else if (flag == "--work") {
      cfg.work = value;
    } else if (flag == "--ladder") {
      if (!pp::parse_u64(value, cfg.ladder_n) || cfg.ladder_n < 9) return 2;
    } else {
      return 2;
    }
  }
  invocation inv;
  if (i >= argc || !parse_invocation({argv + i + 1, argv + argc}, inv)) {
    std::fprintf(stderr, "perfbench_ledger: unsupported popsim arguments\n");
    return 2;
  }
  if ((inv.jobs > 1 && (cfg.popsim.empty() || cfg.work.empty())) ||
      (cfg.ladder_n > 0 && cfg.work.empty())) {
    std::fprintf(stderr,
                 "perfbench_ledger: a fleet pass needs --popsim and --work, "
                 "--ladder needs --work\n");
    return 2;
  }

  std::optional<pp::obs::trace_writer> trace;
  if (!cfg.trace_path.empty()) {
    trace.emplace();
    trace->name_process("perfbench_ledger");
  }
  pp::obs::trace_writer* writer = trace ? &*trace : nullptr;
  span_log log(writer);
  pass_output out;
  log.open("pass");
  log.open("mirror");
  if (inv.wellmixed) {
    wellmixed_mirror(log, inv, out);
  } else {
    tuned_mirror(log, inv, cfg, writer, out);
  }
  for (const char* slot : kMirrorSlots) {
    if (!log.seen(slot)) log.time(slot, [] {});
  }
  log.close();
  if (cfg.ladder_n > 0) {
    const auto backup = backup_election(log, cfg.ladder_n, cfg.work + "/backup.ppaf",
                                        inv.seed, out);
    ladder(log, cfg.ladder_n, inv.seed, backup->runner, out);
  }
  log.close();
  if (trace && !trace->write_json(cfg.trace_path)) {
    std::fprintf(stderr, "perfbench_ledger: cannot write %s\n", cfg.trace_path.c_str());
    return 1;
  }
  std::printf("%s\n", render(out, log).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  try {
    if (mode == "pass") return pass_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_ledger: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_ledger pass [--trace FILE] [--popsim EXE]"
               " [--work DIR] [--ladder N] -- <popsim arguments>\n");
  return 2;
}
