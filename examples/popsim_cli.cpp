// popsim: command-line driver for the library.
//
//   $ ./example_popsim_cli <family> <n> <protocol> [--trials T] [--seed S]
//                          [--engine auto|wellmixed|silent]
//                          [--order natural|bfs|rcm]
//                          [--pack auto|8|16|32] [--jobs W]
//                          [--save-artifact FILE]
//                          [--journal FILE [--resume]] [--retries N]
//                          [--worker-timeout-ms N] [--inject-fault SPECS]
//   $ ./example_popsim_cli --load-artifact FILE [--trials T] [--seed S]
//                          [--jobs W] [--save-artifact FILE] [fleet flags]
//                          [--hosts HOST:PORT,...]
//   $ ./example_popsim_cli --serve PORT [--cache-mb N]
//   $ ./example_popsim_cli --worker MANIFEST INDEX BASE COUNT [FAULTS]
//
//   family    clique | cycle | star | torus | er_dense | rr8
//   protocol  fast | id | six | star  (six on a graph runs the compiled
//             engine on the silent scheduler, its token endgame being
//             almost all silent steps)
//   --trials  independent elections to aggregate (default 5, >= 1)
//   --seed    master seed; every reported number is reproducible from it
//             (default 1)
//   --engine  auto picks the fastest per-interaction simulator for the
//             protocol; wellmixed runs the O(|Λ|)-memory multiset batch
//             engine (clique family + fast/six protocols only), which never
//             materialises the graph and reaches n = 10⁸; silent runs the
//             event-driven scheduler (src/engine/silent/) that draws only
//             edges with an endpoint outside the inert states and jumps the
//             step counter over the rest — the same seeded trajectory as
//             auto until a node turns inert, statistically equivalent
//             after.  A runtime knob, not part of the artifact: it is the
//             one --engine value allowed with --load-artifact
//   --order   vertex order for the compiled engine (protocols fast and
//             star): natural keeps per-seed reproducibility with the
//             reference simulator; bfs/rcm relabel the graph for cache
//             locality (statistically equivalent, different seeded
//             trajectories)
//   --pack    config word width for the compiled engine (protocols fast and
//             star): auto picks the narrowest width holding |Λ|; 8/16/32
//             force one and fail loudly if the state space does not fit
//   --jobs    shard the trials across W worker processes (fleet sweep,
//             src/fleet/).  Trial t keeps its serial seed, records are
//             merged by trial index, so the printed summary is identical to
//             the --jobs 1 run — worker bookkeeping goes to stderr
//   --save-artifact  write the prepared sweep (closed table, packed
//             snapshot, graph + reorder permutation or well-mixed multiset)
//             as a versioned, checksummed binary artifact (src/fleet/)
//   --load-artifact  rebuild the sweep from an artifact instead of the
//             positional arguments; the rebuild is validated byte-for-byte
//             against the stored sections before anything runs
//   --journal  spool every completed trial of the sweep to a crash-safe
//             .ppaj journal (src/fleet/journal.h) as it streams in
//   --resume  replay the --journal file first and run only the trials it
//             is missing; the merged summary is identical to a fresh run
//   --retries  worker kill-and-respawn budget across the sweep (default 2);
//             once spent, leftover trials run inline in this process
//   --worker-timeout-ms  kill and respawn a worker that has written nothing
//             for this long (default: no timeout)
//   --inject-fault  deterministic worker faults for testing the supervisor,
//             comma-separated
//             <exit|sigkill|stall|torn|drop|garbage>:w<slot>[:after=<n>]
//             (src/fleet/fault.h); injected into first-generation workers
//             only — with --hosts, into the slot's first connection — so
//             the recovered sweep still matches the serial one
//   --hosts   run the sweep's worker slots over TCP against resident
//             popsimd daemons (src/fleet/net.h) instead of forked local
//             workers; slot i dials the i-th listed host round-robin.
//             Without an explicit --jobs, one slot per listed host
//   --serve   run as a resident popsimd daemon (src/fleet/service.h) on
//             PORT (0 picks an ephemeral port, printed on stdout); serves
//             sweep requests forever, caching verified artifacts
//   --cache-mb  artifact cache budget for --serve in MB (default 256;
//             least-recently-used artifacts are evicted past it)
//   --worker  internal: run trials [BASE, BASE+COUNT) of a fleet
//             manifest as supervisor slot INDEX, streaming length-prefixed
//             records to stdout; the supervisor optionally appends a fault
//             spec list
//   --metrics  write a deterministic run_metrics.json-style snapshot
//             (src/obs/metrics.h) after the sweep: fleet.* supervisor
//             counters plus engine.* probe counters rolled up from the
//             workers' sidecars
//   --trace   write a Chrome trace-event JSON timeline (src/obs/trace.h) of
//             the sweep — supervisor spans/instants plus per-trial worker
//             spans — loadable in chrome://tracing or ui.perfetto.dev
//   --probe-stride  census-sampling stride for the engine probes riding
//             --metrics/--trace (default 1024 steps)
//   --progress  emit a throttled live status line (trials done/total,
//             per-slot state, EWMA trial rate -> ETA) on stderr from the
//             sweep supervisor; works identically in fork, --hosts and
//             --resume modes, and stdout stays byte-identical to serial
//   --log-level  stderr chattiness: error|warn|info|debug (default info;
//             the POPSIM_LOG env var sets the same threshold)
//
// Every invalid invocation exits nonzero (2 for usage errors, 1 for runtime
// failures) — the fleet CI gates pipe this binary and depend on it.
//
// Runs the chosen election and prints a summary on stdout:
//
//   graph: <family> n=<n> m=<edges> Δ=<max degree>
//   engine: order=<order> pack=u<bits>[ (lazy fallback ...)][ scheduler=silent]
//   stabilized: <percent>% of <T> trials
//   steps: mean <m> (sd <s>, median <q50>, [q10,q90]=[<q10>, <q90>])
//   sample leader: node <v>
//
// The engine line appears for the compiled engine only (protocols fast and
// star), and the steps line only if some trial stabilized.  `sample leader`
// is trial 0's leader (-1 if it elected none): trial 0 runs the same seed
// fork at every --trials and --jobs, so the line costs no extra election and
// does not depend on either flag.  --engine wellmixed prints `well-mixed
// clique: n=<n> (...)` in place of the graph and engine lines, and, since
// agents are exchangeable, `stabilized trials elected a unique leader` in
// place of the sample leader.  POPSIM_DOT=1 appends the graph as Graphviz
// DOT with the sample leader marked — handy for scripting sweeps beyond what
// the bench binaries cover.
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/id_election.h"
#include "core/star_protocol.h"
#include "dynamics/epidemic.h"
#include "fleet/artifact.h"
#include "fleet/fault.h"
#include "fleet/net.h"
#include "fleet/service.h"
#include "fleet/supervisor.h"
#include "fleet/sweep.h"
#include "graph/io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/trace.h"
#include "support/parse.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: popsim <family> <n> <protocol> [--trials T] [--seed S]"
               " [--engine auto|wellmixed|silent] [--order natural|bfs|rcm]"
               " [--pack auto|8|16|32] [--jobs W] [--save-artifact FILE]\n"
               "       popsim --load-artifact FILE [--trials T] [--seed S]"
               " [--jobs W] [--save-artifact FILE] [--hosts HOST:PORT,...]\n"
               "       popsim --serve PORT [--cache-mb N]\n"
               "       popsim --worker MANIFEST INDEX BASE COUNT [FAULTS]\n"
               "  family:   clique cycle star torus er_dense rr8\n"
               "  protocol: fast id six star\n"
               "  --trials  positive trial count (default 5)\n"
               "  --seed    64-bit master seed (default 1)\n"
               "  --engine  wellmixed needs family=clique and protocol"
               " fast|six; silent is the event-driven scheduler"
               " (protocol fast|star, any family)\n"
               "  --order   vertex relabelling for the compiled engine"
               " (protocols fast|star; default natural)\n"
               "  --pack    config word width for the compiled engine"
               " (protocols fast|star; default auto)\n"
               "  --jobs    worker processes for the sweep (default 1;"
               " protocol fast|star or --engine wellmixed)\n"
               "  --save-artifact / --load-artifact  serialize / rebuild the"
               " prepared sweep (src/fleet/)\n"
               "  --journal FILE  spool every completed trial to a crash-safe"
               " .ppaj journal as it streams in\n"
               "  --resume  replay --journal FILE first and run only the"
               " missing trials\n"
               "  --retries N  worker kill-and-respawn budget for the sweep"
               " (default 2)\n"
               "  --worker-timeout-ms N  kill a worker silent for N ms and"
               " respawn it (default: no timeout)\n"
               "  --inject-fault SPECS  deterministic worker faults, comma-"
               "separated <exit|sigkill|stall|torn|drop|garbage>"
               ":w<slot>[:after=<n>]\n"
               "  --hosts HOST:PORT,...  dial resident popsimd daemons for "
               "the sweep's worker slots instead of forking workers\n"
               "  --serve PORT  run as a resident popsimd daemon on PORT "
               "(0 = ephemeral, printed on stdout)\n"
               "  --cache-mb N  --serve artifact cache budget in MB "
               "(default 256, in [1, 1048576])\n"
               "  --metrics FILE  write a JSON metrics snapshot (fleet.* "
               "supervisor + engine.* probe counters) after the sweep\n"
               "  --trace FILE  write a Chrome trace-event JSON timeline of "
               "the sweep (chrome://tracing / ui.perfetto.dev)\n"
               "  --probe-stride N  census-sampling stride for the probes "
               "riding --metrics/--trace (default 1024)\n"
               "  --progress  live sweep status line on stderr (trials done, "
               "rate, ETA, slot states); stdout is untouched\n"
               "  --log-level L  stderr threshold error|warn|info|debug "
               "(default info; POPSIM_LOG sets the same)\n");
  return 2;
}

// Numeric flags go through the strict full-string pp::parse_u64
// (support/parse.h), shared with the fleet manifest reader so the CLI and
// manifests can never drift in what they accept.
using pp::parse_u64;

struct cli_config {
  std::set<std::string> given;  // every flag on the command line
  std::uint64_t trials = 5;
  std::uint64_t seed = 1;
  std::string engine = "auto";
  pp::engine_tuning tuning;
  std::uint64_t jobs = 1;
  std::string save_path;
  std::string load_path;
  std::string journal_path;
  bool resume = false;
  std::uint64_t retries = 2;
  std::uint64_t worker_timeout_ms = 0;
  std::vector<pp::fleet::fault_spec> faults;
  std::string metrics_path;
  std::string trace_path;
  std::uint64_t probe_stride = pp::obs::run_probe::kDefaultStride;
  bool progress = false;
  std::vector<pp::fleet::net::host_addr> hosts;
  std::uint64_t serve_port = 0;
  std::uint64_t cache_mb = 256;

  bool has(const char* flag) const { return given.count(flag) > 0; }
  bool tuning_given() const { return has("--order") || has("--pack"); }

  // Any supervision or observability flag routes the sweep through the
  // fault-tolerant supervisor (fleet/supervisor.h) even at --jobs 1, so
  // journaling, resume and the flight recorder work for serial sweeps too.
  // A --hosts sweep is always supervised: the socket slots live inside the
  // same loop.
  bool supervised() const {
    return !journal_path.empty() || resume || has("--retries") ||
           worker_timeout_ms > 0 || !faults.empty() || observed() ||
           progress || !hosts.empty();
  }

  // Worker slot count the sweep actually runs with: --jobs when explicit,
  // otherwise one slot per --hosts daemon (or the 1-job default locally).
  std::uint64_t effective_jobs() const {
    if (!hosts.empty() && jobs <= 1) return hosts.size();
    return jobs;
  }
  bool observed() const {
    return !metrics_path.empty() || !trace_path.empty();
  }
  // The sweep reads its trials from an artifact: saved, or shipped to
  // workers (the supervised fleet).
  bool needs_artifact() const { return jobs > 1 || supervised() || !save_path.empty(); }

  pp::fleet::supervise_options supervision() const {
    pp::fleet::supervise_options sup;
    sup.worker_timeout_ms = static_cast<int>(worker_timeout_ms);
    sup.max_retries = static_cast<int>(retries);
    sup.journal_path = journal_path;
    sup.resume = resume;
    sup.journal_tag = seed;
    sup.faults = faults;
    sup.probe_stride = probe_stride;
    sup.progress = progress;
    return sup;
  }
};

// Parses the optional flags from argv[start..).  Returns false — after
// reporting the offending flag on stderr — on any unknown, incomplete or
// out-of-range flag; every caller turns that into a nonzero exit.
bool parse_flags(int argc, char** argv, int start, cli_config& cfg) {
  for (int i = start; i < argc; ++i) {
    const std::string flag = argv[i];
    cfg.given.insert(flag);
    if (flag == "--trials" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.trials) || cfg.trials < 1 ||
          cfg.trials > 1'000'000) {
        std::fprintf(stderr, "popsim: --trials must be in [1, 1000000]\n");
        return false;
      }
    } else if (flag == "--seed" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.seed)) {
        std::fprintf(stderr, "popsim: --seed must be a 64-bit integer\n");
        return false;
      }
    } else if (flag == "--engine" && i + 1 < argc) {
      cfg.engine = argv[++i];
      if (cfg.engine != "auto" && cfg.engine != "wellmixed" &&
          cfg.engine != "silent") {
        std::fprintf(stderr, "popsim: unknown engine '%s'\n", cfg.engine.c_str());
        return false;
      }
    } else if (flag == "--order" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (!pp::parse_vertex_order(name, cfg.tuning.order)) {
        std::fprintf(stderr, "popsim: unknown order '%s'\n", name.c_str());
        return false;
      }
    } else if (flag == "--pack" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "auto") {
        cfg.tuning.pack_bits = 0;
      } else if (name == "8" || name == "16" || name == "32") {
        cfg.tuning.pack_bits = std::atoi(name.c_str());
      } else {
        std::fprintf(stderr, "popsim: --pack must be auto, 8, 16 or 32\n");
        return false;
      }
    } else if (flag == "--jobs" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.jobs) || cfg.jobs < 1 || cfg.jobs > 256) {
        std::fprintf(stderr, "popsim: --jobs must be in [1, 256]\n");
        return false;
      }
    } else if (flag == "--save-artifact" && i + 1 < argc) {
      cfg.save_path = argv[++i];
      if (cfg.save_path.empty()) {
        std::fprintf(stderr, "popsim: --save-artifact needs a file path\n");
        return false;
      }
    } else if (flag == "--load-artifact" && i + 1 < argc) {
      cfg.load_path = argv[++i];
      if (cfg.load_path.empty()) {
        std::fprintf(stderr, "popsim: --load-artifact needs a file path\n");
        return false;
      }
    } else if (flag == "--journal" && i + 1 < argc) {
      cfg.journal_path = argv[++i];
      if (cfg.journal_path.empty()) {
        std::fprintf(stderr, "popsim: --journal needs a file path\n");
        return false;
      }
    } else if (flag == "--resume") {
      cfg.resume = true;
    } else if (flag == "--retries" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.retries) || cfg.retries > 1000) {
        std::fprintf(stderr, "popsim: --retries must be in [0, 1000]\n");
        return false;
      }
    } else if (flag == "--worker-timeout-ms" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.worker_timeout_ms) ||
          cfg.worker_timeout_ms < 1 || cfg.worker_timeout_ms > 3'600'000) {
        std::fprintf(stderr,
                     "popsim: --worker-timeout-ms must be in [1, 3600000]\n");
        return false;
      }
    } else if (flag == "--metrics" && i + 1 < argc) {
      cfg.metrics_path = argv[++i];
      if (cfg.metrics_path.empty()) {
        std::fprintf(stderr, "popsim: --metrics needs a file path\n");
        return false;
      }
    } else if (flag == "--trace" && i + 1 < argc) {
      cfg.trace_path = argv[++i];
      if (cfg.trace_path.empty()) {
        std::fprintf(stderr, "popsim: --trace needs a file path\n");
        return false;
      }
    } else if (flag == "--probe-stride" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.probe_stride) || cfg.probe_stride < 1 ||
          cfg.probe_stride > 1'000'000'000'000ull) {
        std::fprintf(stderr,
                     "popsim: --probe-stride must be in [1, 10^12]\n");
        return false;
      }
    } else if (flag == "--progress") {
      cfg.progress = true;
    } else if (flag == "--log-level" && i + 1 < argc) {
      pp::obs::log_level level = pp::obs::log_level::info;
      const std::string name = argv[++i];
      if (!pp::obs::parse_log_level(name, level)) {
        std::fprintf(stderr,
                     "popsim: --log-level must be error, warn, info or debug\n");
        return false;
      }
      pp::obs::set_log_threshold(level);
    } else if (flag == "--inject-fault" && i + 1 < argc) {
      const std::string specs = argv[++i];
      if (!pp::fleet::parse_fault_specs(specs, cfg.faults)) {
        std::fprintf(stderr,
                     "popsim: bad --inject-fault '%s' (want comma-separated "
                     "<exit|sigkill|stall|torn|drop|garbage>"
                     ":w<slot>[:after=<n>])\n",
                     specs.c_str());
        return false;
      }
    } else if (flag == "--hosts" && i + 1 < argc) {
      const std::string list = argv[++i];
      if (!pp::fleet::net::parse_host_list(list, cfg.hosts)) {
        std::fprintf(stderr,
                     "popsim: bad --hosts '%s' (want comma-separated "
                     "host:port with port in [1, 65535])\n",
                     list.c_str());
        return false;
      }
    } else if (flag == "--serve" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.serve_port) || cfg.serve_port > 65535) {
        std::fprintf(stderr, "popsim: --serve port must be in [0, 65535]\n");
        return false;
      }
    } else if (flag == "--cache-mb" && i + 1 < argc) {
      if (!parse_u64(argv[++i], cfg.cache_mb) || cfg.cache_mb < 1 ||
          cfg.cache_mb > 1'048'576) {
        std::fprintf(stderr, "popsim: --cache-mb must be in [1, 1048576]\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "popsim: unknown or incomplete flag '%s'\n",
                   flag.c_str());
      return false;
    }
  }
  return true;
}

// Cross-flag validation shared by the classic and artifact entry points.
bool validate_fleet_flags(const cli_config& cfg) {
  if (cfg.resume && cfg.journal_path.empty()) {
    std::fprintf(stderr, "popsim: --resume needs --journal\n");
    return false;
  }
  if (cfg.has("--probe-stride") && !cfg.observed()) {
    std::fprintf(stderr,
                 "popsim: --probe-stride needs --metrics or --trace\n");
    return false;
  }
  if (cfg.has("--serve")) {
    if (cfg.has("--hosts")) {
      std::fprintf(stderr,
                   "popsim: --serve runs the daemon side of --hosts; pick "
                   "one per invocation\n");
      return false;
    }
    for (const std::string& flag : cfg.given) {
      if (flag != "--serve" && flag != "--cache-mb" && flag != "--log-level") {
        std::fprintf(stderr,
                     "popsim: --serve is a resident daemon; it takes only "
                     "--cache-mb and --log-level\n");
        return false;
      }
    }
  } else if (cfg.has("--cache-mb")) {
    std::fprintf(stderr, "popsim: --cache-mb needs --serve\n");
    return false;
  }
  for (const pp::fleet::fault_spec& f : cfg.faults) {
    if (static_cast<std::uint64_t>(f.worker) >= cfg.effective_jobs()) {
      std::fprintf(stderr,
                   "popsim: --inject-fault names worker slot w%d beyond the "
                   "%llu-worker fleet\n",
                   f.worker,
                   static_cast<unsigned long long>(cfg.effective_jobs()));
      return false;
    }
  }
  return true;
}

// Temp file path inside a fresh mode-0700 mkdtemp directory: no other local
// user can swap the path for a symlink between creation and the later
// fopen-for-write (the classic /tmp TOCTOU), and cleanup is RAII.
class temp_file {
 public:
  explicit temp_file(const char* name) {
    char buf[] = "/tmp/popsim-XXXXXX";
    pp::expects(::mkdtemp(buf) != nullptr,
                "popsim: cannot create a temporary directory");
    dir_ = buf;
    path_ = dir_ + "/" + name;
  }
  ~temp_file() {
    std::remove(path_.c_str());
    ::rmdir(dir_.c_str());
  }
  temp_file(const temp_file&) = delete;
  temp_file& operator=(const temp_file&) = delete;

  const std::string& path() const { return path_; }
  // The private mkdtemp directory itself — the fleet path reuses it as the
  // worker sidecar directory (supervisor.h), same lifetime and permissions.
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string path_;
};

// How the supervisor deals the sweep, named on stderr before any worker
// starts: its opening deal (supervisor.h), or on --resume only a bound,
// since it deals the trials the journal lacks once it has replayed it.
std::string deal_shape(const cli_config& cfg, int jobs) {
  const std::vector<pp::fleet::trial_range> deal = pp::fleet::opening_deal(cfg.trials, jobs);
  const bool plural = deal.size() > 1;
  const std::string workers = std::to_string(deal.size()) + (plural ? " workers" : " worker");
  if (cfg.resume) return "at most " + workers + " over the trials " + cfg.journal_path + " lacks";
  std::string shape = workers + " x " + std::to_string(deal.front().count) +
                      (plural ? "-trial blocks" : "-trial block");
  if (deal.back().count != deal.front().count) {
    shape += ", the last of " + std::to_string(deal.back().count);
  }
  return shape;
}

// Shards the sweep described by (artifact, cfg) across cfg.jobs worker
// subprocesses of this binary and merges their record streams under the
// fault-tolerant supervisor (fleet/supervisor.h): crashed workers are
// respawned, journaling/resume apply when requested, and `inline_fn` runs
// leftover trials in-process once the retry budget is spent.  The merged
// summary is identical to the serial one (fleet/sweep.h); worker accounting
// goes to stderr so serial and fleet stdout stay diffable.
pp::election_summary run_fleet(const std::string& artifact_path,
                               const cli_config& cfg, const char* argv0,
                               const pp::sim_options& options,
                               const pp::fleet::trial_fn& inline_fn) {
  pp::fleet::worker_manifest manifest;
  manifest.artifact_path = artifact_path;
  manifest.seed = cfg.seed;
  manifest.trials = cfg.trials;
  manifest.jobs = static_cast<int>(cfg.effective_jobs());
  manifest.max_steps = options.max_steps;
  manifest.wellmixed_batch = options.wellmixed_batch;
  manifest.scheduler = options.scheduler;
  const temp_file manifest_file("manifest");
  pp::fleet::write_manifest(manifest, manifest_file.path());
  // Flight recorder (src/obs/): the supervisor fills the borrowed registry
  // and timeline, workers drop sidecars into the manifest's private temp
  // directory, and the snapshots are serialised once the sweep is merged.
  pp::obs::metrics_registry metrics;
  pp::obs::trace_writer trace;
  pp::fleet::supervise_options sup = cfg.supervision();
  if (!cfg.metrics_path.empty()) sup.metrics = &metrics;
  if (!cfg.trace_path.empty()) sup.trace = &trace;
  const std::string shape = deal_shape(cfg, manifest.jobs);
  std::vector<pp::election_result> results;
  if (!cfg.hosts.empty()) {
    // Distributed sweep: the slots are TCP connections to resident popsimd
    // daemons (fleet/net.h); remote workers cannot drop local sidecars, so
    // the flight recorder carries supervisor + fleet.net.* data only.
    std::fprintf(stderr, "popsim: distributed sweep, %s across %zu host(s)\n",
                 shape.c_str(), cfg.hosts.size());
    results = pp::fleet::net::supervised_remote_sweep(
        cfg.hosts, manifest.jobs, manifest, sup, inline_fn);
  } else {
    std::fprintf(stderr, "popsim: fleet sweep, %s\n", shape.c_str());
    if (cfg.observed()) sup.sidecar_dir = manifest_file.dir();
    results = pp::fleet::supervised_spawn_sweep(
        pp::fleet::self_exe_path(argv0), manifest_file.path(), manifest, sup,
        inline_fn);
  }
  if (!cfg.metrics_path.empty()) {
    pp::ensure(metrics.write_json(cfg.metrics_path),
               "popsim: cannot write --metrics " + cfg.metrics_path);
    pp::obs::logf(pp::obs::log_level::info, "popsim: metrics -> %s",
                  cfg.metrics_path.c_str());
  }
  if (!cfg.trace_path.empty()) {
    pp::ensure(trace.write_json(cfg.trace_path),
               "popsim: cannot write --trace " + cfg.trace_path);
    pp::obs::logf(pp::obs::log_level::info, "popsim: trace -> %s",
                  cfg.trace_path.c_str());
  }
  return pp::summarize_election_results(results);
}

// Prints the summary, then the POPSIM_DOT=1 Graphviz dump of g with the
// sample leader marked.
void print_graph_summary(const pp::election_summary& summary, int trials,
                         const pp::graph& g) {
  std::printf("stabilized: %.0f%% of %d trials\n",
              100.0 * summary.stabilized_fraction, trials);
  if (summary.steps.count > 0) {
    std::printf("steps: mean %.0f (sd %.0f, median %.0f, [q10,q90]=[%.0f, %.0f])\n",
                summary.steps.mean, summary.steps.stddev, summary.steps.median,
                summary.steps.q10, summary.steps.q90);
  }
  std::printf("sample leader: node %d\n", summary.sample_leader);

  if (const char* dot = std::getenv("POPSIM_DOT"); dot != nullptr && dot[0] == '1') {
    std::vector<bool> leaders(static_cast<std::size_t>(g.num_nodes()), false);
    if (summary.sample_leader >= 0) {
      leaders[static_cast<std::size_t>(summary.sample_leader)] = true;
    }
    std::fputs(pp::to_dot(g, leaders).c_str(), stdout);
  }
}

void print_wellmixed_summary(const pp::election_summary& summary, int trials) {
  std::printf("stabilized: %.0f%% of %d trials\n",
              100.0 * summary.stabilized_fraction, trials);
  if (summary.steps.count > 0) {
    std::printf("steps: mean %.3g (sd %.2g, median %.3g, [q10,q90]=[%.3g, %.3g])\n",
                summary.steps.mean, summary.steps.stddev, summary.steps.median,
                summary.steps.q10, summary.steps.q90);
  }
  // A stabilized trial has exactly one leader by the tracker's predicate;
  // agents are exchangeable, so there is no node id to report.
  if (summary.stabilized_fraction > 0) {
    std::printf("stabilized trials elected a unique leader\n");
  }
}

// The tuned engine's sim_options per protocol kind: the star protocol can
// deadlock with several leaders on general graphs (the tracker then never
// fires), so its runs are step-capped; the fast protocol always stabilizes.
// Shared by the classic and --load-artifact paths, and carried to --worker
// by the manifest, so a sweep's stdout never depends on which produced it.
pp::sim_options tuned_options(pp::fleet::protocol_kind kind) {
  pp::sim_options options;
  if (kind == pp::fleet::protocol_kind::star) options.max_steps = 1'000'000;
  return options;
}

// The sweep block every mode shares, over a prepared sweep (a tuned_runner
// or a wellmixed_sweep): pick the artifact the fleet reads — the loaded
// one, or make_artifact() saved to --save-artifact or a temp file — then run
// the trials on the supervised fleet, or serially on this process's thread
// pool.  Both follow the one seed rule (sweep_seed_gen), so the summary
// does not depend on the route.
template <typename Sweep, typename MakeArtifact>
pp::election_summary run_sweep(const Sweep& sweep, const pp::sim_options& options,
                               const cli_config& cfg, const char* argv0,
                               MakeArtifact&& make_artifact) {
  const bool fleet = cfg.jobs > 1 || cfg.supervised();
  std::string artifact_path = cfg.load_path;
  std::optional<temp_file> temp_artifact;
  if (artifact_path.empty() && cfg.needs_artifact()) {
    artifact_path = cfg.save_path;
    if (artifact_path.empty()) {
      artifact_path = temp_artifact.emplace("artifact.ppaf").path();
    }
    pp::fleet::save_artifact(make_artifact(), artifact_path);
  }
  if (!fleet) {
    return pp::measure_election_sweep(sweep, static_cast<int>(cfg.trials),
                                      pp::fleet::sweep_seed_gen(cfg.seed), options);
  }
  return run_fleet(artifact_path, cfg, argv0, options,
                   [&](std::uint64_t, pp::rng gen) { return sweep.run(gen, options); });
}

// Tuned-engine sweep + report; the artifact (when needed) is written from
// this runner.  P is any compilable protocol the tuned engine serves
// (fast_protocol, star_protocol).
template <typename P>
int run_tuned_mode(const pp::tuned_runner<P>& runner, const pp::graph& g,
                   const std::string& family, const pp::fleet::protocol_desc& desc,
                   const cli_config& cfg, const char* argv0) {
  // A sweep that saves or ships an artifact, or runs the silent scheduler,
  // needs a closed table: refuse a lazy one before anything reaches stdout.
  if (cfg.needs_artifact()) pp::fleet::expect_closed(runner.packed());
  if (cfg.engine == "silent" && !runner.packed()) {
    std::fprintf(stderr,
                 "popsim: --engine silent needs a closed table, and the "
                 "reachable state space exceeded the closure budget (%zu "
                 "states)\n",
                 pp::kEngineClosureBudget);
    return 1;
  }
  pp::sim_options options = tuned_options(desc.kind);
  if (cfg.engine == "silent") options.scheduler = pp::scheduler_kind::silent;
  std::printf("graph: %s n=%d m=%lld Δ=%d\n", family.c_str(), g.num_nodes(),
              static_cast<long long>(g.num_edges()), g.max_degree());
  // The scheduler suffix appears only when non-default, so every existing
  // step-scheduler invocation's stdout stays byte-identical (the serial-vs-
  // fleet diff gates depend on that).
  std::printf("engine: order=%s pack=u%d%s%s\n", pp::to_string(runner.order()),
              runner.pack_bits(),
              runner.packed() ? "" : " (lazy fallback: |Lambda| beyond the closure budget)",
              options.scheduler == pp::scheduler_kind::silent
                  ? " scheduler=silent"
                  : "");
  const pp::election_summary summary = run_sweep(runner, options, cfg, argv0, [&] {
    return pp::fleet::make_tuned_artifact(runner, g, family, desc);
  });
  print_graph_summary(summary, static_cast<int>(cfg.trials), g);
  return 0;
}

// Well-mixed sweep + report (P is fast_protocol or beauquier_protocol); the
// artifact (when needed) is written from this sweep.
template <typename P>
int run_wellmixed_mode(const pp::wellmixed_sweep<P>& sweep, const std::string& family,
                       const pp::fleet::protocol_desc& desc, const cli_config& cfg,
                       const char* argv0) {
  const pp::election_summary summary = run_sweep(sweep, {}, cfg, argv0, [&] {
    return pp::fleet::make_wellmixed_artifact(sweep, family, desc);
  });
  std::printf("well-mixed clique: n=%llu (multiset configuration, no edge list)\n",
              static_cast<unsigned long long>(sweep.population()));
  print_wellmixed_summary(summary, static_cast<int>(cfg.trials));
  return 0;
}

// Worker-side flight recorder: the supervisor's exec launcher sets
// POPSIM_OBS_SIDECAR / POPSIM_TRACE_SIDECAR / POPSIM_PROBE_STRIDE
// (fleet/supervisor.cpp) to request per-trial probe metrics and trace
// spans.  Both sidecars are rewritten after every completed trial, so a
// worker SIGKILLed mid-chunk leaves the last completed trial's snapshot
// behind — the same lose-only-the-tail contract as the .ppaj journal — and
// the supervisor merges whatever survived.
struct worker_obs {
  std::string metrics_path;
  std::string trace_path;
  std::uint64_t stride = pp::obs::run_probe::kDefaultStride;
  pp::obs::metrics_registry metrics;
  pp::obs::trace_writer trace;

  worker_obs() {
    if (const char* p = std::getenv("POPSIM_OBS_SIDECAR")) metrics_path = p;
    if (const char* p = std::getenv("POPSIM_TRACE_SIDECAR")) trace_path = p;
    if (const char* p = std::getenv("POPSIM_PROBE_STRIDE")) {
      std::uint64_t v = 0;
      if (parse_u64(p, v) && v >= 1) stride = v;
    }
    if (!trace_path.empty()) {
      trace.name_process("popsim worker");
      trace.name_thread(0, "trials");
    }
  }
  bool on() const { return !metrics_path.empty() || !trace_path.empty(); }

  // Runs one trial through `run(gen, probe)`; `run` must accept either a
  // null_probe* (observability off: the engines' zero-cost path) or a
  // run_probe* whose stats are rolled into the sidecars.
  template <typename RunFn>
  pp::election_result trial(std::uint64_t t, pp::rng gen, RunFn&& run) {
    if (!on()) return run(gen, static_cast<pp::obs::null_probe*>(nullptr));
    // Windows close every 64 strides of steps — boundaries live on the
    // deterministic step counter, so the ring is bit-identical across reruns.
    pp::obs::run_probe probe(stride, stride * 64);
    const std::int64_t t0 = pp::obs::trace_now_us();
    const pp::election_result r = run(gen, &probe);
    const std::int64_t t1 = pp::obs::trace_now_us();
    probe.finish();
    const pp::obs::probe_stats& st = probe.stats();
    if (!trace_path.empty()) {
      trace.begin_at("trial", 0, t0, {pp::obs::trace_arg::num("trial", t)});
      trace.end_at(
          "trial", 0, t1,
          {pp::obs::trace_arg::num("steps", st.steps),
           pp::obs::trace_arg::num("active_steps", st.active_steps),
           pp::obs::trace_arg::num(
               "leader", static_cast<std::int64_t>(r.leader))});
      trace.write_sidecar(trace_path);
    }
    if (!metrics_path.empty()) {
      metrics.add("engine.trials");
      metrics.add("engine.steps", st.steps);
      metrics.add("engine.active_steps", st.active_steps);
      metrics.add("engine.predicate_evals", st.predicate_evals);
      metrics.add("engine.rng_draws", st.rng_draws);
      metrics.add("engine.table_fills", st.table_fills);
      metrics.add("engine.batches", st.batches);
      metrics.add("engine.batch_retries", st.batch_retries);
      metrics.add("engine.census_samples",
                  static_cast<std::uint64_t>(st.census.size()));
      metrics.add("engine.active_set_samples",
                  static_cast<std::uint64_t>(st.active_sets.size()));
      metrics.add("engine.windows_closed", st.windows_closed);
      metrics.observe("engine.steps_per_trial", st.steps);
      metrics.observe("engine.silent_steps_per_trial", st.silent_steps());
      metrics.observe("engine.trial_duration_us",
                      static_cast<std::uint64_t>(t1 - t0));
      metrics.write_text(metrics_path);
    }
    return r;
  }
};

// popsim --worker MANIFEST INDEX BASE COUNT [FAULTS]: read the manifest,
// open the artifact (rebuild and validate the sweep), and stream trials
// [BASE, BASE+COUNT) to stdout as length-prefixed records.  Nothing else
// may touch stdout here.  The supervisor (fleet/supervisor.h) picks the
// range — reassigned chunks are arbitrary — and, for a slot's first worker
// only, appends a fault spec list to inject.
int worker_main(int argc, char** argv) {
  if (argc != 6 && argc != 7) {
    std::fprintf(stderr,
                 "popsim: --worker needs <manifest> <index> <base> <count> "
                 "[<faults>]\n");
    return 2;
  }
  std::uint64_t index = 0;
  if (!parse_u64(argv[3], index)) {
    std::fprintf(stderr, "popsim: --worker index must be a non-negative integer\n");
    return 2;
  }
  std::uint64_t base = 0;
  std::uint64_t count = 0;
  if (!parse_u64(argv[4], base) || !parse_u64(argv[5], count)) {
    std::fprintf(stderr,
                 "popsim: --worker base/count must be non-negative integers\n");
    return 2;
  }
  std::vector<pp::fleet::fault_spec> faults;
  if (argc == 7 && !pp::fleet::parse_fault_specs(argv[6], faults)) {
    std::fprintf(stderr, "popsim: --worker got a malformed fault spec list\n");
    return 2;
  }
  try {
    // A worker whose supervisor died mid-sweep must fail loudly (EPIPE ->
    // stderr + exit 1), not die silently of SIGPIPE.
    pp::fleet::ignore_sigpipe();
    const auto manifest = pp::fleet::read_manifest(argv[2]);
    pp::expects(index < static_cast<std::uint64_t>(manifest.jobs),
                "popsim --worker: index exceeds the manifest's job count");
    pp::expects(base <= manifest.trials && count <= manifest.trials - base,
                "popsim --worker: trial range exceeds the manifest's trials");
    const pp::fleet::trial_range range{base, count};
    const pp::fleet::fault_injector injector(faults, static_cast<int>(index));
    worker_obs obs;
    pp::sim_options options;
    options.max_steps = manifest.max_steps;
    options.wellmixed_batch = manifest.wellmixed_batch;
    options.scheduler = manifest.scheduler;

    pp::fleet::open_sweep(manifest.artifact_path, [&](const auto& sweep) {
      pp::fleet::run_trial_block(
          range, STDOUT_FILENO,
          [&](std::uint64_t t, pp::rng gen) {
            return obs.trial(t, gen, [&](pp::rng g, auto* probe) {
              return sweep->runner.run(g, options, probe);
            });
          },
          pp::fleet::sweep_seed_gen(manifest.seed), injector);
    });
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "popsim --worker: %s\n", e.what());
    return 1;
  }
}

// popsim --load-artifact FILE ...: open the sweep the artifact describes
// (rebuilt and validated against the stored sections) and run it.
int artifact_main(const cli_config& cfg, const char* argv0) {
  const pp::fleet::sweep_artifact stored(cfg.load_path);
  if (stored.engine == pp::fleet::artifact_engine::wellmixed &&
      cfg.engine == "silent") {
    std::fprintf(stderr,
                 "popsim: --engine silent schedules graph interactions; this "
                 "artifact carries the well-mixed multiset engine\n");
    return usage();
  }
  return pp::fleet::open_sweep(
      stored, [&]<typename S>(const std::shared_ptr<const S>& sweep) {
        if (!cfg.save_path.empty()) {
          // Re-save from the opened runner: it validated byte for byte
          // against the input, so the file is the input again (the CI
          // round-trip gate `cmp`s the two).
          pp::fleet::save_artifact(sweep->view(), cfg.save_path);
        }
        const pp::fleet::artifact_meta& meta = sweep->meta;
        if constexpr (S::engine == pp::fleet::artifact_engine::tuned) {
          return run_tuned_mode(sweep->runner, sweep->g, meta.family, meta.protocol,
                                cfg, argv0);
        } else {
          return run_wellmixed_mode(sweep->runner, meta.family, meta.protocol, cfg,
                                    argv0);
        }
      });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    return worker_main(argc, argv);
  }
  try {
    if (argc >= 2 && argv[1][0] == '-') {
      // Flag-only invocation: the sweep comes from an artifact.
      cli_config cfg;
      if (!parse_flags(argc, argv, 1, cfg)) return usage();
      if (!validate_fleet_flags(cfg)) return usage();
      if (cfg.has("--serve")) {
        // Resident popsimd daemon: print the bound port (ephemeral when
        // --serve 0) as the one stdout line, then serve forever.
        pp::fleet::service_options options;
        options.port = static_cast<std::uint16_t>(cfg.serve_port);
        options.cache_mb = cfg.cache_mb;
        pp::fleet::sweep_service service(options);
        std::printf("popsimd listening port=%u\n", service.port());
        std::fflush(stdout);
        service.run();
      }
      if (cfg.load_path.empty()) return usage();
      // The engine choice and data layout are recorded in the artifact.  The
      // silent scheduler is the exception: a runtime knob like max_steps, it
      // never changes what the artifact validates against.
      if ((cfg.has("--engine") && cfg.engine != "silent") || cfg.tuning_given()) {
        std::fprintf(stderr,
                     "popsim: --engine/--order/--pack are recorded in the "
                     "artifact; only --engine silent (a runtime scheduler "
                     "knob) may be set at load time\n");
        return usage();
      }
      return artifact_main(cfg, argv[0]);
    }

    if (argc < 4) return usage();
    const std::string family_name = argv[1];
    std::uint64_t n_value = 0;
    if (!parse_u64(argv[2], n_value) || n_value < 2 ||
        n_value > static_cast<std::uint64_t>(INT32_MAX)) {
      std::fprintf(stderr, "popsim: n must be an integer in [2, %d]\n", INT32_MAX);
      return usage();
    }
    const std::string protocol = argv[3];

    cli_config cfg;
    if (!parse_flags(argc, argv, 4, cfg)) return usage();
    if (!validate_fleet_flags(cfg)) return usage();
    if (!cfg.load_path.empty()) {
      std::fprintf(stderr,
                   "popsim: --load-artifact replaces the positional "
                   "<family> <n> <protocol> arguments\n");
      return usage();
    }
    if (cfg.has("--serve")) {
      std::fprintf(stderr,
                   "popsim: --serve takes no positional arguments (the "
                   "daemon's sweeps arrive over the socket)\n");
      return usage();
    }

    pp::rng seed(cfg.seed);
    const int trial_count = static_cast<int>(cfg.trials);

    // --- well-mixed multiset engine: no graph object, clique only ---
    if (cfg.engine == "wellmixed") {
      if (cfg.tuning_given()) {
        std::fprintf(stderr,
                     "popsim: --order/--pack tune the per-interaction compiled "
                     "engine; the wellmixed engine has no node array to pack\n");
        return usage();
      }
      if (family_name != "clique") {
        std::fprintf(stderr,
                     "popsim: --engine wellmixed simulates the well-mixed "
                     "(clique) model only\n");
        return usage();
      }
      const std::uint64_t n = n_value;
      if (protocol == "fast") {
        const pp::fast_protocol proto(pp::fast_params::practical_clique(n));
        const pp::wellmixed_sweep<pp::fast_protocol> sweep(proto, n);
        return run_wellmixed_mode(sweep, family_name,
                                  pp::fleet::fast_desc(proto.params()), cfg, argv[0]);
      }
      if (protocol == "six") {
        const pp::beauquier_protocol proto(static_cast<pp::node_id>(n));
        const pp::wellmixed_sweep<pp::beauquier_protocol> sweep(proto, n);
        return run_wellmixed_mode(sweep, family_name,
                                  pp::fleet::six_desc(proto.num_nodes()), cfg, argv[0]);
      }
      std::fprintf(stderr,
                   "popsim: --engine wellmixed supports protocols fast|six\n");
      return usage();
    }

    // Reject tuning/fleet flags for non-engine protocols before paying for
    // the graph construction (a dense family at large n is expensive).
    const bool compiled_engine = protocol == "fast" || protocol == "star";
    if (cfg.engine == "silent" && !compiled_engine) {
      std::fprintf(stderr,
                   "popsim: --engine silent schedules the compiled engine, "
                   "i.e. protocol fast or star\n");
      return usage();
    }
    if (cfg.tuning_given() && !compiled_engine) {
      std::fprintf(stderr,
                   "popsim: --order/--pack apply to the compiled engine, i.e. "
                   "protocol fast or star\n");
      return usage();
    }
    if (cfg.needs_artifact() && !compiled_engine) {
      std::fprintf(stderr,
                   "popsim: --jobs/--save-artifact/--journal/--inject-fault/"
                   "--metrics/--trace/--progress need the compiled engine "
                   "(protocol fast or star, or --engine wellmixed)\n");
      return usage();
    }

    const pp::node_id n = static_cast<pp::node_id>(n_value);
    const pp::graph_family* family = nullptr;
    try {
      family = &pp::family_by_name(family_name);
    } catch (const std::invalid_argument&) {
      return usage();
    }
    pp::rng make_gen = seed.fork(0);
    const pp::graph g = family->make(n, make_gen);

    if (compiled_engine) {
      // Tuned compiled engine (src/engine/): the runner resolves the data
      // layout (vertex order, config/table word widths) once and shares it
      // across the trials.  Defaults (natural order, auto width) reproduce
      // the reference simulator's seeded results exactly.  The star protocol
      // runs in the engine's edge-census mode (engine/edgecensus/): its
      // stability predicate counts undecided-undecided edges, maintained
      // incrementally alongside the node census.
      const auto tuned = [&]<typename P>(const P& proto,
                                         const pp::fleet::protocol_desc& desc) {
        std::optional<pp::tuned_runner<P>> prepared;
        try {
          prepared.emplace(proto, g, cfg.tuning);
        } catch (const std::invalid_argument& e) {
          // e.g. --pack 8 when |Λ| > 256, or a forced width on an unclosable
          // table: report instead of aborting.
          std::fprintf(stderr, "popsim: %s\n", e.what());
          return usage();
        }
        return run_tuned_mode(*prepared, g, family_name, desc, cfg, argv[0]);
      };
      if (protocol == "star") {
        return tuned(pp::star_protocol{}, pp::fleet::star_desc());
      }
      const double b =
          pp::estimate_worst_case_broadcast_time(g, 30, 6, seed.fork(1)).value;
      const pp::fast_protocol proto(pp::fast_params::practical(g, b));
      return tuned(proto, pp::fleet::fast_desc(proto.params()));
    }

    std::printf("graph: %s n=%d m=%lld Δ=%d\n", family_name.c_str(), g.num_nodes(),
                static_cast<long long>(g.num_edges()), g.max_degree());
    pp::election_summary summary;
    if (protocol == "id") {
      const pp::id_protocol proto(pp::id_protocol::suggested_k(g.num_nodes()));
      summary = pp::measure_election(proto, g, trial_count,
                                     pp::fleet::sweep_seed_gen(cfg.seed));
    } else if (protocol == "six") {
      const pp::beauquier_protocol proto(g.num_nodes());
      summary = pp::measure_election_tuned(
          proto, g, trial_count, pp::fleet::sweep_seed_gen(cfg.seed),
          {.scheduler = pp::scheduler_kind::silent});
    } else {
      return usage();
    }
    print_graph_summary(summary, trial_count, g);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "popsim: %s\n", e.what());
    return 1;
  }
}
