// Fleet sweep supervisor: the one way this library runs trials across
// worker processes.  A poll()-multiplexed event loop reads every worker's
// record stream and survives worker crashes instead of aborting the sweep.
// Three launchers feed it: supervised_fleet_run forks the current process
// (workers inherit the prepared sweep copy-on-write), supervised_spawn_sweep
// execs `popsim --worker` subprocesses that rebuild the sweep from a
// manifest + artifact, and net.h's supervised_remote_sweep dials resident
// daemons.  With max_retries = 0 and no inline fallback, the first worker
// failure throws.
//
// Supervision state machine, per worker slot:
//
//   running ──(EOF, exit 0, chunk complete)──────────────► idle / next chunk
//   running ──(EOF early, nonzero exit, torn record,
//              protocol violation, inactivity timeout)───► kill ► failed
//   failed  ──(retry budget left)──► backoff (capped exponential) ► respawn
//           └─(budget exhausted)──► degrade: remaining trials run inline,
//                                   serially, in the supervisor process
//
// Work is dealt in contiguous trial chunks.  A worker streams its chunk in
// order, so the validly received records of a failed worker always form a
// prefix — the remainder is again one contiguous chunk, handed to the
// respawned worker.  Determinism is free: trial t runs seed_gen.fork(t) no
// matter which process (or the inline fallback) executes it, so a recovered
// sweep's merged results are byte-identical to a serial sweep.
//
// With a journal path set, every completed trial is spooled to a crash-safe
// .ppaj journal (journal.h) as it streams in; `resume` replays the journal
// first and the supervisor runs only the gap.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/fault.h"
#include "fleet/journal.h"
#include "fleet/sweep.h"
#include "support/rng.h"

namespace pp::obs {
class metrics_registry;
class trace_writer;
}  // namespace pp::obs

namespace pp::fleet {

struct supervise_options {
  int worker_timeout_ms = 0;      // per-worker inactivity timeout; 0 disables
  int max_retries = 2;            // total kill-and-respawns across the sweep
  int backoff_initial_ms = 10;    // first respawn delay
  int backoff_max_ms = 2000;      // cap of the exponential backoff
  std::string journal_path;       // spool completed trials here ("" = off)
  bool resume = false;            // replay journal_path, run only the gap
  std::uint64_t journal_tag = 0;  // sweep identity (master seed) in the header
  std::vector<fault_spec> faults; // injected into first-generation workers only

  // Observability (src/obs/), all optional and borrowed — the caller owns
  // the writer/registry and serialises them after the sweep.  `trace`
  // receives the supervisor timeline (span and instant names documented in
  // src/fleet/README.md); `metrics` the fleet.* counters.  In exec mode,
  // when `sidecar_dir` is set, each worker is told (via POPSIM_*_SIDECAR /
  // POPSIM_PROBE_STRIDE env vars) to drop per-trial trace spans and probe
  // metrics into per-(slot, generation) sidecar files there, which the
  // supervisor merges into `trace`/`metrics` and unlinks before returning.
  obs::trace_writer* trace = nullptr;
  obs::metrics_registry* metrics = nullptr;
  std::string sidecar_dir;        // worker sidecar directory ("" = off)
  std::uint64_t probe_stride = 0; // worker census-sampling stride (0 = off)

  // Live progress (popsim --progress): the poll loop prints a throttled
  // status line — trials done/total, per-slot state glyphs, an EWMA trial
  // rate and the ETA it implies — to *stderr only*.  Fleet stdout stays
  // byte-identical to serial regardless (tests/test_cli.cpp gates it), so
  // progress works identically in fork, --hosts and --resume modes.
  bool progress = false;
  int progress_interval_ms = 500;  // min delay between status lines

  // Transport health hook, called once per poll-loop iteration (<= ~5 Hz).
  // net.h's remote sweep installs its host health prober here: the hook
  // sends/collects health pings and returns the slots whose transport it
  // judges dead (a host failing several consecutive pings).  The
  // supervisor fails each returned slot that is still running through the
  // normal kill -> backoff -> respawn machinery.  Health data only ever
  // *accelerates* failure detection — it never refreshes a slot's
  // inactivity deadline (a healthy daemon can still host a stalled run).
  std::function<std::vector<int>()> health_tick;
};

// Fork-mode supervised sweep: runs `trials` trials across at most `jobs`
// forked workers (never more workers than trials), trial t on
// seed_gen.fork(t).  Workers that die (crash, nonzero exit, torn record,
// hang past the timeout) are killed and respawned with their incomplete
// trials, degrading to inline serial execution of the remainder (with `fn`)
// once the retry budget is spent.  Returns the per-trial results indexed by
// trial; throws on unrecoverable errors (journal mismatch, fault spec naming
// a slot beyond `jobs`) and rethrows whatever `fn` throws inline.
std::vector<election_result> supervised_fleet_run(std::uint64_t trials,
                                                  rng seed_gen,
                                                  const trial_fn& fn, int jobs,
                                                  const supervise_options& options);

// Exec-mode supervised sweep: workers are
// `exe --worker <manifest_path> <slot> <base> <count> [<faults>]`
// subprocesses streaming records on stdout.  `inline_fn` (optional) runs
// remaining trials in this process when the retry budget is exhausted; with
// no inline fallback, exhaustion throws instead of degrading.
std::vector<election_result> supervised_spawn_sweep(
    const std::string& exe, const std::string& manifest_path,
    const worker_manifest& manifest, const supervise_options& options,
    const trial_fn& inline_fn = {});

// The chunks a sweep with no trial done yet opens with: [0, trials) cut into
// contiguous blocks of ceil(trials / jobs) trials, the last holding the
// remainder, one per worker — so never more workers than blocks.  A resumed
// sweep deals the trials its journal lacks by the same rule.
std::vector<trial_range> opening_deal(std::uint64_t trials, int jobs);

// Worker-side block runner shared by fork-mode workers and popsim --worker:
// streams trials [range.base, range.base + range.count) to `fd` in order,
// trial t using seed_gen.fork(t), firing the injector's fault (if armed for
// this worker) at its exact record count.
void run_trial_block(trial_range range, int fd, const trial_fn& fn,
                     const rng& seed_gen,
                     const fault_injector& injector = {});

namespace detail {

// One launched worker: its process (reaped by the supervisor) and the fd
// its records arrive on.
struct worker_stream {
  pid_t pid = -1;
  int read_fd = -1;
};

// Launches one worker for `chunk` in slot `slot`; `inject` asks for fault
// injection (first-generation workers only).  `open_fds` are the parent's
// currently open record fds, which a forked child must close.  A launcher
// may return pid == -1 when the record stream is not a child process (a
// socket to a remote worker, net.h); returning read_fd < 0 reports a failed
// launch, which consumes a retry like any other slot failure.
using launch_fn = std::function<worker_stream(
    int slot, trial_range chunk, bool inject, const std::vector<int>& open_fds)>;

// The shared supervision core behind supervised_fleet_run,
// supervised_spawn_sweep and net.h's supervised_remote_sweep: the
// poll()-multiplexed loop only ever sees record fds, so pipes and sockets
// get identical timeout / respawn / reassignment / journal treatment.
std::vector<election_result> supervise(std::uint64_t trials, rng seed_gen,
                                       int jobs,
                                       const supervise_options& options,
                                       const launch_fn& launch,
                                       const trial_fn& inline_fn,
                                       const char* what);

}  // namespace detail

}  // namespace pp::fleet
