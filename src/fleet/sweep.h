// Process-level fleet sweeps: the vocabulary shared by every worker and the
// supervisor (supervisor.h) that runs them.
//
// A sweep over T trials is embarrassingly parallel — trial t's generator is
// seed_gen.fork(t) and nothing else is shared — so the supervisor deals
// [0, T) out as contiguous trial chunks, runs each chunk in a worker, and
// reads per-trial results back as checked records.  It reassembles the
// records *by trial index* before summarizing, so a fleet sweep with any
// worker count produces exactly the per-trial result vector of a serial
// sweep over the same seed list: for the deterministic engines
// (per-interaction tuned runner; well-mixed at fixed batch) the merged
// summary is byte-identical to serial.  That seed-partition determinism is
// the contract tests/test_fleet.cpp and the CI fleet-determinism step
// enforce.
//
// Workers come from one of the supervisor's three launchers: a forked copy
// of the current process (the prepared sweep inherited copy-on-write), an
// exec'd `popsim --worker` that rebuilds the sweep from the manifest below
// plus its artifact, or a socket to a resident daemon (net.h).
//
// Record framing is the shared wire.h checked frame (native-endian):
//   u32 payload length (= 29) | payload | u64 fnv1a64(payload)
// with payload
//   u64 trial index, u64 steps, u64 distinct_states_used, i32 leader,
//   u8 stabilized.
// Pipes, sockets (net.h) and the on-disk journal (journal.h) all carry this
// exact frame, so the supervisor's buffered reader is transport-agnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/simulator.h"
#include "support/rng.h"

namespace pp::fleet {

// Contiguous block of trial indices [base, base + count): one worker's chunk.
struct trial_range {
  std::uint64_t base = 0;
  std::uint64_t count = 0;
};

// One streamed result; `trial` is the global trial index.
struct trial_record {
  std::uint64_t trial = 0;
  election_result result;
};

// Fixed payload size of one encoded trial_record:
// u64 trial + u64 steps + u64 distinct + i32 leader + u8 stabilized.
inline constexpr std::uint32_t kTrialRecordPayload = 8 + 8 + 8 + 4 + 1;

// Flat encode/decode of one record payload — the shared wire format of
// worker streams, the supervisor's buffered reader (supervisor.h) and the
// on-disk journal (journal.h).
void encode_trial_record(const trial_record& record, std::uint8_t* out);
trial_record decode_trial_record(const std::uint8_t* payload);

// Writes one checked-frame record to a pipe/socket fd (wire.h framing),
// retrying short writes.  A closed read end surfaces as EPIPE (workers
// ignore SIGPIPE), reported with strerror in the message.
void write_trial_record(int fd, const trial_record& record);

// Worker-process prologue: ignore SIGPIPE so a worker whose parent died
// mid-sweep gets a loud EPIPE error (stderr + nonzero exit) instead of
// dying silently from the default disposition.  Called by every fork-mode
// worker and by `popsim --worker`.
void ignore_sigpipe();

// The per-trial work: called with the global trial index and the trial's
// forked generator (seed_gen.fork(trial)).
using trial_fn = std::function<election_result(std::uint64_t trial, rng gen)>;

// Job description shared with `popsim --worker` subprocesses: which artifact
// to load and how to derive every trial's seed.  Stored as a line-based
// key=value text file so it is diffable and host-portable.
struct worker_manifest {
  std::string artifact_path;
  std::uint64_t seed = 1;       // master seed (sweep_seed_gen)
  std::uint64_t trials = 1;
  int jobs = 1;
  std::uint64_t max_steps = UINT64_MAX;
  std::uint64_t wellmixed_batch = 0;
  // Runtime scheduler choice (core/simulator.h): step or silent.  A runtime
  // knob like max_steps — never part of the artifact.
  scheduler_kind scheduler = scheduler_kind::step;

  friend bool operator==(const worker_manifest&, const worker_manifest&) = default;
};

// The one seed rule: trial t of the sweep with master seed `seed` runs
// sweep_seed_gen(seed).fork(t), that is rng(seed).fork(2).fork(t) (popsim
// builds its graph from fork 0 and estimates B(G) on fork 1).  Every route a
// trial can take derives its generator here — popsim's in-process thread
// pool and `popsim --worker`, the exec supervisor's inline fallback
// (supervised_spawn_sweep), the --hosts supervisor's (net.h) and popsimd's
// runner children (service.h) — so a fleet, remote, resumed or degraded
// sweep merges byte-identical to the serial one.
inline rng sweep_seed_gen(std::uint64_t seed) { return rng(seed).fork(2); }

// read_manifest reads whole lines and throws std::invalid_argument on a
// missing header or artifact line, an unknown key, an out-of-range value, a
// NUL byte or a file over 64 KiB; whatever it accepts survives another
// write -> read unchanged.
void write_manifest(const worker_manifest& manifest, const std::string& path);
worker_manifest read_manifest(const std::string& path);

// Absolute path of the running executable (/proc/self/exe), falling back to
// `argv0` where procfs is unavailable.
std::string self_exe_path(const char* argv0);

}  // namespace pp::fleet
