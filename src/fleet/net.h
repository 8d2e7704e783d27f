// Socket transport for distributed fleet sweeps: the same supervisor loop,
// with TCP connections to resident popsimd daemons (service.h) in place of
// pipes to forked workers.
//
// Handshake (every message is one wire.h checked frame; payload byte 0 is
// the message type, integers native-endian like every fleet surface):
//
//   client                                  popsimd
//   ──────────────────────────────────────────────────────────────────
//   REQ_SWEEP {version, artifact checksum
//              + size, slot, seed, trials,
//              chunk base + count,
//              max_steps, batch, faults}  ─►
//                                         ◄─  OK_CACHED        (cache hit)
//                                         ◄─  NEED_ARTIFACT    (cache miss)
//   ARTIFACT_DATA {raw .ppaf bytes}       ─►
//                                         ◄─  OK_CACHED  (verified + cached)
//                                         ◄─  ERR {message}  (version skew,
//                                             checksum/validation failure —
//                                             loud rejection, then close)
//
// Control-plane messages (v3) ride the same framing on their own
// connections, which the daemon keeps open across any number of frames:
//
//   PING {version, token}                 ─►
//                                         ◄─  PONG {token}      (echoed)
//   STATS {version}                       ─►
//                                         ◄─  STATS_OK {metrics JSON}
//
// PING/PONG is the supervisor's host health probe (rtt + liveness,
// fleet.net.health.* metrics); STATS snapshots the daemon's metrics
// registry (cache hits/evictions/bytes, live children, per-request
// counters) as the deterministic metrics-JSON payload, read-only — it
// never touches sweeps.  Version skew on either is rejected loudly with
// ERR, exactly like REQ_SWEEP.
//
// After OK_CACHED the connection carries nothing but trial-record frames
// (sweep.h layout) until a clean EOF at a frame boundary — exactly a pipe
// worker's stream, which is the whole point: supervised_remote_sweep hands
// the connected socket to detail::supervise as a pid-less slot, and
// inactivity timeouts, capped-backoff reconnection, contiguous-chunk
// reassignment, journal spooling and inline degradation apply unchanged.
// Every recovered/partitioned/resumed distributed sweep merges
// byte-identical to serial (trial t is always seed_gen.fork(t)).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/supervisor.h"
#include "fleet/sweep.h"

namespace pp::fleet {
class artifact_file;  // artifact.h
}  // namespace pp::fleet

namespace pp::fleet::net {

// Protocol version both ends must agree on exactly; bumped whenever a
// message layout or the message set changes.  v2 -> v3 added the PING /
// PONG / STATS / STATS_OK control plane; skew policy stays all-or-nothing
// (a v2 peer is rejected loudly — no downgrade negotiation), see
// src/fleet/README.md.
inline constexpr std::uint32_t kNetVersion = 3;

// Handshake frames are small except ARTIFACT_DATA, which carries a whole
// .ppaf container; 1 GiB bounds hostile length prefixes without constraining
// any real artifact.
inline constexpr std::uint32_t kMaxControlPayload = 1u << 30;

enum class msg_type : std::uint8_t {
  req_sweep = 0x01,
  artifact_data = 0x02,
  ping = 0x03,       // [u8 type][u32 version][u64 token]
  stats = 0x04,      // [u8 type][u32 version]
  ok_cached = 0x10,
  need_artifact = 0x11,
  err = 0x12,
  pong = 0x13,       // [u8 type][u64 token]
  stats_ok = 0x14,   // [u8 type][metrics JSON bytes]
};

// One remote worker endpoint.
struct host_addr {
  std::string host;
  std::uint16_t port = 0;

  friend bool operator==(const host_addr&, const host_addr&) = default;
};

std::string to_string(const host_addr& addr);

// Strict parses of "host:port" and "host:port,host:port,..." — empty host,
// port 0, non-numeric or out-of-range port, and empty list elements are all
// rejected (returning false leaves `out` unspecified).
bool parse_host(const std::string& text, host_addr& out);
bool parse_host_list(const std::string& text, std::vector<host_addr>& out);

// Everything a daemon needs to run one chunk of a sweep: the artifact is
// named by checksum + size so a warm cache skips the shipping entirely.
struct sweep_request {
  std::uint32_t version = kNetVersion;
  std::uint64_t artifact_checksum = 0;  // fnv1a64 of the whole .ppaf file
  std::uint64_t artifact_size = 0;      // byte size of the .ppaf file
  std::uint32_t slot = 0;               // supervisor slot (fault addressing)
  std::uint64_t seed = 1;               // master seed (sweep_seed_gen)
  std::uint64_t trials = 1;             // whole-sweep trial count
  std::uint64_t base = 0;               // this chunk
  std::uint64_t count = 0;
  std::uint64_t max_steps = UINT64_MAX;
  std::uint64_t wellmixed_batch = 0;
  // scheduler_kind as u8 on the wire (0 = step, 1 = silent); a runtime knob
  // like max_steps, never part of the artifact.
  std::uint8_t scheduler = 0;
  std::string faults;  // fault.h spec list for this connection ("" = none)

  friend bool operator==(const sweep_request&, const sweep_request&) = default;
};

std::vector<std::uint8_t> encode_sweep_request(const sweep_request& request);
bool decode_sweep_request(const std::uint8_t* payload, std::size_t length,
                          sweep_request& out);

// Framed blocking IO with a deadline.  send_frame throws on any write
// failure; recv_frame reads exactly one frame and throws on timeout, torn
// stream, oversized length or checksum mismatch (it never reads past the
// frame, so record bytes following an OK_CACHED reply are untouched).
void send_frame(int fd, const std::uint8_t* payload, std::size_t length,
                int timeout_ms);
std::vector<std::uint8_t> recv_frame(int fd, std::uint32_t max_payload,
                                     int timeout_ms);
// The ARTIFACT_DATA frame of an artifact file, streamed from the file a
// chunk at a time: the length, the type byte, the file's bytes and the
// FNV-1a trailer — the bytes send_frame writes for the concatenated
// payload, without holding the file.
void send_artifact_frame(int fd, const artifact_file& file, int timeout_ms);

// TCP plumbing.  listen_on binds (port 0 picks an ephemeral port — read it
// back with bound_port) and throws on failure; dial resolves and connects
// within the deadline, returning -1 on failure (logged, not thrown — a dead
// host is a recoverable slot failure, not a sweep error).
int listen_on(std::uint16_t port, int backlog);
std::uint16_t bound_port(int listen_fd);
int dial(const host_addr& addr, int timeout_ms);

// Dials `addr` and runs the client half of the handshake; returns the
// connected fd ready to stream record frames, or -1 on any failure
// (connect, timeout, ERR reply — all logged).  `artifact` is shipped only
// on NEED_ARTIFACT; `shipped` (optional) reports whether it was.
int request_sweep(const host_addr& addr, const sweep_request& request,
                  const artifact_file& artifact, int timeout_ms, bool* shipped);

// One health round-trip on an already-connected control fd: sends
// PING{token} and awaits the matching PONG.  Returns the rtt in
// microseconds, or -1 on timeout / ERR / token mismatch (logged at debug —
// the caller owns failure accounting).  The daemon keeps the connection
// open, so one fd serves a sweep's whole ping train.
std::int64_t ping_daemon(int fd, std::uint64_t token, int timeout_ms);

// Distributed supervised sweep: slot i of `jobs` dials hosts[i % size] —
// pass jobs == hosts.size() for one connection per listed host, or more for
// several concurrent chunks per daemon.  Fault specs in `options` are
// forwarded to first-generation connections only (reconnections run clean),
// mirroring the local injection contract.  Emits connect / reconnect /
// artifact_ship trace instants and fleet.net.* metrics into the options'
// sinks.  The manifest's artifact file is checksummed in one chunked pass
// and shipped from the file on each cache miss, so the client never holds
// it whole (a daemon rejects a ship whose bytes changed since the
// checksum); the manifest's jobs field is ignored in favour of `jobs`.
//
// Installs a host health prober on the supervisor's health_tick hook: each
// listed host gets a persistent control connection carrying a PING about
// once a second (first ping immediately), recorded as health_probe trace
// instants and fleet.net.health.* metrics.  Three consecutive failed pings
// judge the host dead and fail its running slots early (normal backoff /
// reassignment applies); pongs never extend a slot's inactivity deadline.
std::vector<election_result> supervised_remote_sweep(
    const std::vector<host_addr>& hosts, int jobs,
    const worker_manifest& manifest, const supervise_options& options,
    const trial_fn& inline_fn = {});

}  // namespace pp::fleet::net
