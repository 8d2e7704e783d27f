#include "fleet/net.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "fleet/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/expects.h"
#include "support/parse.h"

namespace pp::fleet::net {

namespace {

using steady_clock = std::chrono::steady_clock;

// How long any single handshake step may take.  Generous: a cache miss makes
// the daemon verify, rebuild and validate the shipped artifact before it
// replies OK_CACHED.
constexpr int kHandshakeTimeoutMs = 30000;

std::int64_t ms_until(steady_clock::time_point when) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             when - steady_clock::now())
      .count();
}

// Polls fd for `events` until the deadline; throws on timeout.
void await_fd(int fd, short events, steady_clock::time_point deadline,
              const char* what) {
  for (;;) {
    const std::int64_t left = ms_until(deadline);
    ensure(left > 0, std::string("fleet net: timed out ") + what);
    pollfd p{fd, events, 0};
    const int r = ::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(
                                    left, 1000)));
    ensure(r >= 0 || errno == EINTR,
           std::string("fleet net: poll failed: ") + std::strerror(errno));
    if (r > 0) return;  // ready, or an error the read/write will surface
  }
}

void write_all_deadline(int fd, const std::uint8_t* data, std::size_t size,
                        steady_clock::time_point deadline, const char* what) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n > 0) {
      data += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      await_fd(fd, POLLOUT, deadline, what);
      continue;
    }
    ensure(n < 0 && errno == EINTR,
           std::string("fleet net: write failed: ") + std::strerror(errno));
  }
}

// Reads exactly `size` bytes; returns false on EOF before the first byte,
// throws on EOF mid-buffer or timeout.
bool read_exact_deadline(int fd, std::uint8_t* data, std::size_t size,
                         steady_clock::time_point deadline, const char* what) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      ensure(got == 0, std::string("fleet net: stream torn ") + what);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      await_fd(fd, POLLIN, deadline, what);
      continue;
    }
    ensure(errno == EINTR,
           std::string("fleet net: read failed: ") + std::strerror(errno));
  }
  return true;
}

template <typename T>
void pack(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
bool unpack(const std::uint8_t* payload, std::size_t length, std::size_t& off,
            T& out) {
  if (length - off < sizeof(T)) return false;
  std::memcpy(&out, payload + off, sizeof(T));
  off += sizeof(T);
  return true;
}

}  // namespace

std::string to_string(const host_addr& addr) {
  return addr.host + ":" + std::to_string(addr.port);
}

bool parse_host(const std::string& text, host_addr& out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  std::uint64_t port = 0;
  if (!parse_u64(text.c_str() + colon + 1, port)) return false;
  if (port < 1 || port > 65535) return false;
  out.host = text.substr(0, colon);
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

bool parse_host_list(const std::string& text, std::vector<host_addr>& out) {
  std::vector<host_addr> hosts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string one =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    host_addr addr;
    if (!parse_host(one, addr)) return false;
    hosts.push_back(addr);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (hosts.empty()) return false;
  out = std::move(hosts);
  return true;
}

std::vector<std::uint8_t> encode_sweep_request(const sweep_request& request) {
  std::vector<std::uint8_t> payload;
  payload.reserve(78 + request.faults.size());
  pack<std::uint8_t>(payload, static_cast<std::uint8_t>(msg_type::req_sweep));
  pack<std::uint32_t>(payload, request.version);
  pack<std::uint64_t>(payload, request.artifact_checksum);
  pack<std::uint64_t>(payload, request.artifact_size);
  pack<std::uint32_t>(payload, request.slot);
  pack<std::uint64_t>(payload, request.seed);
  pack<std::uint64_t>(payload, request.trials);
  pack<std::uint64_t>(payload, request.base);
  pack<std::uint64_t>(payload, request.count);
  pack<std::uint64_t>(payload, request.max_steps);
  pack<std::uint64_t>(payload, request.wellmixed_batch);
  pack<std::uint8_t>(payload, request.scheduler);
  pack<std::uint32_t>(payload,
                      static_cast<std::uint32_t>(request.faults.size()));
  payload.insert(payload.end(), request.faults.begin(), request.faults.end());
  return payload;
}

bool decode_sweep_request(const std::uint8_t* payload, std::size_t length,
                          sweep_request& out) {
  sweep_request r;
  std::size_t off = 0;
  std::uint8_t type = 0;
  std::uint32_t faults_length = 0;
  if (!unpack(payload, length, off, type) ||
      type != static_cast<std::uint8_t>(msg_type::req_sweep) ||
      !unpack(payload, length, off, r.version) ||
      !unpack(payload, length, off, r.artifact_checksum) ||
      !unpack(payload, length, off, r.artifact_size) ||
      !unpack(payload, length, off, r.slot) ||
      !unpack(payload, length, off, r.seed) ||
      !unpack(payload, length, off, r.trials) ||
      !unpack(payload, length, off, r.base) ||
      !unpack(payload, length, off, r.count) ||
      !unpack(payload, length, off, r.max_steps) ||
      !unpack(payload, length, off, r.wellmixed_batch) ||
      !unpack(payload, length, off, r.scheduler) ||
      !unpack(payload, length, off, faults_length)) {
    return false;
  }
  // Only step (0) and silent (1) exist; any other byte is a foreign request,
  // not a step-scheduler one (read_manifest rejects the same way).
  if (r.scheduler > 1) return false;
  if (length - off != faults_length) return false;  // exact-size payloads only
  r.faults.assign(reinterpret_cast<const char*>(payload) + off, faults_length);
  out = std::move(r);
  return true;
}

void send_frame(int fd, const std::uint8_t* payload, std::size_t length,
                int timeout_ms) {
  expects(length <= kMaxControlPayload, "fleet net: frame payload too large");
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(payload, static_cast<std::uint32_t>(length));
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  write_all_deadline(fd, frame.data(), frame.size(), deadline,
                     "sending a frame");
}

std::vector<std::uint8_t> recv_frame(int fd, std::uint32_t max_payload,
                                     int timeout_ms) {
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint8_t head[wire::kLengthBytes];
  ensure(read_exact_deadline(fd, head, sizeof(head), deadline,
                             "awaiting a frame"),
         "fleet net: connection closed while awaiting a frame");
  std::uint32_t length = 0;
  std::memcpy(&length, head, sizeof(length));
  ensure(length <= max_payload,
         "fleet net: oversized frame (version skew or corrupt stream)");
  // Reassemble the whole frame so wire::decode_frame does the validation —
  // never reading past it, so trailing record bytes stay in the stream.
  std::vector<std::uint8_t> frame(wire::framed_size(length));
  std::memcpy(frame.data(), head, sizeof(head));
  ensure(read_exact_deadline(fd, frame.data() + sizeof(head),
                             frame.size() - sizeof(head), deadline,
                             "reading a frame body"),
         "fleet net: frame torn mid-body");
  wire::frame_view view;
  ensure(wire::decode_frame(frame.data(), frame.size(), {0, max_payload},
                            view) == wire::decode_status::ok,
         "fleet net: frame checksum mismatch");
  return std::vector<std::uint8_t>(view.payload, view.payload + view.payload_length);
}

int listen_on(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ensure(fd >= 0, std::string("fleet net: socket failed: ") +
                      std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    ensure(false, "fleet net: cannot listen on port " + std::to_string(port) +
                      ": " + why);
  }
  return fd;
}

std::uint16_t bound_port(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  ensure(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
         std::string("fleet net: getsockname failed: ") + std::strerror(errno));
  return ntohs(addr.sin_port);
}

int dial(const host_addr& addr, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  const std::string port = std::to_string(addr.port);
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(addr.host.c_str(), port.c_str(), &hints, &found);
  if (rc != 0) {
    obs::logf(obs::log_level::warn, "fleet net: cannot resolve %s: %s",
              to_string(addr).c_str(), ::gai_strerror(rc));
    return -1;
  }
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  int fd = -1;
  for (addrinfo* ai = found; ai != nullptr && fd < 0; ai = ai->ai_next) {
    const int s = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (s < 0) continue;
    // Non-blocking connect bounded by the deadline, then back to blocking:
    // the frame IO layer manages its own deadlines via poll.
    const int flags = ::fcntl(s, F_GETFL, 0);
    ::fcntl(s, F_SETFL, flags | O_NONBLOCK);
    int connected = ::connect(s, ai->ai_addr, ai->ai_addrlen);
    if (connected != 0 && errno == EINPROGRESS) {
      try {
        await_fd(s, POLLOUT, deadline, "connecting");
        int err = 0;
        socklen_t err_len = sizeof(err);
        if (::getsockopt(s, SOL_SOCKET, SO_ERROR, &err, &err_len) == 0 &&
            err == 0) {
          connected = 0;
        } else {
          errno = err;
        }
      } catch (const std::exception&) {
        connected = -1;
        errno = ETIMEDOUT;
      }
    }
    if (connected == 0) {
      ::fcntl(s, F_SETFL, flags);
      const int one = 1;
      ::setsockopt(s, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd = s;
    } else {
      ::close(s);
    }
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    obs::logf(obs::log_level::warn, "fleet net: cannot connect to %s: %s",
              to_string(addr).c_str(), std::strerror(errno));
  }
  return fd;
}

int request_sweep(const host_addr& addr, const sweep_request& request,
                  const std::vector<std::uint8_t>& artifact_bytes,
                  int timeout_ms, bool* shipped) {
  if (shipped != nullptr) *shipped = false;
  const int fd = dial(addr, timeout_ms);
  if (fd < 0) return -1;
  try {
    const std::vector<std::uint8_t> req = encode_sweep_request(request);
    send_frame(fd, req.data(), req.size(), timeout_ms);
    std::vector<std::uint8_t> reply = recv_frame(fd, kMaxControlPayload,
                                                 timeout_ms);
    ensure(!reply.empty(), "fleet net: empty handshake reply");
    if (reply[0] == static_cast<std::uint8_t>(msg_type::need_artifact)) {
      ensure(artifact_bytes.size() == request.artifact_size,
             "fleet net: artifact bytes do not match the request");
      std::vector<std::uint8_t> data;
      data.reserve(1 + artifact_bytes.size());
      data.push_back(static_cast<std::uint8_t>(msg_type::artifact_data));
      data.insert(data.end(), artifact_bytes.begin(), artifact_bytes.end());
      send_frame(fd, data.data(), data.size(), timeout_ms);
      if (shipped != nullptr) *shipped = true;
      reply = recv_frame(fd, kMaxControlPayload, timeout_ms);
      ensure(!reply.empty(), "fleet net: empty handshake reply");
    }
    if (reply[0] == static_cast<std::uint8_t>(msg_type::ok_cached)) {
      return fd;
    }
    if (reply[0] == static_cast<std::uint8_t>(msg_type::err)) {
      const std::string message(reply.begin() + 1, reply.end());
      obs::logf(obs::log_level::error, "fleet net: %s rejected the sweep: %s",
                to_string(addr).c_str(), message.c_str());
    } else {
      obs::logf(obs::log_level::error,
                "fleet net: unexpected handshake reply 0x%02x from %s",
                reply[0], to_string(addr).c_str());
    }
  } catch (const std::exception& e) {
    obs::logf(obs::log_level::warn, "fleet net: handshake with %s failed: %s",
              to_string(addr).c_str(), e.what());
  }
  ::close(fd);
  return -1;
}

std::int64_t ping_daemon(int fd, std::uint64_t token, int timeout_ms) {
  try {
    std::vector<std::uint8_t> payload;
    payload.reserve(13);
    pack<std::uint8_t>(payload, static_cast<std::uint8_t>(msg_type::ping));
    pack<std::uint32_t>(payload, kNetVersion);
    pack<std::uint64_t>(payload, token);
    const steady_clock::time_point sent = steady_clock::now();
    send_frame(fd, payload.data(), payload.size(), timeout_ms);
    const std::vector<std::uint8_t> reply =
        recv_frame(fd, kMaxControlPayload, timeout_ms);
    if (reply.size() != 9 ||
        reply[0] != static_cast<std::uint8_t>(msg_type::pong)) {
      obs::logf(obs::log_level::debug,
                "fleet net: health ping got a non-PONG reply (0x%02x, %zu "
                "bytes)",
                reply.empty() ? 0 : reply[0], reply.size());
      return -1;
    }
    std::uint64_t echoed = 0;
    std::memcpy(&echoed, reply.data() + 1, sizeof(echoed));
    if (echoed != token) {
      obs::logf(obs::log_level::debug,
                "fleet net: health pong token mismatch");
      return -1;
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(
               steady_clock::now() - sent)
        .count();
  } catch (const std::exception& e) {
    obs::logf(obs::log_level::debug, "fleet net: health ping failed: %s",
              e.what());
    return -1;
  }
}

bool fetch_stats(const host_addr& addr, std::string& json_out, int timeout_ms) {
  const int fd = dial(addr, timeout_ms);
  if (fd < 0) return false;
  bool ok = false;
  try {
    std::vector<std::uint8_t> payload;
    payload.reserve(5);
    pack<std::uint8_t>(payload, static_cast<std::uint8_t>(msg_type::stats));
    pack<std::uint32_t>(payload, kNetVersion);
    send_frame(fd, payload.data(), payload.size(), timeout_ms);
    const std::vector<std::uint8_t> reply =
        recv_frame(fd, kMaxControlPayload, timeout_ms);
    if (!reply.empty() &&
        reply[0] == static_cast<std::uint8_t>(msg_type::stats_ok)) {
      json_out.assign(reply.begin() + 1, reply.end());
      ok = true;
    } else if (!reply.empty() &&
               reply[0] == static_cast<std::uint8_t>(msg_type::err)) {
      const std::string message(reply.begin() + 1, reply.end());
      obs::logf(obs::log_level::error,
                "fleet net: %s rejected the stats request: %s",
                to_string(addr).c_str(), message.c_str());
    } else {
      obs::logf(obs::log_level::error,
                "fleet net: unexpected stats reply 0x%02x from %s",
                reply.empty() ? 0 : reply[0], to_string(addr).c_str());
    }
  } catch (const std::exception& e) {
    obs::logf(obs::log_level::warn,
              "fleet net: stats request to %s failed: %s",
              to_string(addr).c_str(), e.what());
  }
  ::close(fd);
  return ok;
}

namespace {

// Host health prober state, one entry per listed host.  Owns a persistent
// control connection per host (lazily dialed, redialed after a failure) so
// the ping train rides one socket instead of a connect storm.
struct host_health {
  int fd = -1;
  std::uint64_t token = 0;
  steady_clock::time_point next_ping;  // epoch start => immediate first ping
  int consecutive_failures = 0;
};

constexpr int kHealthIntervalMs = 1000;  // ping cadence per host
constexpr int kHealthTimeoutMs = 1000;   // dial + round-trip budget
constexpr int kHealthFailuresToKill = 3; // consecutive misses => host is dead

}  // namespace

std::vector<election_result> supervised_remote_sweep(
    const std::vector<host_addr>& hosts, int jobs,
    const worker_manifest& manifest, const supervise_options& options,
    const trial_fn& inline_fn) {
  expects(!hosts.empty(), "supervised_remote_sweep: empty host list");
  expects(jobs >= 1, "supervised_remote_sweep: jobs must be >= 1");

  // Read + checksum the artifact once; connections ship it only on a cache
  // miss at their daemon.
  std::vector<std::uint8_t> blob;
  {
    std::FILE* f = std::fopen(manifest.artifact_path.c_str(), "rb");
    expects(f != nullptr, "supervised_remote_sweep: cannot open artifact " +
                              manifest.artifact_path);
    std::uint8_t buf[65536];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      blob.insert(blob.end(), buf, buf + n);
    }
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    expects(!failed, "supervised_remote_sweep: cannot read artifact " +
                         manifest.artifact_path);
  }
  const std::uint64_t checksum = fnv1a64(blob.data(), blob.size());

  std::vector<int> generation(static_cast<std::size_t>(jobs), 0);
  const detail::launch_fn launch = [&](int slot, trial_range chunk, bool inject,
                                       const std::vector<int>&) {
    const host_addr& addr = hosts[static_cast<std::size_t>(slot) % hosts.size()];
    sweep_request request;
    request.artifact_checksum = checksum;
    request.artifact_size = blob.size();
    request.slot = static_cast<std::uint32_t>(slot);
    request.seed = manifest.seed;
    request.trials = manifest.trials;
    request.base = chunk.base;
    request.count = chunk.count;
    request.max_steps = manifest.max_steps;
    request.wellmixed_batch = manifest.wellmixed_batch;
    request.scheduler = static_cast<std::uint8_t>(manifest.scheduler);
    if (inject && !options.faults.empty()) {
      request.faults = to_string(options.faults);
    }
    const int gen = generation[static_cast<std::size_t>(slot)]++;
    bool shipped = false;
    const int fd =
        request_sweep(addr, request, blob, kHandshakeTimeoutMs, &shipped);
    if (options.trace != nullptr) {
      options.trace->instant(
          gen == 0 ? "connect" : "reconnect", 0,
          {obs::trace_arg::num("slot", static_cast<std::int64_t>(slot)),
           obs::trace_arg::str("host", addr.host),
           obs::trace_arg::num("port", static_cast<std::int64_t>(addr.port)),
           obs::trace_arg::num("ok", static_cast<std::int64_t>(fd >= 0 ? 1 : 0))});
      if (shipped) {
        options.trace->instant(
            "artifact_ship", 0,
            {obs::trace_arg::num("slot", static_cast<std::int64_t>(slot)),
             obs::trace_arg::num("bytes",
                                 static_cast<std::uint64_t>(blob.size()))});
      }
    }
    if (options.metrics != nullptr) {
      if (fd >= 0) {
        options.metrics->add(gen == 0 ? "fleet.net.connects"
                                      : "fleet.net.reconnects");
      } else {
        options.metrics->add("fleet.net.connect_failures");
      }
      if (shipped) {
        options.metrics->add("fleet.net.artifacts_shipped");
        options.metrics->add("fleet.net.artifact_bytes",
                             static_cast<std::uint64_t>(blob.size()));
      }
    }
    return detail::worker_stream{-1, fd};
  };

  // Host health prober (net.h): one persistent control connection per
  // listed host, pinged about once a second from the supervisor's
  // health_tick hook.  The first ping fires on the first tick, so even a
  // short CI sweep records at least one health_probe instant per host.
  std::vector<host_health> health(hosts.size());
  const steady_clock::time_point health_epoch = steady_clock::now();
  for (host_health& h : health) h.next_ping = health_epoch;
  struct health_closer {
    std::vector<host_health>* probes;
    ~health_closer() {
      for (host_health& h : *probes) {
        if (h.fd >= 0) {
          ::close(h.fd);
          h.fd = -1;
        }
      }
    }
  } closer{&health};
  supervise_options probed_options = options;
  probed_options.health_tick = [&]() {
    std::vector<int> dead_slots;
    const steady_clock::time_point now = steady_clock::now();
    for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
      host_health& h = health[hi];
      if (now < h.next_ping) continue;
      h.next_ping = now + std::chrono::milliseconds(kHealthIntervalMs);
      if (h.fd < 0) h.fd = dial(hosts[hi], kHealthTimeoutMs);
      std::int64_t rtt_us = -1;
      if (h.fd >= 0) {
        rtt_us = ping_daemon(h.fd, ++h.token, kHealthTimeoutMs);
        if (rtt_us < 0) {
          // One socket strike: drop the connection so the next tick
          // redials instead of reading a desynchronised stream.
          ::close(h.fd);
          h.fd = -1;
        }
      }
      const bool ok = rtt_us >= 0;
      h.consecutive_failures = ok ? 0 : h.consecutive_failures + 1;
      if (options.trace != nullptr) {
        options.trace->instant(
            "health_probe", 0,
            {obs::trace_arg::str("host", hosts[hi].host),
             obs::trace_arg::num("port",
                                 static_cast<std::int64_t>(hosts[hi].port)),
             obs::trace_arg::num("rtt_us", rtt_us),
             obs::trace_arg::num("ok", static_cast<std::int64_t>(ok ? 1 : 0))});
      }
      if (options.metrics != nullptr) {
        options.metrics->add("fleet.net.health.pings");
        if (ok) {
          options.metrics->add("fleet.net.health.pongs");
          options.metrics->observe("fleet.net.health.rtt_us",
                                   static_cast<std::uint64_t>(rtt_us));
        } else {
          options.metrics->add("fleet.net.health.failures");
        }
      }
      if (h.consecutive_failures >= kHealthFailuresToKill) {
        obs::logf(obs::log_level::warn,
                  "fleet net: host %s failed %d consecutive health pings; "
                  "failing its running slots",
                  to_string(hosts[hi]).c_str(), h.consecutive_failures);
        if (options.metrics != nullptr) {
          options.metrics->add("fleet.net.health.hosts_failed");
        }
        h.consecutive_failures = 0;  // re-arm: 3 more misses to fail again
        for (int slot = 0; slot < jobs; ++slot) {
          if (static_cast<std::size_t>(slot) % hosts.size() == hi) {
            dead_slots.push_back(slot);
          }
        }
      }
    }
    return dead_slots;
  };

  // Trial t uses rng(seed).fork(2).fork(t) — the exact derivation of serial
  // sweeps, popsim --worker, and popsimd runner children (service.cpp), so
  // a remote merge is byte-identical to a serial run.
  const rng seed_gen = rng(manifest.seed).fork(2);
  return detail::supervise(manifest.trials, seed_gen, jobs, probed_options,
                           launch, inline_fn, "supervised_remote_sweep");
}

}  // namespace pp::fleet::net
