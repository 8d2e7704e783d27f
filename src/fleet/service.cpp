#include "fleet/service.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <string>

#include "fleet/artifact.h"
#include "fleet/fault.h"
#include "fleet/net.h"
#include "fleet/supervisor.h"
#include "fleet/sweep.h"
#include "fleet/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "support/expects.h"

namespace pp::fleet {

namespace {

using steady_clock = std::chrono::steady_clock;

// A handshake may idle this long before the connection is dropped; replies
// this small always fit the socket buffer, so the same bound covers sends.
constexpr int kHandshakeIdleMs = 30000;

using trial_runner = std::function<election_result(rng, const sim_options&)>;

// One opened sweep (open_sweep), ready to fork runner children.  `run_trial`
// type-erases the protocol and engine; the shared_ptr it captures keeps the
// opened sweep — which owns its protocol and graph — alive for as long as
// the entry is cached.
struct cached_sweep {
  std::uint64_t checksum = 0;
  std::uint64_t bytes = 0;      // artifact file size
  std::uint64_t charge = 0;     // the cache currency (charge_of)
  std::uint64_t last_used = 0;  // LRU tick
  trial_runner run_trial;
};

// What a cached sweep is charged against the budget: the size its file had
// when TABL, PACK and EDGE stored the tables themselves (artifact format
// version 2), that is the file plus each print's recorded length less the
// 16 bytes in its place.  A cached sweep holds its runner's tables, so this
// tracks what it holds, and --cache-mb evicts what it evicted when the file
// carried the tables.  Charged only after the open validated the prints, so
// the lengths are the rebuilt runner's own.
std::uint64_t charge_of(const sweep_artifact& stored, std::uint64_t bytes) {
  for (const auto& print : {stored.prints.table, stored.prints.packed, stored.prints.edge}) {
    if (print) bytes += print->length - 16;
  }
  return bytes;
}

// One in-handshake connection.
struct connection {
  int fd = -1;
  std::vector<std::uint8_t> buf;         // unparsed handshake bytes
  bool awaiting_artifact = false;        // NEED_ARTIFACT sent, data pending
  net::sweep_request request;
  steady_clock::time_point since = steady_clock::now();
};

}  // namespace

struct sweep_service::state {
  service_options options;
  std::vector<std::shared_ptr<cached_sweep>> cache;
  std::vector<connection> conns;
  std::vector<pid_t> children;
  std::uint64_t lru_tick = 0;
  // The daemon's observable surface, snapshotted verbatim by the STATS
  // message (net.h) as the deterministic metrics JSON.  Counters are
  // pre-registered in the constructor so a snapshot is complete from the
  // first request onward.
  obs::metrics_registry metrics;

  std::uint64_t cache_bytes() const {
    std::uint64_t total = 0;
    for (const auto& entry : cache) total += entry->charge;
    return total;
  }

  // Refresh the point-in-time gauges right before a snapshot (or after any
  // state change that moves them).
  void refresh_gauges() {
    metrics.set("fleet.cache.bytes",
                static_cast<std::int64_t>(cache_bytes()));
    metrics.set("fleet.cache.entries",
                static_cast<std::int64_t>(cache.size()));
    metrics.set("fleet.children_live",
                static_cast<std::int64_t>(children.size()));
    metrics.set("fleet.net.connections",
                static_cast<std::int64_t>(conns.size()));
  }

  std::shared_ptr<cached_sweep> lookup(std::uint64_t checksum) {
    for (const auto& entry : cache) {
      if (entry->checksum == checksum) {
        entry->last_used = ++lru_tick;
        return entry;
      }
    }
    return nullptr;
  }

  // Inserts a freshly built entry and evicts least-recently-used others
  // until the cache fits the budget (the new entry itself is never evicted,
  // so an artifact bigger than the whole budget still serves).
  void insert(const std::shared_ptr<cached_sweep>& entry) {
    entry->last_used = ++lru_tick;
    cache.push_back(entry);
    const std::uint64_t budget = options.cache_mb * 1024 * 1024;
    while (cache_bytes() > budget && cache.size() > 1) {
      std::size_t victim = cache.size();
      for (std::size_t i = 0; i < cache.size(); ++i) {
        if (cache[i] == entry) continue;
        if (victim == cache.size() ||
            cache[i]->last_used < cache[victim]->last_used) {
          victim = i;
        }
      }
      if (victim == cache.size()) break;
      obs::logf(obs::log_level::info,
                "popsimd: evicting artifact %016llx (charged %llu bytes) "
                "from the cache (LRU, budget %llu MB)",
                static_cast<unsigned long long>(cache[victim]->checksum),
                static_cast<unsigned long long>(cache[victim]->charge),
                static_cast<unsigned long long>(options.cache_mb));
      metrics.add("fleet.cache.evictions");
      cache.erase(cache.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    metrics.add("fleet.cache.insertions");
    refresh_gauges();
  }
};

sweep_service::sweep_service(const service_options& options)
    : state_(new state{options, {}, {}, {}, 0, {}}) {
  expects(options.cache_mb >= 1, "popsimd: cache budget must be >= 1 MB");
  // Pre-register the STATS surface (tools/check_stats.py's required keys):
  // a std::map-backed registry only shows a name once touched, and a
  // snapshot missing e.g. fleet.cache.evictions would read as schema skew
  // rather than "none yet".
  for (const char* key :
       {"fleet.net.requests", "fleet.net.pings", "fleet.net.stats_requests",
        "fleet.net.rejects", "fleet.net.connections_accepted",
        "fleet.net.artifact_bytes_received", "fleet.cache.hits",
        "fleet.cache.misses", "fleet.cache.insertions",
        "fleet.cache.evictions", "fleet.runners_spawned",
        "fleet.runners_reaped"}) {
    state_->metrics.add(key, 0);
  }
  state_->refresh_gauges();
  listen_fd_ = net::listen_on(options.port, options.backlog);
  port_ = net::bound_port(listen_fd_);
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
}

sweep_service::~sweep_service() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (state_ != nullptr) {
    for (connection& c : state_->conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    for (const pid_t pid : state_->children) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
  }
}

namespace {

// Best-effort loud rejection: stderr always, the ERR frame if the peer is
// still reading.  Returns false so `handle_frame` call sites can
// `return reject(...)` to drop the connection.  (run() wraps this in a
// `reject` lambda that also counts fleet.net.rejects.)
bool reject_conn(const connection& conn, const std::string& message) {
  obs::logf(obs::log_level::error, "popsimd: rejecting connection: %s",
            message.c_str());
  try {
    std::vector<std::uint8_t> payload;
    payload.reserve(1 + message.size());
    payload.push_back(static_cast<std::uint8_t>(net::msg_type::err));
    payload.insert(payload.end(), message.begin(), message.end());
    net::send_frame(conn.fd, payload.data(), payload.size(), kHandshakeIdleMs);
  } catch (const std::exception&) {
    // The peer vanished first; the log line above already told the story.
  }
  return false;
}

void send_control(const connection& conn, net::msg_type type) {
  const auto byte = static_cast<std::uint8_t>(type);
  net::send_frame(conn.fd, &byte, 1, kHandshakeIdleMs);
}

bool valid_request(const net::sweep_request& r, std::string& why) {
  if (r.version != net::kNetVersion) {
    why = "protocol version skew (client v" + std::to_string(r.version) +
          ", daemon v" + std::to_string(net::kNetVersion) + ")";
    return false;
  }
  if (r.trials < 1 || r.trials > 1'000'000) {
    why = "trial count out of range";
    return false;
  }
  if (r.base > r.trials || r.count > r.trials - r.base) {
    why = "chunk exceeds the sweep's trials";
    return false;
  }
  if (r.count < 1) {
    why = "empty chunk";
    return false;
  }
  if (r.slot > 100000) {
    why = "slot index out of range";
    return false;
  }
  if (r.artifact_size < 1) {
    why = "empty artifact";
    return false;
  }
  if (!r.faults.empty()) {
    std::vector<fault_spec> specs;
    if (!parse_fault_specs(r.faults, specs)) {
      why = "malformed fault spec list";
      return false;
    }
  }
  return true;
}

}  // namespace

[[noreturn]] void sweep_service::run() {
  state& st = *state_;
  ignore_sigpipe();
  obs::logf(obs::log_level::info,
            "popsimd: serving on port %u (cache budget %llu MB)", port_,
            static_cast<unsigned long long>(st.options.cache_mb));

  const auto reject = [&st](const connection& conn,
                            const std::string& message) {
    st.metrics.add("fleet.net.rejects");
    return reject_conn(conn, message);
  };

  // Forks the runner child streaming `conn`'s chunk, then forgets the
  // connection (the child owns the fd's lifetime from here).
  const auto spawn_runner = [&](connection& conn,
                                const std::shared_ptr<cached_sweep>& entry) {
    const net::sweep_request request = conn.request;
    const pid_t pid = ::fork();
    ensure(pid >= 0, "popsimd: fork failed");
    if (pid == 0) {
      ::close(listen_fd_);
      for (const connection& other : st.conns) {
        if (other.fd >= 0 && other.fd != conn.fd) ::close(other.fd);
      }
      ignore_sigpipe();
      int status = 0;
      try {
        // The handshake ran the fd non-blocking; the record stream writes
        // blocking (write_all retries EAGAIN, but a full socket buffer
        // should park the child, not spin it).
        const int flags = ::fcntl(conn.fd, F_GETFL, 0);
        ::fcntl(conn.fd, F_SETFL, flags & ~O_NONBLOCK);
        std::vector<fault_spec> specs;
        if (!request.faults.empty()) parse_fault_specs(request.faults, specs);
        const fault_injector injector(specs, static_cast<int>(request.slot));
        sim_options options;
        options.max_steps = request.max_steps;
        options.wellmixed_batch = request.wellmixed_batch;
        options.scheduler = request.scheduler == 1 ? scheduler_kind::silent
                                                   : scheduler_kind::step;
        run_trial_block(
            {request.base, request.count}, conn.fd,
            [&](std::uint64_t, rng gen) {
              return entry->run_trial(gen, options);
            },
            sweep_seed_gen(request.seed), injector);
      } catch (const std::exception& e) {
        obs::logf(obs::log_level::error, "popsimd runner: %s", e.what());
        status = 1;
      }
      ::close(conn.fd);
      ::_exit(status);
    }
    obs::logf(obs::log_level::info,
              "popsimd: serving trials [%llu, %llu) of artifact %016llx "
              "(slot %u, runner pid %d)",
              static_cast<unsigned long long>(request.base),
              static_cast<unsigned long long>(request.base + request.count),
              static_cast<unsigned long long>(request.artifact_checksum),
              request.slot, static_cast<int>(pid));
    st.children.push_back(pid);
    st.metrics.add("fleet.runners_spawned");
    st.refresh_gauges();
    ::close(conn.fd);
    conn.fd = -1;
  };

  // Processes one complete handshake frame; returns false to drop the
  // connection (either rejected or handed off to a runner child).
  const auto handle_frame = [&](connection& conn,
                                const wire::frame_view& frame) -> bool {
    if (!conn.awaiting_artifact) {
      // Control-plane messages first (v3): read-only, and the connection
      // stays open afterwards — one health socket carries a whole ping
      // train, and a monitor may poll STATS repeatedly.
      const std::uint8_t type = frame.payload[0];
      if (type == static_cast<std::uint8_t>(net::msg_type::ping)) {
        if (frame.payload_length != 13) {
          return reject(conn, "malformed health ping");
        }
        std::uint32_t version = 0;
        std::memcpy(&version, frame.payload + 1, sizeof(version));
        if (version != net::kNetVersion) {
          return reject(conn, "protocol version skew (client v" +
                                  std::to_string(version) + ", daemon v" +
                                  std::to_string(net::kNetVersion) + ")");
        }
        st.metrics.add("fleet.net.pings");
        std::vector<std::uint8_t> reply(9);
        reply[0] = static_cast<std::uint8_t>(net::msg_type::pong);
        std::memcpy(reply.data() + 1, frame.payload + 5, 8);  // echo the token
        try {
          net::send_frame(conn.fd, reply.data(), reply.size(),
                          kHandshakeIdleMs);
        } catch (const std::exception&) {
          return false;  // peer vanished between ping and pong
        }
        return true;
      }
      if (type == static_cast<std::uint8_t>(net::msg_type::stats)) {
        if (frame.payload_length != 5) {
          return reject(conn, "malformed stats request");
        }
        std::uint32_t version = 0;
        std::memcpy(&version, frame.payload + 1, sizeof(version));
        if (version != net::kNetVersion) {
          return reject(conn, "protocol version skew (client v" +
                                  std::to_string(version) + ", daemon v" +
                                  std::to_string(net::kNetVersion) + ")");
        }
        st.metrics.add("fleet.net.stats_requests");
        st.refresh_gauges();
        const std::string json = st.metrics.json();
        std::vector<std::uint8_t> reply;
        reply.reserve(1 + json.size());
        reply.push_back(static_cast<std::uint8_t>(net::msg_type::stats_ok));
        reply.insert(reply.end(), json.begin(), json.end());
        try {
          net::send_frame(conn.fd, reply.data(), reply.size(),
                          kHandshakeIdleMs);
        } catch (const std::exception&) {
          return false;
        }
        return true;
      }
      net::sweep_request request;
      if (!net::decode_sweep_request(frame.payload, frame.payload_length,
                                     request)) {
        return reject(conn, "malformed sweep request");
      }
      st.metrics.add("fleet.net.requests");
      std::string why;
      if (!valid_request(request, why)) return reject(conn, why);
      conn.request = request;
      if (const auto entry = st.lookup(request.artifact_checksum)) {
        if (entry->bytes != request.artifact_size) {
          return reject(conn, "artifact size disagrees with the cached copy");
        }
        st.metrics.add("fleet.cache.hits");
        send_control(conn, net::msg_type::ok_cached);
        spawn_runner(conn, entry);
        return false;
      }
      st.metrics.add("fleet.cache.misses");
      send_control(conn, net::msg_type::need_artifact);
      conn.awaiting_artifact = true;
      return true;
    }
    // ARTIFACT_DATA: verify the declared checksum over the raw bytes, then
    // open the sweep over the frame in place (artifact.h: checksum, parse,
    // rebuild, compare the prints) before anything is cached or served.
    if (frame.payload_length < 1 ||
        frame.payload[0] != static_cast<std::uint8_t>(net::msg_type::artifact_data)) {
      return reject(conn, "expected ARTIFACT_DATA");
    }
    const std::uint8_t* data = frame.payload + 1;
    const std::uint64_t size = frame.payload_length - 1;
    st.metrics.add("fleet.net.artifact_bytes_received", size);
    if (size != conn.request.artifact_size) {
      return reject(conn, "artifact size mismatch (declared " +
                              std::to_string(conn.request.artifact_size) +
                              " bytes, got " + std::to_string(size) + ")");
    }
    const std::uint64_t checksum = fnv1a64(data, size);
    if (checksum != conn.request.artifact_checksum) {
      char digest[64];
      std::snprintf(digest, sizeof(digest), "%016llx, got %016llx",
                    static_cast<unsigned long long>(conn.request.artifact_checksum),
                    static_cast<unsigned long long>(checksum));
      return reject(conn, std::string("artifact checksum mismatch (declared ") +
                              digest + ")");
    }
    // A burst of cold-cache connections can all be told NEED_ARTIFACT
    // before the first one ships; whoever lands second reuses the entry
    // instead of inserting a duplicate.
    std::shared_ptr<cached_sweep> entry = st.lookup(checksum);
    if (entry == nullptr) {
      try {
        const sweep_artifact stored(
            std::span<const std::uint8_t>(data, static_cast<std::size_t>(size)));
        entry = std::make_shared<cached_sweep>();
        entry->checksum = checksum;
        entry->bytes = size;
        entry->run_trial = open_sweep(stored, [](auto sweep) -> trial_runner {
          return [sweep](rng gen, const sim_options& options) {
            return sweep->runner.run(gen, options);
          };
        });
        entry->charge = charge_of(stored, size);
      } catch (const std::exception& e) {
        return reject(conn, std::string("artifact rejected: ") + e.what());
      }
      st.insert(entry);
      obs::logf(obs::log_level::info,
                "popsimd: cached artifact %016llx (%llu bytes, charged %llu; "
                "cache now %llu/%llu MB across %zu artifact(s))",
                static_cast<unsigned long long>(checksum),
                static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(entry->charge),
                static_cast<unsigned long long>(st.cache_bytes() >> 20),
                static_cast<unsigned long long>(st.options.cache_mb),
                st.cache.size());
    }
    send_control(conn, net::msg_type::ok_cached);
    spawn_runner(conn, entry);
    return false;
  };

  for (;;) {
    // Reap finished runner children.
    for (std::size_t i = 0; i < st.children.size();) {
      int status = 0;
      const pid_t r = ::waitpid(st.children[i], &status, WNOHANG);
      if (r == st.children[i]) {
        st.children.erase(st.children.begin() + static_cast<std::ptrdiff_t>(i));
        st.metrics.add("fleet.runners_reaped");
        st.refresh_gauges();
      } else {
        ++i;
      }
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const connection& conn : st.conns) {
      fds.push_back({conn.fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 200);
    ensure(ready >= 0 || errno == EINTR,
           std::string("popsimd: poll failed: ") + std::strerror(errno));

    // New connections.
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        connection conn;
        conn.fd = fd;
        st.conns.push_back(std::move(conn));
        st.metrics.add("fleet.net.connections_accepted");
      }
    }

    // Handshake progress, one connection at a time.
    for (std::size_t i = 0; i < st.conns.size();) {
      connection& conn = st.conns[i];
      bool keep = true;
      const std::size_t poll_index = i + 1;
      const bool readable = poll_index < fds.size() &&
                            fds[poll_index].fd == conn.fd &&
                            (fds[poll_index].revents &
                             (POLLIN | POLLHUP | POLLERR)) != 0;
      if (readable) {
        std::uint8_t buf[65536];
        for (;;) {
          const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
          if (n > 0) {
            conn.buf.insert(conn.buf.end(), buf, buf + n);
            continue;
          }
          if (n == 0) {
            keep = false;  // peer went away mid-handshake
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          keep = false;
          break;
        }
        while (keep) {
          wire::frame_view frame;
          const wire::decode_status status =
              wire::decode_frame(conn.buf.data(), conn.buf.size(),
                                 {1, net::kMaxControlPayload}, frame);
          if (status == wire::decode_status::need_more) break;
          if (status != wire::decode_status::ok) {
            keep = reject(conn, status == wire::decode_status::bad_length
                                    ? "unframeable handshake bytes"
                                    : "handshake frame checksum mismatch");
            break;
          }
          keep = handle_frame(conn, frame);
          // Any complete frame is activity: a persistent control connection
          // (health ping train, a STATS poller) must outlive the handshake
          // idle deadline as long as it keeps talking.
          conn.since = steady_clock::now();
          conn.buf.erase(conn.buf.begin(),
                         conn.buf.begin() +
                             static_cast<std::ptrdiff_t>(frame.frame_bytes));
        }
      }
      if (keep &&
          steady_clock::now() - conn.since >
              std::chrono::milliseconds(kHandshakeIdleMs)) {
        obs::logf(obs::log_level::warn,
                  "popsimd: dropping a connection whose handshake stalled");
        keep = false;
      }
      if (!keep) {
        if (conn.fd >= 0) ::close(conn.fd);
        st.conns.erase(st.conns.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
}

service_process::service_process(const service_options& options) {
  // Bind in this process so the (possibly ephemeral) port is known before
  // the daemon child even starts; the child inherits the listening socket.
  sweep_service service(options);
  port_ = service.port();
  pid_ = ::fork();
  ensure(pid_ >= 0, "service_process: fork failed");
  if (pid_ == 0) {
    try {
      service.run();
    } catch (const std::exception& e) {
      obs::logf(obs::log_level::error, "popsimd: %s", e.what());
    }
    ::_exit(1);
  }
  // Parent: `service` goes out of scope and closes its copy of the listen
  // fd; the child keeps its own.
}

service_process::~service_process() {
  if (pid_ >= 0) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

}  // namespace pp::fleet
