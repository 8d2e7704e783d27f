// Resident sweep daemon ("popsimd", `popsim --serve PORT`): accepts net.h
// sweep requests, keeps loaded-and-verified artifacts hot in a
// checksum-keyed LRU cache, and streams trial records back over the
// requesting connection.
//
// Lifecycle per connection (wire protocol in net.h):
//
//   accept ─► REQ_SWEEP ─► version gate ─► cache lookup by checksum
//     hit  ─► OK_CACHED ─► fork a runner child streaming the chunk
//     miss ─► NEED_ARTIFACT ─► ARTIFACT_DATA ─► fnv1a64(bytes) == declared
//             checksum? open the sweep over the frame in place: parse,
//             rebuild, compare the rebuilt tables' prints with the stored
//             ones (artifact.h's version-skew gate) ─► cache ─► OK_CACHED
//             ─► fork a runner child
//     any failure (version skew, checksum mismatch, malformed request,
//     validation divergence) ─► ERR {message} + stderr log, then close:
//     rejections are loud, never silent.
//
// The parent process multiplexes the listening socket and all in-handshake
// connections from one poll loop and owns the cache; each accepted sweep
// runs in a forked child that inherits the prepared runner copy-on-write
// (the same trick supervised_fleet_run's fork launcher plays) and writes
// record frames straight to the connection.  Concurrent requests therefore
// stream concurrently, and a child that dies mid-stream takes exactly one
// connection with it — the client's supervisor treats it like any dead
// worker.
//
// Cache policy: entries are keyed by the artifact file checksum.  Each is
// charged what its runner's tables weigh, the size its artifact had when
// the file stored them (format version 2), and the charges are capped by
// `cache_mb`, evicting least-recently-used entries first (the entry serving
// the current request is never evicted).  A re-request of an evicted
// artifact is just a cache miss: the client ships the bytes again.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace pp::fleet {

struct service_options {
  std::uint16_t port = 0;       // 0 = kernel-assigned ephemeral port
  std::uint64_t cache_mb = 256; // cache budget (cached sweeps' charges)
  int backlog = 128;            // listen(2) backlog
};

class sweep_service {
 public:
  // Binds and listens immediately (throws on failure), so port() is valid —
  // and an ephemeral port is discoverable — before run() is entered.
  explicit sweep_service(const service_options& options);
  ~sweep_service();
  sweep_service(const sweep_service&) = delete;
  sweep_service& operator=(const sweep_service&) = delete;

  std::uint16_t port() const { return port_; }

  // Serves forever (the daemon loop).  Runner children are reaped as they
  // finish; handshakes that stall past their deadline are dropped.
  [[noreturn]] void run();

 private:
  struct state;
  std::unique_ptr<state> state_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

// Test/bench helper: runs a sweep_service in a forked child process.  The
// socket is bound in the constructing process (so port() is known even for
// port 0) and the child enters run(); the destructor SIGKILLs and reaps it.
class service_process {
 public:
  explicit service_process(const service_options& options);
  ~service_process();
  service_process(const service_process&) = delete;
  service_process& operator=(const service_process&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  std::uint16_t port_ = 0;
  pid_t pid_ = -1;
};

}  // namespace pp::fleet
