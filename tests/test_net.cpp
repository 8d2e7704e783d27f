// Socket transport + resident daemon (src/fleet/net.h, src/fleet/service.h):
// strict host parsing, handshake encode/decode, and the end-to-end contract
// a distributed sweep lives by — a loopback popsimd serves chunks whose
// merged results are byte-identical to the serial sweep, through every
// network fault kind, cache state and rejection path.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "dynamics/epidemic.h"
#include "fleet/artifact.h"
#include "fleet/fault.h"
#include "fleet/journal.h"
#include "fleet/net.h"
#include "fleet/service.h"
#include "fleet/supervisor.h"
#include "fleet/sweep.h"
#include "fleet/wire.h"
#include "graph/generators.h"
#include "mutation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pp::fleet {
namespace {

// Sanitizer builds run the engine an order of magnitude slower, so the
// inactivity timeout armed by the stall test must stay above a healthy
// worker's sanitized inter-record gap or the supervisor reclaims live
// connections and drains the retry budget on them.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kStallTimeoutMs = 10'000;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kStallTimeoutMs = 10'000;
#else
constexpr int kStallTimeoutMs = 250;
#endif
#else
constexpr int kStallTimeoutMs = 250;
#endif

TEST(NetParse, AcceptsHostPortAndRejectsEverythingElse) {
  net::host_addr addr;
  ASSERT_TRUE(net::parse_host("127.0.0.1:9000", addr));
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 9000);
  ASSERT_TRUE(net::parse_host("node-7.cluster:65535", addr));
  EXPECT_EQ(addr.host, "node-7.cluster");
  EXPECT_EQ(addr.port, 65535);

  for (const char* bad : {"", "localhost", ":9000", "host:", "host:0",
                          "host:65536", "host:-1", "host:port", "host:90x"}) {
    EXPECT_FALSE(net::parse_host(bad, addr)) << "'" << bad << "'";
  }
}

TEST(NetParse, HostListsAreAllOrNothing) {
  std::vector<net::host_addr> hosts;
  ASSERT_TRUE(net::parse_host_list("a:1,b:2,c:3", hosts));
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[1].host, "b");
  EXPECT_EQ(hosts[2].port, 3);

  for (const char* bad : {"", ",", "a:1,", ",a:1", "a:1,,b:2", "a:1,b:0"}) {
    EXPECT_FALSE(net::parse_host_list(bad, hosts)) << "'" << bad << "'";
  }
}

TEST(NetHandshake, SweepRequestRoundTrips) {
  net::sweep_request request;
  request.artifact_checksum = 0x0123456789abcdefull;
  request.artifact_size = 4096;
  request.slot = 7;
  request.seed = 99;
  request.trials = 1000;
  request.base = 250;
  request.count = 250;
  request.max_steps = 123456;
  request.wellmixed_batch = 64;
  request.scheduler = 1;  // silent
  request.faults = "drop:w7:after=2";

  const auto payload = net::encode_sweep_request(request);
  net::sweep_request decoded;
  ASSERT_TRUE(net::decode_sweep_request(payload.data(), payload.size(), decoded));
  EXPECT_EQ(decoded, request);
}

// The ARTIFACT_DATA frame is streamed from the artifact file a chunk at a
// time; on the wire it must be exactly the frame of the concatenated
// payload.
TEST(NetHandshake, ArtifactFrameIsTheFrameOfTheConcatenatedPayload) {
  std::vector<std::uint8_t> artifact(300'000);  // several read chunks
  for (std::size_t i = 0; i < artifact.size(); ++i) {
    artifact[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::string path = testing::TempDir() + "/net_frame.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(artifact.data()),
              static_cast<std::streamsize>(artifact.size()));
  }
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // The frame is larger than the socket buffer: drain it concurrently.
  std::vector<std::uint8_t> received;
  std::thread reader([&] {
    std::uint8_t buf[1 << 14];
    for (ssize_t n; (n = ::read(fds[1], buf, sizeof(buf))) > 0;) {
      received.insert(received.end(), buf, buf + n);
    }
  });
  net::send_artifact_frame(fds[0], artifact_file(path), 10'000);
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);
  std::remove(path.c_str());

  std::vector<std::uint8_t> payload{static_cast<std::uint8_t>(net::msg_type::artifact_data)};
  payload.insert(payload.end(), artifact.begin(), artifact.end());
  EXPECT_TRUE(received ==
              wire::encode_frame(payload.data(), static_cast<std::uint32_t>(payload.size())));
}

TEST(NetHandshake, MalformedRequestsAreRejected) {
  net::sweep_request request;
  request.count = 1;
  const auto payload = net::encode_sweep_request(request);
  net::sweep_request decoded;
  // Every truncation must fail loudly, not misparse.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::decode_sweep_request(payload.data(), cut, decoded))
        << cut << "-byte prefix";
  }
  // Trailing junk disagrees with the declared fault-spec length.
  auto padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(net::decode_sweep_request(padded.data(), padded.size(), decoded));
  // A different message type is not a sweep request.
  auto wrong = payload;
  wrong[0] = static_cast<std::uint8_t>(net::msg_type::artifact_data);
  EXPECT_FALSE(net::decode_sweep_request(wrong.data(), wrong.size(), decoded));
  // Only step (0) and silent (1) are schedulers; any other byte must fail to
  // decode rather than run the step scheduler.
  for (const int scheduler : {2, 255}) {
    request.scheduler = static_cast<std::uint8_t>(scheduler);
    const auto unknown = net::encode_sweep_request(request);
    EXPECT_FALSE(
        net::decode_sweep_request(unknown.data(), unknown.size(), decoded))
        << "scheduler " << scheduler;
  }
}

// The daemon decodes REQ_SWEEP from any TCP peer.  Every seeded mutation of
// a valid request — the shared mutator, spliced field by field — must be
// rejected or decode to a request that re-encodes to the very same bytes.
TEST(NetHandshake, SeededMutationsAreRejectedOrRoundTrip) {
  net::sweep_request request;
  request.artifact_checksum = 0x0123456789abcdefull;
  request.artifact_size = 4096;
  request.slot = 3;
  request.seed = 99;
  request.trials = 1000;
  request.base = 250;
  request.count = 250;
  request.max_steps = 123456;
  request.wellmixed_batch = 64;
  request.scheduler = 1;  // silent
  request.faults = "drop:w3:after=2,torn:w0:after=1";
  const auto payload = net::encode_sweep_request(request);
  // Type, version, checksum, size, slot, seed, trials, base, count,
  // max_steps, batch, scheduler and fault-spec length, then the specs.
  std::vector<std::string> fields;
  std::size_t at = 0;
  for (const std::size_t width : {1, 4, 8, 8, 4, 8, 8, 8, 8, 8, 8, 1, 4}) {
    fields.emplace_back(reinterpret_cast<const char*>(payload.data()) + at, width);
    at += width;
  }
  fields.push_back(request.faults);
  ASSERT_EQ(at + request.faults.size(), payload.size());

  rng gen(2024);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string bytes = mutation::mutated(fields, i, gen);
    net::sweep_request decoded;
    if (!net::decode_sweep_request(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                                   bytes.size(), decoded)) {
      ++rejected;
      continue;
    }
    ++accepted;
    const auto again = net::encode_sweep_request(decoded);
    EXPECT_EQ(std::string(again.begin(), again.end()), bytes) << "mutation " << i;
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end sweeps against a loopback popsimd.  One shared fixture builds a
// real compiled-engine artifact; each test talks to its own daemon so cache
// state never leaks between them.

class RemoteSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    g_.emplace(make_cycle(200));
    const graph& g = *g_;  // the runner borrows the graph and the protocol
    proto_.emplace(fast_params::practical(
        g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value));
    runner_.emplace(*proto_, g);
    artifact_path_ = testing::TempDir() + "/net_sweep.ppaf";
    save_artifact(
        make_tuned_artifact(*runner_, g, "cycle", fast_desc(proto_->params())),
        artifact_path_);
    manifest_.artifact_path = artifact_path_;
    manifest_.seed = 41;
    manifest_.trials = 12;
    const rng seed_gen = rng(manifest_.seed).fork(2);
    for (std::uint64_t t = 0; t < manifest_.trials; ++t) {
      serial_.push_back(runner_->run(seed_gen.fork(t)));
    }
  }

  void TearDown() override { std::remove(artifact_path_.c_str()); }

  void expect_serial(const std::vector<election_result>& got) {
    ASSERT_EQ(got.size(), serial_.size());
    for (std::size_t t = 0; t < serial_.size(); ++t) {
      EXPECT_EQ(serial_[t].steps, got[t].steps) << "trial " << t;
      EXPECT_EQ(serial_[t].leader, got[t].leader) << "trial " << t;
      EXPECT_EQ(serial_[t].stabilized, got[t].stabilized) << "trial " << t;
    }
  }

  std::vector<net::host_addr> loopback(std::uint16_t port, int copies) {
    return std::vector<net::host_addr>(
        static_cast<std::size_t>(copies), net::host_addr{"127.0.0.1", port});
  }

  std::optional<graph> g_;
  std::optional<fast_protocol> proto_;
  std::optional<tuned_runner<fast_protocol>> runner_;
  std::string artifact_path_;
  worker_manifest manifest_;
  std::vector<election_result> serial_;
};

TEST_F(RemoteSweep, MatchesSerialByteIdentically) {
  const service_process daemon(service_options{});
  const auto results = net::supervised_remote_sweep(
      loopback(daemon.port(), 2), 2, manifest_, {});
  expect_serial(results);
}

TEST_F(RemoteSweep, SecondSweepHitsTheArtifactCache) {
  const service_process daemon(service_options{});
  const auto hosts = loopback(daemon.port(), 1);
  obs::metrics_registry cold;
  supervise_options options;
  options.metrics = &cold;
  expect_serial(net::supervised_remote_sweep(hosts, 2, manifest_, options));
  EXPECT_EQ(cold.counter("fleet.net.artifacts_shipped"), 1u);

  obs::metrics_registry warm;
  options.metrics = &warm;
  expect_serial(net::supervised_remote_sweep(hosts, 2, manifest_, options));
  EXPECT_EQ(warm.counter("fleet.net.artifacts_shipped"), 0u);
  EXPECT_EQ(warm.counter("fleet.net.connects"), 2u);
}

// popsimd's cache evicts the least recently used sweep once the entries'
// charges pass --cache-mb.  An entry is charged the size its artifact had
// when TABL and PACK stored the tables themselves: 26,697,320 B for this
// fixture, so a 40 MB budget holds one.  Serving A, B, A evicts A for B, and
// A ships again.
TEST_F(RemoteSweep, LeastRecentlyUsedArtifactIsEvictedAndShippedAgain) {
  service_options budget;
  budget.cache_mb = 40;
  const service_process daemon(budget);
  const auto hosts = loopback(daemon.port(), 1);
  // B: the same sweep under another family name, so another checksum.
  worker_manifest b = manifest_;
  b.artifact_path = testing::TempDir() + "/net_sweep_b.ppaf";
  save_artifact(make_tuned_artifact(*runner_, *g_, "ring", fast_desc(proto_->params())),
                b.artifact_path);
  const auto shipped = [&](const worker_manifest& manifest) {
    obs::metrics_registry metrics;
    supervise_options options;
    options.metrics = &metrics;
    expect_serial(net::supervised_remote_sweep(hosts, 1, manifest, options));
    return metrics.counter("fleet.net.artifacts_shipped");
  };
  EXPECT_EQ(shipped(manifest_), 1u);
  EXPECT_EQ(shipped(b), 1u);
  EXPECT_EQ(shipped(manifest_), 1u);  // evicted for B: shipped again
  std::remove(b.artifact_path.c_str());
}

TEST_F(RemoteSweep, RecoversFromConnectionFaultsByteIdentically) {
  // drop severs the socket with an RST mid-stream, torn leaves half a frame,
  // garbage delivers a well-framed record whose checksum cannot match.  In
  // every case the replacement connection re-runs the slot's remaining
  // trials and the merged sweep is indistinguishable from an unfaulted one,
  // and the slot's failure names what the supervisor saw on the socket.
  const std::pair<fault_kind, std::string> faults[] = {
      {fault_kind::drop,
       std::string("socket read error: ") + std::strerror(ECONNRESET)},
      {fault_kind::torn, "stream ended early"},
      {fault_kind::garbage, "record protocol violation"}};
  for (const auto& [kind, reason] : faults) {
    const service_process daemon(service_options{});
    obs::metrics_registry metrics;
    obs::trace_writer trace;
    supervise_options options;
    options.faults = {{kind, 0, 1}};
    options.metrics = &metrics;
    options.trace = &trace;
    const auto results = net::supervised_remote_sweep(
        loopback(daemon.port(), 1), 2, manifest_, options);
    expect_serial(results);
    const std::string what = to_string(fault_spec{kind, 0, 1});
    EXPECT_GE(metrics.counter("fleet.net.reconnects"), 1u) << what;
    EXPECT_EQ(metrics.counter("fleet.records_received"), manifest_.trials);
    const std::string events = trace.json();
    EXPECT_NE(events.find("\"worker_kill\""), std::string::npos) << what;
    EXPECT_NE(events.find("\"reason\": \"" + reason + "\""), std::string::npos)
        << what << ": " << events;
  }
}

TEST_F(RemoteSweep, StalledConnectionIsReclaimedByTheTimeout) {
  const service_process daemon(service_options{});
  obs::metrics_registry metrics;
  supervise_options options;
  options.faults = {{fault_kind::stall, 1, 2}};
  options.worker_timeout_ms = kStallTimeoutMs;
  options.metrics = &metrics;
  const auto results = net::supervised_remote_sweep(
      loopback(daemon.port(), 2), 2, manifest_, options);
  expect_serial(results);
  EXPECT_GE(metrics.counter("fleet.net.reconnects"), 1u);
}

TEST_F(RemoteSweep, DeadHostDegradesToInlineExecution) {
  // Nothing listens on the reserved port 1: every connect fails, the retry
  // budget drains, and the supervisor's inline tail still completes the
  // sweep byte-identically.
  supervise_options options;
  options.max_retries = 1;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  const auto results = net::supervised_remote_sweep(
      {net::host_addr{"127.0.0.1", 1}}, 1, manifest_, options,
      [&](std::uint64_t, rng gen) { return runner_->run(gen); });
  expect_serial(results);
}

TEST_F(RemoteSweep, JournaledRemoteSweepResumesGapOnly) {
  // A journaled distributed sweep fed by a faulted daemon connection, then
  // resumed: the resume replays the journal and fetches only the gap from
  // the network — records_received counts exactly the missing trials.
  const service_process daemon(service_options{});
  const auto hosts = loopback(daemon.port(), 1);
  const std::string path = testing::TempDir() + "/net_resume.ppaj";
  std::remove(path.c_str());
  {
    journal_writer writer(path, journal_header{manifest_.seed, manifest_.trials},
                          /*resume=*/false);
    for (std::uint64_t t = 0; t < 9; ++t) writer.append({t, serial_[t]});
  }
  obs::metrics_registry metrics;
  supervise_options options;
  options.journal_path = path;
  options.resume = true;
  options.journal_tag = manifest_.seed;
  options.faults = {{fault_kind::drop, 0, 1}};
  options.metrics = &metrics;
  const auto results =
      net::supervised_remote_sweep(hosts, 1, manifest_, options);
  expect_serial(results);
  EXPECT_EQ(metrics.counter("fleet.records_received"), manifest_.trials - 9);

  const journal_replay replay = replay_journal(path);
  std::vector<bool> seen(manifest_.trials, false);
  for (const trial_record& r : replay.records) seen[r.trial] = true;
  for (std::uint64_t t = 0; t < manifest_.trials; ++t) EXPECT_TRUE(seen[t]) << t;
  std::remove(path.c_str());
}

TEST_F(RemoteSweep, VersionSkewIsRejectedLoudly) {
  const service_process daemon(service_options{});
  const int fd = net::dial({"127.0.0.1", daemon.port()}, 2000);
  ASSERT_GE(fd, 0);
  net::sweep_request request;
  request.version = net::kNetVersion + 1;
  request.artifact_size = 1;
  request.count = 1;
  const auto payload = net::encode_sweep_request(request);
  net::send_frame(fd, payload.data(), payload.size(), 2000);
  const auto reply = net::recv_frame(fd, net::kMaxControlPayload, 2000);
  ASSERT_GE(reply.size(), 1u);
  EXPECT_EQ(reply[0], static_cast<std::uint8_t>(net::msg_type::err));
  const std::string message(reply.begin() + 1, reply.end());
  EXPECT_NE(message.find("version skew"), std::string::npos) << message;
  close(fd);
}

TEST_F(RemoteSweep, ArtifactChecksumMismatchIsRejectedLoudly) {
  const service_process daemon(service_options{});
  const int fd = net::dial({"127.0.0.1", daemon.port()}, 2000);
  ASSERT_GE(fd, 0);
  net::sweep_request request;
  request.artifact_checksum = 0xdeadbeef;  // not the checksum of the bytes
  request.artifact_size = 4;
  request.seed = 41;
  request.trials = 4;
  request.count = 4;
  const auto payload = net::encode_sweep_request(request);
  net::send_frame(fd, payload.data(), payload.size(), 2000);
  auto reply = net::recv_frame(fd, net::kMaxControlPayload, 2000);
  ASSERT_EQ(reply.size(), 1u);
  ASSERT_EQ(reply[0], static_cast<std::uint8_t>(net::msg_type::need_artifact));
  const std::vector<std::uint8_t> ship = {
      static_cast<std::uint8_t>(net::msg_type::artifact_data), 1, 2, 3, 4};
  net::send_frame(fd, ship.data(), ship.size(), 2000);
  reply = net::recv_frame(fd, net::kMaxControlPayload, 2000);
  ASSERT_GE(reply.size(), 1u);
  EXPECT_EQ(reply[0], static_cast<std::uint8_t>(net::msg_type::err));
  const std::string message(reply.begin() + 1, reply.end());
  EXPECT_NE(message.find("checksum mismatch"), std::string::npos) << message;
  close(fd);
}

// popsimd opens well-mixed artifacts through the same opener as a worker,
// and every served trial must equal the local sweep's.  The third sweep's
// reachable space (2,049 states) exceeds the closure budget, so its
// artifact carries no TABL and every served trial compiles its own table
// from the protocol the daemon's cached sweep must own.
TEST(RemoteWellmixedSweep, MatchesTheLocalSweepPerTrial) {
  const service_process daemon(service_options{});
  const auto check = [&]<typename P>(const P& proto, std::uint64_t n,
                                     const protocol_desc& desc,
                                     std::uint64_t max_steps, bool closes) {
    const wellmixed_sweep<P> sweep(proto, n);
    ASSERT_EQ(sweep.shared(), closes);
    const std::string path = testing::TempDir() + "/net_wellmixed.ppaf";
    save_artifact(make_wellmixed_artifact(sweep, "clique", desc), path);
    worker_manifest manifest;
    manifest.artifact_path = path;
    manifest.seed = 43;
    manifest.trials = 4;
    manifest.max_steps = max_steps;
    const auto got = net::supervised_remote_sweep(
        {net::host_addr{"127.0.0.1", daemon.port()}}, 2, manifest, {});
    std::remove(path.c_str());
    sim_options options;
    options.max_steps = max_steps;
    const rng seed_gen = rng(manifest.seed).fork(2);
    ASSERT_EQ(got.size(), manifest.trials);
    for (std::uint64_t t = 0; t < manifest.trials; ++t) {
      const election_result want = sweep.run(seed_gen.fork(t), options);
      EXPECT_EQ(got[t].steps, want.steps) << "n=" << n << " trial " << t;
      EXPECT_EQ(got[t].leader, want.leader) << "n=" << n << " trial " << t;
      EXPECT_EQ(got[t].stabilized, want.stabilized) << "n=" << n << " trial " << t;
    }
  };
  const fast_protocol fast(fast_params::practical_clique(300));
  check(fast, 300, fast_desc(fast.params()), UINT64_MAX, true);
  const beauquier_protocol six(500);
  check(six, 500, six_desc(500), UINT64_MAX, true);
  const fast_protocol wide(fast_params{8, 60, 240});
  check(wide, 300, fast_desc(wide.params()), 1'000'000, false);
}

}  // namespace
}  // namespace pp::fleet
