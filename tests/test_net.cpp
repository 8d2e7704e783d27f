// Socket transport + resident daemon (src/fleet/net.h, src/fleet/service.h):
// strict host parsing, handshake encode/decode, and the end-to-end contract
// a distributed sweep lives by — a loopback popsimd serves chunks whose
// merged results are byte-identical to the serial sweep, through every
// network fault kind, cache state and rejection path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/fast_election.h"
#include "dynamics/epidemic.h"
#include "fleet/artifact.h"
#include "fleet/fault.h"
#include "fleet/journal.h"
#include "fleet/net.h"
#include "fleet/service.h"
#include "fleet/supervisor.h"
#include "fleet/sweep.h"
#include "graph/generators.h"
#include "obs/metrics.h"

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

// ---------------------------------------------------------------------------
// End-to-end sweeps against a loopback popsimd.  One shared fixture builds a
// real compiled-engine artifact; each test talks to its own daemon so cache
// state never leaks between them.

class RemoteSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    g_.emplace(make_cycle(200));
    const graph& g = *g_;  // the runner borrows the graph for its lifetime
    const fast_protocol proto(fast_params::practical(
        g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value));
    runner_.emplace(proto, g);
    artifact_path_ = testing::TempDir() + "/net_sweep.ppaf";
    save_artifact(
        make_tuned_artifact(*runner_, g, "cycle", fast_desc(proto.params())),
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

TEST_F(RemoteSweep, RecoversFromConnectionFaultsByteIdentically) {
  // drop severs the socket with an RST mid-stream, torn leaves half a frame,
  // garbage delivers a well-framed record whose checksum cannot match.  In
  // every case the replacement connection re-runs the slot's remaining
  // trials and the merged sweep is indistinguishable from an unfaulted one.
  for (const fault_kind kind :
       {fault_kind::drop, fault_kind::torn, fault_kind::garbage}) {
    const service_process daemon(service_options{});
    obs::metrics_registry metrics;
    supervise_options options;
    options.faults = {{kind, 0, 1}};
    options.metrics = &metrics;
    const auto results = net::supervised_remote_sweep(
        loopback(daemon.port(), 1), 2, manifest_, options);
    expect_serial(results);
    EXPECT_GE(metrics.counter("fleet.net.reconnects"), 1u)
        << to_string(fault_spec{kind, 0, 1});
    EXPECT_EQ(metrics.counter("fleet.records_received"), manifest_.trials);
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

}  // namespace
}  // namespace pp::fleet
