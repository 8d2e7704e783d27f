// Fleet sweeps (src/fleet/sweep.h, supervisor.h): seed-partition
// determinism — a supervised fleet sweep's merged results are byte-identical
// to the serial sweep — plus the record/manifest protocol, worker-failure
// propagation, and the crash-recovery matrix of the supervisor (fault
// injection, journaled resume, retry-budget degradation).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <typeinfo>
#include <vector>

#include "analysis/experiment.h"
#include "core/fast_election.h"
#include "core/star_protocol.h"
#include "dynamics/epidemic.h"
#include "fleet/artifact.h"
#include "fleet/fault.h"
#include "fleet/journal.h"
#include "fleet/supervisor.h"
#include "fleet/sweep.h"
#include "fleet/wire.h"
#include "graph/generators.h"
#include "mutation.h"

namespace pp::fleet {
namespace {

void expect_same_summary(const election_summary& a, const election_summary& b) {
  EXPECT_EQ(a.stabilized_fraction, b.stabilized_fraction);
  EXPECT_EQ(a.max_states_used, b.max_states_used);
  EXPECT_EQ(a.steps.count, b.steps.count);
  EXPECT_EQ(a.steps.mean, b.steps.mean);
  EXPECT_EQ(a.steps.stddev, b.steps.stddev);
  EXPECT_EQ(a.steps.median, b.steps.median);
  EXPECT_EQ(a.steps.q10, b.steps.q10);
  EXPECT_EQ(a.steps.q90, b.steps.q90);
  EXPECT_EQ(a.steps.min, b.steps.min);
  EXPECT_EQ(a.steps.max, b.steps.max);
  EXPECT_EQ(a.sample_leader, b.sample_leader);
}

// The serial reference every fleet result is compared against: trial t runs
// fn(t, seed_gen.fork(t)) in this process.
std::vector<election_result> serial_sweep(std::uint64_t trials,
                                          const rng& seed_gen,
                                          const trial_fn& fn) {
  std::vector<election_result> results(trials);
  for (std::uint64_t t = 0; t < trials; ++t) results[t] = fn(t, seed_gen.fork(t));
  return results;
}

TEST(Records, RoundTripThroughAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  trial_record out;
  out.trial = 42;
  out.result.stabilized = true;
  out.result.steps = 123456789;
  out.result.leader = 7;
  out.result.distinct_states_used = 99;
  write_trial_record(fds[1], out);
  trial_record empty;
  empty.trial = 3;
  empty.result = {};
  write_trial_record(fds[1], empty);
  close(fds[1]);

  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  close(fds[0]);
  // Decode the way the supervisor's buffered reader does.
  std::vector<trial_record> in;
  std::size_t off = 0;
  wire::frame_view frame;
  while (wire::decode_frame(bytes.data() + off, bytes.size() - off,
                            {kTrialRecordPayload, kTrialRecordPayload},
                            frame) == wire::decode_status::ok) {
    in.push_back(decode_trial_record(frame.payload));
    off += frame.frame_bytes;
  }
  EXPECT_EQ(off, bytes.size());  // no undecodable tail
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].trial, out.trial);
  EXPECT_EQ(in[0].result.stabilized, out.result.stabilized);
  EXPECT_EQ(in[0].result.steps, out.result.steps);
  EXPECT_EQ(in[0].result.leader, out.result.leader);
  EXPECT_EQ(in[0].result.distinct_states_used, out.result.distinct_states_used);
  EXPECT_EQ(in[1].trial, 3u);
  EXPECT_FALSE(in[1].result.stabilized);
}

// The core determinism contract on the per-interaction tuned engine: for
// every worker count, fleet results == serial results, trial for trial.
TEST(FleetRun, TunedSweepIsByteIdenticalToSerial) {
  const graph g = make_cycle(300);
  const fast_protocol proto(fast_params::practical(
      g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value));
  const tuned_runner<fast_protocol> runner(proto, g);
  const int trials = 17;  // not a multiple of any job count: ragged blocks

  const auto serial =
      measure_election_sweep(runner, trials, rng(7).fork(2));
  // The sample leader is trial 0's, at every worker count.
  EXPECT_GE(serial.sample_leader, 0);
  EXPECT_EQ(serial.sample_leader, runner.run(rng(7).fork(2).fork(0)).leader);
  for (const int jobs : {2, 3, 4}) {
    const auto fleet =
        measure_election_fleet(runner, trials, rng(7).fork(2), {}, jobs);
    expect_same_summary(fleet, serial);
  }
}

// The same contract on the edge-census engine: star sweeps shard like fast
// ones — trial t keeps seed_gen.fork(t), so fleet == serial byte for byte.
TEST(FleetRun, StarTunedSweepIsByteIdenticalToSerial) {
  const graph g = make_cycle(240);
  const star_protocol proto;
  const tuned_runner<star_protocol> runner(proto, g);
  const sim_options options{.max_steps = 50000};
  const int trials = 17;

  const auto serial =
      measure_election_sweep(runner, trials, rng(9).fork(2), options);
  for (const int jobs : {2, 3, 4}) {
    const auto fleet =
        measure_election_fleet(runner, trials, rng(9).fork(2), options, jobs);
    expect_same_summary(fleet, serial);
  }
}

// Per-trial (not just summary-level) equality, including leaders.
TEST(FleetRun, MergesPerTrialResultsByIndex) {
  const graph g = make_cycle(200);
  const fast_protocol proto(fast_params::practical(
      g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value));
  const tuned_runner<fast_protocol> runner(proto, g);
  const rng seed_gen = rng(11).fork(2);
  const trial_fn fn = [&](std::uint64_t, rng gen) { return runner.run(gen); };

  const auto serial = serial_sweep(12, seed_gen, fn);
  const auto fleet = supervised_fleet_run(12, seed_gen, fn, 5, {});
  ASSERT_EQ(serial.size(), fleet.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(serial[t].steps, fleet[t].steps) << "trial " << t;
    EXPECT_EQ(serial[t].leader, fleet[t].leader) << "trial " << t;
    EXPECT_EQ(serial[t].stabilized, fleet[t].stabilized) << "trial " << t;
  }
}

// Well-mixed engine: deterministic per (seed, batch), so the fleet merge is
// byte-identical too — which subsumes the 3σ statistical agreement the
// acceptance contract asks for.
TEST(FleetRun, WellmixedSweepIsByteIdenticalToSerial) {
  const std::uint64_t n = 4000;
  const fast_protocol proto(fast_params::practical_clique(n));
  const int trials = 10;

  const auto serial =
      measure_election_wellmixed(proto, n, trials, rng(5).fork(2));
  // The 3σ gate of the acceptance criteria, kept explicit in case the
  // byte-identity below is ever intentionally relaxed.
  const double se = serial.steps.stddev / std::sqrt(static_cast<double>(trials));
  const wellmixed_sweep<fast_protocol> sweep(proto, n);
  for (const int jobs : {2, 3, 4}) {
    const auto fleet =
        measure_election_fleet(sweep, trials, rng(5).fork(2), {}, jobs);
    expect_same_summary(fleet, serial);
    EXPECT_LE(std::fabs(fleet.steps.mean - serial.steps.mean),
              3.0 * std::max(se, 1e-9));
  }
}

// A trial that always throws kills its worker on every respawn; once the
// retry budget is spent the supervisor runs it inline, and the trial's own
// exception reaches the caller.
TEST(FleetRun, WorkerFailurePropagates) {
  const trial_fn fn = [](std::uint64_t t, rng) -> election_result {
    if (t >= 2) throw std::runtime_error("injected trial failure");
    return {};
  };
  EXPECT_THROW(supervised_fleet_run(4, rng(1), fn, 2, {}), std::runtime_error);
}

TEST(FleetRun, MoreJobsThanTrialsIsCapped) {
  const trial_fn fn = [](std::uint64_t t, rng) {
    election_result r;
    r.stabilized = true;
    r.steps = t;
    return r;
  };
  const auto results = supervised_fleet_run(3, rng(1), fn, 8, {});
  ASSERT_EQ(results.size(), 3u);
  for (std::uint64_t t = 0; t < 3; ++t) EXPECT_EQ(results[t].steps, t);
}

TEST(Manifest, RoundTripsThroughDisk) {
  worker_manifest m;
  m.artifact_path = "/tmp/some artifact.ppaf";
  m.seed = 0xdeadbeefcafeull;
  m.trials = 48;
  m.jobs = 4;
  m.max_steps = 123456789;
  m.wellmixed_batch = 77;
  m.scheduler = scheduler_kind::silent;
  const std::string path = testing::TempDir() + "/fleet_manifest.txt";
  write_manifest(m, path);
  EXPECT_EQ(read_manifest(path), m);
  std::remove(path.c_str());

  EXPECT_THROW(read_manifest("/nonexistent/fleet/manifest"), std::invalid_argument);
  // A non-manifest file is rejected, not misparsed.
  const std::string junk = testing::TempDir() + "/fleet_junk.txt";
  std::FILE* f = std::fopen(junk.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a manifest\n", f);
  std::fclose(f);
  EXPECT_THROW(read_manifest(junk), std::invalid_argument);
  // So is a file past the 64 KiB cap, however well-formed its lines.
  worker_manifest huge = m;
  huge.artifact_path = std::string(70'000, 'p');
  write_manifest(huge, junk);
  EXPECT_THROW(read_manifest(junk), std::invalid_argument);
  std::remove(junk.c_str());
}

TEST(Manifest, OutOfRangeValuesAreRejectedNotWrapped) {
  // Manifests are hand-editable: trials=-1 must not strtoull-wrap to a
  // 2^64-trial worker loop, and trials past the CLI bound is rejected too.
  for (const char* bad : {"trials=-1", "trials=0", "trials=1000001",
                          "seed=-5", "jobs=-2"}) {
    const std::string path = testing::TempDir() + "/fleet_bad_manifest.txt";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "ppfleet-manifest v1\nartifact=/tmp/x.ppaf\n%s\n", bad);
    std::fclose(f);
    EXPECT_THROW(read_manifest(path), std::invalid_argument) << bad;
    std::remove(path.c_str());
  }
}

namespace {

std::string read_file(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

}  // namespace

// The artifact line of these manifests is 4096-4105 bytes with its newline,
// so it straddles any 4 KiB line buffer: the path must come back whole.
TEST(Manifest, LongArtifactPathsRoundTripExactly) {
  const std::string path = testing::TempDir() + "/fleet_long_manifest.txt";
  for (std::size_t length = 4086; length <= 4095; ++length) {
    worker_manifest m;
    m.artifact_path = std::string(length, 'p');
    m.seed = 5;
    m.trials = 3;
    write_manifest(m, path);
    const worker_manifest r = read_manifest(path);
    EXPECT_EQ(r.artifact_path.size(), length);
    EXPECT_EQ(r, m) << length << "-byte path";
  }
  std::remove(path.c_str());
}

// Seeded corruption of a valid manifest: every bit flip, byte overwrite,
// truncation and line splice must either be rejected with
// std::invalid_argument or parse to a manifest that survives another
// write -> read unchanged — never a crash, another exception type, or a
// value the writer cannot reproduce (such as a path with a NUL in it).
TEST(Manifest, SeededMutationsAreRejectedOrRoundTrip) {
  worker_manifest m;
  m.artifact_path = "/tmp/mutated artifact.ppaf";
  m.seed = 0x1234abcdull;
  m.trials = 48;
  m.jobs = 3;
  m.max_steps = 987654321;
  m.wellmixed_batch = 16;
  m.scheduler = scheduler_kind::silent;
  const std::string valid_path = testing::TempDir() + "/fleet_valid_manifest.txt";
  const std::string path = testing::TempDir() + "/fleet_mutated_manifest.txt";
  const std::string again = testing::TempDir() + "/fleet_rewritten_manifest.txt";
  write_manifest(m, valid_path);
  const std::string valid = read_file(valid_path);
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < valid.size();) {
    const std::size_t end = valid.find('\n', start);
    lines.push_back(valid.substr(start, end + 1 - start));
    start = end + 1;
  }

  rng gen(2024);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string bytes = mutation::mutated(lines, i, gen);
    write_file(path, bytes);
    worker_manifest parsed;
    try {
      parsed = read_manifest(path);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    write_manifest(parsed, again);
    EXPECT_EQ(read_manifest(again), parsed) << "mutation " << i;
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  std::remove(valid_path.c_str());
  std::remove(path.c_str());
  std::remove(again.c_str());
}

// ---------------------------------------------------------------------------
// Fault specs (fleet/fault.h)

TEST(FaultSpec, ParsesAndRoundTrips) {
  const struct {
    const char* text;
    fault_spec want;
  } valid[] = {
      {"exit:w0", {fault_kind::exit, 0, 0}},
      {"sigkill:w3:after=7", {fault_kind::sigkill, 3, 7}},
      {"stall:w12:after=0", {fault_kind::stall, 12, 0}},
      {"torn:w1:after=2", {fault_kind::torn, 1, 2}},
  };
  for (const auto& row : valid) {
    fault_spec got;
    ASSERT_TRUE(parse_fault_spec(row.text, got)) << row.text;
    EXPECT_EQ(got, row.want) << row.text;
    fault_spec round;
    ASSERT_TRUE(parse_fault_spec(to_string(got), round)) << row.text;
    EXPECT_EQ(round, got) << row.text;
  }

  std::vector<fault_spec> list;
  ASSERT_TRUE(parse_fault_specs("exit:w0:after=1,sigkill:w1", list));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], (fault_spec{fault_kind::exit, 0, 1}));
  EXPECT_EQ(list[1], (fault_spec{fault_kind::sigkill, 1, 0}));
  fault_spec round_list;  // list round trip
  std::vector<fault_spec> list2;
  ASSERT_TRUE(parse_fault_specs(to_string(list), list2));
  EXPECT_EQ(list2, list);
  (void)round_list;
}

TEST(FaultSpec, MalformedSpecsAreRejected) {
  const char* invalid[] = {
      "",                  // empty
      "exit",              // no worker
      "vanish:w0",         // unknown kind
      "exit:0",            // worker without the w prefix
      "exit:w",            // w without a slot number
      "exit:wx",           // non-numeric slot
      "exit:w-1",          // negative slot
      "exit:w0:after",     // after without a value
      "exit:w0:afterx=3",  // misspelled key
      "exit:w0:after=",    // empty count
      "exit:w0:after=2x",  // trailing garbage in the count
      "exit:w0,",          // trailing comma in a list
      ",exit:w0",          // leading comma in a list
  };
  for (const char* text : invalid) {
    fault_spec spec;
    std::vector<fault_spec> list;
    EXPECT_FALSE(parse_fault_spec(text, spec)) << text;
    EXPECT_FALSE(parse_fault_specs(text, list)) << text;
  }
}

// ---------------------------------------------------------------------------
// Journal (fleet/journal.h)

namespace {

constexpr std::size_t kTestHeaderBytes = 32;
constexpr std::size_t kTestRecordBytes = 4 + kTrialRecordPayload + 8;

trial_record synthetic_record(std::uint64_t t) {
  trial_record r;
  r.trial = t;
  r.result.stabilized = true;
  r.result.steps = 1000 + 17 * t;
  r.result.leader = static_cast<node_id>(t % 13);
  r.result.distinct_states_used = 4;
  return r;
}

std::string write_test_journal(const journal_header& header,
                               std::uint64_t records, const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  journal_writer writer(path, header, /*resume=*/false);
  for (std::uint64_t t = 0; t < records; ++t) writer.append(synthetic_record(t));
  return path;
}

void flip_byte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
}

}  // namespace

TEST(Journal, WriteReplayRoundTrip) {
  const journal_header header{42, 10};
  const std::string path = write_test_journal(header, 6, "journal_rt.ppaj");
  const journal_replay replay = replay_journal(path);
  EXPECT_EQ(replay.header, header);
  EXPECT_EQ(replay.corrupt_records, 0u);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 6u);
  for (std::uint64_t t = 0; t < 6; ++t) {
    const trial_record want = synthetic_record(t);
    EXPECT_EQ(replay.records[t].trial, want.trial);
    EXPECT_EQ(replay.records[t].result.steps, want.result.steps);
    EXPECT_EQ(replay.records[t].result.leader, want.result.leader);
  }
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsToleratedAndTruncatedOnResume) {
  const journal_header header{7, 10};
  const std::string path = write_test_journal(header, 4, "journal_torn.ppaj");
  {
    // Simulate a writer killed mid-record: a plausible length field and half
    // a payload dangling at the end of the file.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint32_t length = kTrialRecordPayload;
    std::fwrite(&length, sizeof(length), 1, f);
    const std::uint8_t half[kTrialRecordPayload / 2] = {};
    std::fwrite(half, sizeof(half), 1, f);
    std::fclose(f);
  }
  const journal_replay torn = replay_journal(path);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.records.size(), 4u);  // everything before the tear survives
  EXPECT_EQ(torn.durable_bytes, kTestHeaderBytes + 4 * kTestRecordBytes);

  // Resuming truncates the tear so the appended record stays well-framed.
  {
    journal_writer writer(path, header, /*resume=*/true);
    writer.append(synthetic_record(4));
  }
  const journal_replay mended = replay_journal(path);
  EXPECT_FALSE(mended.torn_tail);
  EXPECT_EQ(mended.corrupt_records, 0u);
  ASSERT_EQ(mended.records.size(), 5u);
  EXPECT_EQ(mended.records[4].trial, 4u);
  std::remove(path.c_str());
}

TEST(Journal, CorruptRecordIsSkippedAndFramingSurvives) {
  const journal_header header{9, 10};
  const std::string path = write_test_journal(header, 5, "journal_rot.ppaj");
  // Flip a byte inside record 2's payload: its checksum fails, but the
  // fixed-size framing lets replay pick up record 3 cleanly.
  flip_byte(path, static_cast<long>(kTestHeaderBytes + 2 * kTestRecordBytes + 4 + 9));
  const journal_replay replay = replay_journal(path);
  EXPECT_EQ(replay.corrupt_records, 1u);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.records[0].trial, 0u);
  EXPECT_EQ(replay.records[1].trial, 1u);
  EXPECT_EQ(replay.records[2].trial, 3u);  // record 2 dropped
  EXPECT_EQ(replay.records[3].trial, 4u);
  std::remove(path.c_str());
}

TEST(Journal, NonJournalFilesAndHeaderMismatchesAreRejected) {
  EXPECT_THROW(replay_journal("/nonexistent/sweep.ppaj"), std::invalid_argument);
  const std::string junk = testing::TempDir() + "/journal_junk.ppaj";
  std::FILE* f = std::fopen(junk.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a journal, but with enough bytes to parse", f);
  std::fclose(f);
  EXPECT_THROW(replay_journal(junk), std::invalid_argument);
  std::remove(junk.c_str());

  // Resuming against a journal written for a different sweep fails loudly.
  const std::string path =
      write_test_journal(journal_header{5, 10}, 3, "journal_other.ppaj");
  EXPECT_THROW(journal_writer(path, journal_header{6, 10}, /*resume=*/true),
               std::invalid_argument);
  EXPECT_THROW(journal_writer(path, journal_header{5, 11}, /*resume=*/true),
               std::invalid_argument);
  std::remove(path.c_str());
}

// Every fleet byte stream writes through one write_all: a failed write
// throws std::logic_error naming the stream and errno, for the journal's
// header as for its appends and a worker's records.
TEST(Journal, FailedWritesThrowTheOneWriteError) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  try {
    journal_writer writer("/dev/full", journal_header{5, 10}, /*resume=*/false);
    ADD_FAILURE() << "a journal header write to /dev/full returned";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(typeid(e), typeid(std::logic_error));
    EXPECT_EQ(std::string(e.what()),
              std::string("journal: header write failed for /dev/full: ") +
                  std::strerror(ENOSPC));
  }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  const auto old = std::signal(SIGPIPE, SIG_IGN);
  try {
    write_trial_record(fds[1], {0, election_result{}});
    ADD_FAILURE() << "a record write to a closed pipe returned";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(typeid(e), typeid(std::logic_error));
    EXPECT_EQ(std::string(e.what()),
              std::string("fleet: pipe write failed: ") + std::strerror(EPIPE));
  }
  std::signal(SIGPIPE, old);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Supervisor (fleet/supervisor.h): the full recovery matrix.  Every test
// compares against the plain serial sweep — recovery is only correct if the
// merged results are byte-identical to a run where nothing ever failed.

namespace {

election_result synthetic_trial(std::uint64_t t, rng gen) {
  election_result r;
  r.stabilized = true;
  r.steps = 1000 + gen.uniform_below(1'000'000);
  r.leader = static_cast<node_id>(t % 11);
  r.distinct_states_used = 4;
  return r;
}

void expect_same_results(const std::vector<election_result>& a,
                         const std::vector<election_result>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].steps, b[t].steps) << "trial " << t;
    EXPECT_EQ(a[t].leader, b[t].leader) << "trial " << t;
    EXPECT_EQ(a[t].stabilized, b[t].stabilized) << "trial " << t;
  }
}

}  // namespace

TEST(Supervisor, CleanSweepMatchesSerial) {
  const rng seed_gen = rng(31).fork(2);
  const auto serial = serial_sweep(17, seed_gen, synthetic_trial);
  const auto supervised =
      supervised_fleet_run(17, seed_gen, synthetic_trial, 3, {});
  expect_same_results(serial, supervised);
}

TEST(Supervisor, RecoversFromEveryFaultKindByteIdentically) {
  const rng seed_gen = rng(33).fork(2);
  const auto serial = serial_sweep(17, seed_gen, synthetic_trial);

  // drop and garbage are socket-first faults (fleet/net.h) but must recover
  // on pipes too: drop degrades to an early EOF, garbage to a checksum-
  // rejected frame — both kill the worker's remaining chunk, never a trial.
  for (const fault_kind kind :
       {fault_kind::exit, fault_kind::sigkill, fault_kind::torn,
        fault_kind::drop, fault_kind::garbage}) {
    supervise_options options;
    options.faults = {{kind, 1, 1}};  // slot 1 dies after one record
    const auto recovered =
        supervised_fleet_run(17, seed_gen, synthetic_trial, 3, options);
    expect_same_results(serial, recovered);
  }

  // A stalled worker writes nothing and never exits: only the inactivity
  // timeout can reclaim its trials.
  supervise_options options;
  options.faults = {{fault_kind::stall, 0, 2}};
  options.worker_timeout_ms = 250;
  const auto recovered =
      supervised_fleet_run(17, seed_gen, synthetic_trial, 3, options);
  expect_same_results(serial, recovered);
}

TEST(Supervisor, JournalsEveryTrialAndResumeSkipsCompletedOnes) {
  const rng seed_gen = rng(35).fork(2);
  const std::uint64_t trials = 15;
  const auto serial = serial_sweep(trials, seed_gen, synthetic_trial);
  const std::string path = testing::TempDir() + "/supervisor_resume.ppaj";

  // Journal only the first 9 trials, as if the sweep was killed there.
  {
    journal_writer writer(path, journal_header{35, trials}, /*resume=*/false);
    for (std::uint64_t t = 0; t < 9; ++t) writer.append({t, serial[t]});
  }

  // The resumed sweep must only run the gap: a re-run of any completed trial
  // would produce poisoned results and break the equality below.
  const trial_fn gap_only = [&](std::uint64_t t, rng gen) {
    if (t < 9) {
      election_result poisoned;
      poisoned.steps = 999'999'999;
      return poisoned;
    }
    return synthetic_trial(t, gen);
  };
  supervise_options options;
  options.journal_path = path;
  options.resume = true;
  options.journal_tag = 35;
  const auto resumed =
      supervised_fleet_run(trials, seed_gen, gap_only, 2, options);
  expect_same_results(serial, resumed);

  // After the resumed run the journal holds every trial.
  const journal_replay replay = replay_journal(path);
  std::vector<bool> seen(trials, false);
  for (const trial_record& r : replay.records) seen[r.trial] = true;
  for (std::uint64_t t = 0; t < trials; ++t) EXPECT_TRUE(seen[t]) << t;
  std::remove(path.c_str());
}

TEST(Supervisor, CorruptedJournalRecordReRunsThatTrial) {
  const rng seed_gen = rng(37).fork(2);
  const std::uint64_t trials = 12;
  const auto serial = serial_sweep(trials, seed_gen, synthetic_trial);
  const std::string path = testing::TempDir() + "/supervisor_rot.ppaj";
  {
    journal_writer writer(path, journal_header{37, trials}, /*resume=*/false);
    for (std::uint64_t t = 0; t < trials; ++t) writer.append({t, serial[t]});
  }
  // Rot one byte of record 5: the resumed sweep must reject it and re-run
  // exactly that trial.
  flip_byte(path, static_cast<long>(kTestHeaderBytes + 5 * kTestRecordBytes + 8));
  supervise_options options;
  options.journal_path = path;
  options.resume = true;
  options.journal_tag = 37;
  const auto resumed =
      supervised_fleet_run(trials, seed_gen, synthetic_trial, 2, options);
  expect_same_results(serial, resumed);
  std::remove(path.c_str());
}

TEST(Supervisor, ExhaustedRetryBudgetDegradesToInlineAndCompletes) {
  const rng seed_gen = rng(39).fork(2);
  const auto serial = serial_sweep(14, seed_gen, synthetic_trial);
  supervise_options options;
  options.max_retries = 0;  // the first failure exhausts the budget
  options.faults = {{fault_kind::sigkill, 0, 1}};
  const auto degraded =
      supervised_fleet_run(14, seed_gen, synthetic_trial, 3, options);
  expect_same_results(serial, degraded);
}

TEST(Supervisor, RespawnedWorkersRunCleanSoOneSpecIsOneFailure) {
  // With a nonzero retry budget and a fault on every slot, every slot fails
  // once, respawns clean, and the sweep still completes without degrading.
  const rng seed_gen = rng(41).fork(2);
  const auto serial = serial_sweep(13, seed_gen, synthetic_trial);
  supervise_options options;
  options.max_retries = 2;
  options.faults = {{fault_kind::exit, 0, 0}, {fault_kind::sigkill, 1, 2}};
  const auto recovered =
      supervised_fleet_run(13, seed_gen, synthetic_trial, 2, options);
  expect_same_results(serial, recovered);
}

TEST(Supervisor, InvalidOptionsAreRejected) {
  // A fault spec naming a slot beyond the fleet would never fire.
  supervise_options beyond;
  beyond.faults = {{fault_kind::exit, 5, 0}};
  EXPECT_THROW(supervised_fleet_run(4, rng(1), synthetic_trial, 2, beyond),
               std::invalid_argument);
  // Resume without a journal path has nothing to replay.
  supervise_options no_path;
  no_path.resume = true;
  EXPECT_THROW(supervised_fleet_run(4, rng(1), synthetic_trial, 2, no_path),
               std::invalid_argument);
  // Resume against a journal with a different sweep identity.
  const std::string path =
      write_test_journal(journal_header{1, 4}, 2, "supervisor_mismatch.ppaj");
  supervise_options mismatched;
  mismatched.journal_path = path;
  mismatched.resume = true;
  mismatched.journal_tag = 2;
  EXPECT_THROW(supervised_fleet_run(4, rng(1), synthetic_trial, 2, mismatched),
               std::invalid_argument);
  std::remove(path.c_str());
}

#ifdef PP_POPSIM_CLI

// End-to-end exec-mode sweep: save a real artifact, write a manifest, spawn
// `popsim --worker` subprocesses under the supervisor, and compare the
// merged records to the serial sweep — the same protocol CI's
// fleet-determinism step drives through the CLI.
TEST(SpawnWorkers, CliWorkersMatchSerialSweep) {
  const graph g = make_cycle(300);
  const fast_protocol proto(fast_params::practical(
      g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value));
  const tuned_runner<fast_protocol> runner(proto, g);

  const std::string artifact_path = testing::TempDir() + "/fleet_sweep.ppaf";
  save_artifact(make_tuned_artifact(runner, g, "cycle", fast_desc(proto.params())),
                artifact_path);

  worker_manifest m;
  m.artifact_path = artifact_path;
  m.seed = 21;
  m.trials = 14;
  m.jobs = 3;
  const std::string manifest_path = testing::TempDir() + "/fleet_sweep.manifest";
  write_manifest(m, manifest_path);

  const auto fleet = supervised_spawn_sweep(PP_POPSIM_CLI, manifest_path, m, {});
  const auto serial = serial_sweep(
      m.trials, rng(m.seed).fork(2),
      [&](std::uint64_t, rng gen) { return runner.run(gen); });
  expect_same_results(serial, fleet);

  // The worker takes only the supervisor's explicit BASE COUNT form: a bare
  // `--worker MANIFEST INDEX` is a usage error that runs nothing and leaves
  // stdout (the record stream) empty.
  const std::string stdout_path = testing::TempDir() + "/fleet_worker_stdout";
  const int status = std::system((std::string(PP_POPSIM_CLI) + " --worker " +
                                  manifest_path + " 0 > " + stdout_path +
                                  " 2>/dev/null")
                                     .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_EQ(read_file(stdout_path), "");
  std::remove(stdout_path.c_str());
  std::remove(artifact_path.c_str());
  std::remove(manifest_path.c_str());
}

// Supervised exec-mode sweep: a `popsim --worker` subprocess is SIGKILLed by
// an injected fault, the supervisor respawns it with the remaining chunk,
// and the merged records still match the serial sweep exactly.
TEST(SpawnWorkers, SupervisedCliWorkersRecoverFromSigkill) {
  const graph g = make_cycle(300);
  const fast_protocol proto(fast_params::practical(
      g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value));
  const tuned_runner<fast_protocol> runner(proto, g);

  const std::string artifact_path = testing::TempDir() + "/fleet_sup.ppaf";
  save_artifact(make_tuned_artifact(runner, g, "cycle", fast_desc(proto.params())),
                artifact_path);

  worker_manifest m;
  m.artifact_path = artifact_path;
  m.seed = 23;
  m.trials = 13;
  m.jobs = 3;
  const std::string manifest_path = testing::TempDir() + "/fleet_sup.manifest";
  write_manifest(m, manifest_path);

  supervise_options options;
  options.faults = {{fault_kind::sigkill, 1, 1}};
  const auto fleet =
      supervised_spawn_sweep(PP_POPSIM_CLI, manifest_path, m, options);
  const auto serial = serial_sweep(
      m.trials, rng(m.seed).fork(2),
      [&](std::uint64_t, rng gen) { return runner.run(gen); });
  expect_same_results(serial, fleet);
  std::remove(artifact_path.c_str());
  std::remove(manifest_path.c_str());
}

// Every launch fails, the retry budget runs out, and with no inline fallback
// the sweep throws instead of returning partial results.
TEST(SpawnWorkers, MissingWorkerBinaryFailsLoudly) {
  worker_manifest m;
  m.artifact_path = "/nonexistent.ppaf";
  m.trials = 2;
  m.jobs = 1;
  EXPECT_THROW(supervised_spawn_sweep("/nonexistent/popsim",
                                      "/nonexistent/manifest", m, {}),
               std::logic_error);
}

#endif  // PP_POPSIM_CLI

}  // namespace
}  // namespace pp::fleet
