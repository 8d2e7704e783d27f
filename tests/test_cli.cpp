// Regression tests for popsim_cli's exit-code contract: every invalid
// invocation must exit nonzero (CI's fleet-determinism and artifact gates
// pipe the binary and rely on failures being loud), valid fleet invocations
// must reproduce the serial stdout byte for byte, and the printed sample
// leader is the library's trial-0 leader.
//
// These tests exec the real binary (path injected by CMake as
// PP_POPSIM_CLI); they are skipped when the examples are not built.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "analysis/families.h"
#include "core/fast_election.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"

namespace {

#ifdef PP_POPSIM_CLI

// Runs `popsim <args>`, returning {exit code, stdout}.  stderr is routed to
// /dev/null: these tests assert *codes*, the messages are for humans.
struct cli_result {
  int code = -1;
  std::string out;
};

cli_result run_cli(const std::string& args) {
  const std::string command =
      std::string(PP_POPSIM_CLI) + " " + args + " 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  cli_result r;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

// As run_cli, but captures *stderr* (stdout goes to /dev/null): for asserting
// on the supervisor's logger output, e.g. the journal replay summary.
cli_result run_cli_stderr(const std::string& args) {
  const std::string command =
      std::string(PP_POPSIM_CLI) + " " + args + " 2>&1 >/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  cli_result r;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(CliExitCodes, InvalidInvocationsExitNonzero) {
  // Every row is an invalid invocation; a zero exit on any of them would
  // break the CI steps that chain the binary with `&&` and `diff`.
  const char* invalid[] = {
      "",                                        // no arguments
      "clique",                                  // missing n and protocol
      "badfamily 100 fast",                      // unknown family
      "clique 100 badproto",                     // unknown protocol
      "clique 1 fast",                           // n below 2
      "clique 10x fast",                         // trailing garbage in n
      "clique 100 fast --bogus",                 // unknown flag
      "clique 100 fast --trials",                // flag missing its value
      "clique 100 fast --trials 0",              // out-of-range trials
      "clique 100 fast --trials 1e3",            // non-integer trials
      "clique 100 fast --seed -1",               // negative seed
      "clique 100 fast --engine warp",           // unknown engine
      "clique 100 fast --order sideways",        // unknown order
      "clique 100 fast --pack 12",               // unsupported width
      "clique 100 fast --jobs 0",                // out-of-range jobs
      "clique 100 fast --jobs 257",              // out-of-range jobs
      "clique 100 id --jobs 2",                  // fleet needs the engine
      "clique 100 id --save-artifact /tmp/x",    // artifacts need the engine
      "clique 100 id --order bfs",               // tuning needs the engine
      "cycle 100 six --pack 8",                  // tuning needs the engine
      "cycle 100 fast --engine wellmixed",       // wellmixed needs clique
      "clique 100 star --engine wellmixed",      // no multiset star engine
      "clique 100 star --pack 64",               // unsupported width
      "clique 100 six --engine wellmixed --order rcm",  // tuning vs multiset
      "clique 100 fast --load-artifact /nonexistent",   // load + positionals
      "--load-artifact /nonexistent/artifact.ppaf",     // unreadable artifact
      "--trials 5",                              // flag mode without artifact
      "--load-artifact /dev/null",               // not a PPAF file
      "--worker",                                // missing manifest + index
      "--worker /nonexistent/manifest 0 0 1",    // unreadable manifest
      "--worker /dev/null 0 0 1",                // not a manifest
      "--worker /dev/null 0 1",                  // base without count
      "clique 100 fast --journal",               // flag missing its value
      "clique 100 fast --resume",                // --resume without --journal
      "clique 100 id --journal /tmp/x.ppaj",     // journal needs the engine
      "clique 100 fast --retries -1",            // negative retry budget
      "clique 100 fast --retries 1001",          // out-of-range retry budget
      "clique 100 fast --worker-timeout-ms 0",   // zero timeout (use no flag)
      "clique 100 fast --worker-timeout-ms 1e3", // non-integer timeout
      "clique 100 fast --inject-fault",          // flag missing its value
      "clique 100 fast --inject-fault vanish:w0",       // unknown fault kind
      "clique 100 fast --inject-fault exit:0",          // slot without w prefix
      "clique 100 fast --inject-fault exit:w0:after",   // after without value
      "clique 100 fast --inject-fault exit:w0,",        // trailing comma
      "clique 100 fast --jobs 2 --inject-fault exit:w5",  // slot beyond fleet
      "clique 100 fast --metrics",               // flag missing its value
      "clique 100 fast --trace",                 // flag missing its value
      "clique 100 id --metrics /tmp/m.json",     // metrics need the engine
      "clique 100 id --trace /tmp/t.json",       // trace needs the engine
      "clique 100 fast --probe-stride 64",       // stride without a recorder
      "clique 100 fast --probe-stride 0 --metrics /tmp/m.json",  // zero stride
      "clique 100 fast --probe-stride 1e3 --metrics /tmp/m.json",  // non-integer
      "clique 100 fast --log-level",             // flag missing its value
      "clique 100 fast --log-level chatty",      // unknown level
      "clique 100 fast --log-level INFO",        // case-sensitive parse
      "clique 100 fast --hosts",                 // flag missing its value
      "clique 100 fast --hosts localhost",       // host without a port
      "clique 100 fast --hosts localhost:0",     // port 0 is reserved
      "clique 100 fast --hosts localhost:65536", // port beyond 16 bits
      "clique 100 fast --hosts a:1,,b:2",        // empty list element
      "clique 100 fast --hosts a:1, ",           // trailing comma
      "clique 100 fast --hosts a:1 --inject-fault exit:w3",  // slot beyond hosts
      "--serve",                                 // flag missing its value
      "--serve 65536",                           // port beyond 16 bits
      "--serve 1e4",                             // non-integer port
      "--serve 0 --hosts a:1",                   // daemon vs client roles
      "--serve 0 --jobs 2",                      // daemon takes no sweep flags
      "--serve 0 --load-artifact /tmp/x.ppaf",   // sweeps arrive by socket
      "clique 100 fast --serve 0",               // daemon takes no positionals
      "--serve 0 --cache-mb 0",                  // below the 1 MB floor
      "--serve 0 --cache-mb 1048577",            // beyond the 1 TB ceiling
      "--serve 0 --cache-mb 1e2",                // non-integer budget
      "--load-artifact /dev/null --cache-mb 64", // --cache-mb needs --serve
      "clique 100 id --progress",                // progress needs the engine
      "--serve 0 --progress",                    // daemon takes no sweep flags
  };
  for (const char* args : invalid) {
    const cli_result r = run_cli(args);
    EXPECT_GT(r.code, 0) << "popsim " << args
                         << " should exit nonzero but exited " << r.code;
  }
}

TEST(CliExitCodes, ValidRunExitsZero) {
  const cli_result r = run_cli("cycle 64 six --trials 2 --seed 3");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("stabilized"), std::string::npos);
}

TEST(CliExitCodes, StarRunsOnTheTunedEngineWithTuningFlags) {
  // PR 5: protocol star goes through the compiled edge-census engine, so the
  // formerly fast-only tuning flags are now valid star invocations.
  const cli_result plain = run_cli("star 200 star --trials 3 --seed 2");
  EXPECT_EQ(plain.code, 0);
  EXPECT_NE(plain.out.find("engine: order=natural"), std::string::npos);
  EXPECT_NE(plain.out.find("stabilized: 100%"), std::string::npos);

  const cli_result tuned =
      run_cli("star 200 star --trials 3 --seed 2 --order rcm --pack 8");
  EXPECT_EQ(tuned.code, 0);
  EXPECT_NE(tuned.out.find("engine: order=rcm pack=u8"), std::string::npos);
  EXPECT_NE(tuned.out.find("stabilized: 100%"), std::string::npos);
}

// A sweep that needs a closed table (--jobs, the flight recorder,
// --save-artifact, the silent scheduler) over a reachable space past the
// closure budget is refused before anything reaches stdout, with a message
// naming the budget.  cycle 4000 fast is accepted without those flags and
// runs on the lazy table.
TEST(CliExitCodes, UnclosableArtifactSweepIsRefusedBeforeStdout) {
  const std::string dir = testing::TempDir();
  for (const std::string& flag :
       {std::string("--jobs 2"), "--metrics " + dir + "/unclosable_metrics.json",
        "--save-artifact " + dir + "/unclosable.ppaf",
        std::string("--engine silent")}) {
    const std::string args = "cycle 4000 fast --trials 1 --seed 1 " + flag;
    const cli_result r = run_cli(args);
    EXPECT_EQ(r.code, 1) << args;
    EXPECT_EQ(r.out, "") << args;
    const cli_result err = run_cli_stderr(args);
    EXPECT_NE(err.out.find("exceeded the closure budget (2048 states)"), std::string::npos)
        << args << ": " << err.out;
  }
}

// The CLI half of the fleet-determinism gate: a --jobs sweep over a saved
// artifact prints exactly the serial stdout (worker chatter goes to stderr).
TEST(CliFleet, ArtifactSweepStdoutIsIdenticalSerialVsJobs) {
  const std::string dir = testing::TempDir();
  const std::string artifact = dir + "/cli_fleet.ppaf";
  const std::string resaved = dir + "/cli_fleet_resaved.ppaf";

  const cli_result saved =
      run_cli("cycle 400 fast --trials 8 --seed 5 --save-artifact " + artifact);
  ASSERT_EQ(saved.code, 0);

  const std::string sweep_args = "--load-artifact " + artifact + " --trials 8 --seed 5";
  const cli_result serial = run_cli(sweep_args);
  const cli_result fleet = run_cli(sweep_args + " --jobs 3");
  ASSERT_EQ(serial.code, 0);
  ASSERT_EQ(fleet.code, 0);
  EXPECT_EQ(serial.out, fleet.out);
  // The artifact-driven serial sweep also reproduces the classic run.
  EXPECT_EQ(saved.out, serial.out);

  // Round trip: load → re-save must be byte-identical (cmp in CI).
  const cli_result resave = run_cli("--load-artifact " + artifact +
                                    " --trials 1 --save-artifact " + resaved);
  ASSERT_EQ(resave.code, 0);
  std::FILE* a = std::fopen(artifact.c_str(), "rb");
  std::FILE* b = std::fopen(resaved.c_str(), "rb");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::string bytes_a, bytes_b;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), a)) > 0) bytes_a.append(buf.data(), got);
  while ((got = fread(buf.data(), 1, buf.size(), b)) > 0) bytes_b.append(buf.data(), got);
  std::fclose(a);
  std::fclose(b);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(artifact.c_str());
  std::remove(resaved.c_str());
}

// Star sweeps shard like fast ones: the artifact carries the EDGE section
// and the fleet stdout is byte-identical to serial.
TEST(CliFleet, StarArtifactSweepStdoutIsIdenticalSerialVsJobs) {
  const std::string dir = testing::TempDir();
  const std::string artifact = dir + "/cli_star.ppaf";
  const std::string resaved = dir + "/cli_star_resaved.ppaf";

  const cli_result saved =
      run_cli("cycle 300 star --trials 9 --seed 6 --save-artifact " + artifact);
  ASSERT_EQ(saved.code, 0);

  const std::string sweep_args = "--load-artifact " + artifact + " --trials 9 --seed 6";
  const cli_result serial = run_cli(sweep_args);
  const cli_result fleet = run_cli(sweep_args + " --jobs 3");
  ASSERT_EQ(serial.code, 0);
  ASSERT_EQ(fleet.code, 0);
  EXPECT_EQ(serial.out, fleet.out);
  EXPECT_EQ(saved.out, serial.out);

  const cli_result resave = run_cli("--load-artifact " + artifact +
                                    " --trials 1 --save-artifact " + resaved);
  ASSERT_EQ(resave.code, 0);
  std::FILE* a = std::fopen(artifact.c_str(), "rb");
  std::FILE* b = std::fopen(resaved.c_str(), "rb");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::string bytes_a, bytes_b;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), a)) > 0) bytes_a.append(buf.data(), got);
  while ((got = fread(buf.data(), 1, buf.size(), b)) > 0) bytes_b.append(buf.data(), got);
  std::fclose(a);
  std::fclose(b);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(artifact.c_str());
  std::remove(resaved.c_str());
}

// The CLI half of the crash-recovery gate: a sweep with an injected worker
// crash, and a journaled sweep resumed to completion, both print exactly the
// serial stdout (supervisor chatter goes to stderr).
TEST(CliFleet, FaultInjectedAndResumedSweepsMatchSerialStdout) {
  const std::string journal = testing::TempDir() + "/cli_recovery.ppaj";
  std::remove(journal.c_str());
  const std::string base = "cycle 200 fast --trials 8 --seed 5";

  const cli_result serial = run_cli(base);
  ASSERT_EQ(serial.code, 0);

  // A worker SIGKILLed mid-chunk is respawned; stdout is unchanged.
  const cli_result crashed =
      run_cli(base + " --jobs 3 --inject-fault sigkill:w1:after=1");
  ASSERT_EQ(crashed.code, 0);
  EXPECT_EQ(serial.out, crashed.out);

  // A journaled sweep spools every trial; resuming the complete journal
  // re-runs nothing and prints the same summary.
  const cli_result journaled =
      run_cli(base + " --jobs 2 --journal " + journal);
  ASSERT_EQ(journaled.code, 0);
  EXPECT_EQ(serial.out, journaled.out);
  const cli_result resumed =
      run_cli(base + " --jobs 2 --journal " + journal + " --resume");
  ASSERT_EQ(resumed.code, 0);
  EXPECT_EQ(serial.out, resumed.out);

  // The resume logs a one-line replay summary (records replayed / corrupt
  // skipped / torn tail) through the obs::log helper.
  const cli_result resumed_err =
      run_cli_stderr(base + " --jobs 2 --journal " + journal + " --resume");
  ASSERT_EQ(resumed_err.code, 0);
  EXPECT_NE(resumed_err.out.find(
                "journal replay: 8 record(s) replayed (8/8 trial(s)), "
                "0 corrupt record(s) skipped, torn tail none"),
            std::string::npos)
      << "stderr was: " << resumed_err.out;
  // --log-level error silences the info-level summary.
  const cli_result quiet = run_cli_stderr(base + " --jobs 2 --journal " +
                                          journal + " --resume --log-level error");
  ASSERT_EQ(quiet.code, 0);
  EXPECT_EQ(quiet.out.find("journal replay:"), std::string::npos);

  // Resuming the journal under a different seed is a loud error, not a
  // silently merged pair of unrelated sweeps.
  const cli_result mismatched = run_cli(
      "cycle 200 fast --trials 8 --seed 6 --jobs 2 --journal " + journal +
      " --resume");
  EXPECT_GT(mismatched.code, 0);
  std::remove(journal.c_str());
}

// The flight recorder rides any sweep without changing its stdout, and the
// snapshot files land where the flags point.
TEST(CliFleet, MetricsAndTraceLeaveStdoutUntouched) {
  const std::string dir = testing::TempDir();
  const std::string metrics = dir + "/cli_obs_metrics.json";
  const std::string trace = dir + "/cli_obs_trace.json";
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  const std::string base = "cycle 200 fast --trials 4 --seed 7";

  const cli_result serial = run_cli(base);
  ASSERT_EQ(serial.code, 0);
  const cli_result recorded = run_cli(base + " --jobs 2 --probe-stride 4096" +
                                      " --metrics " + metrics + " --trace " +
                                      trace);
  ASSERT_EQ(recorded.code, 0);
  EXPECT_EQ(serial.out, recorded.out);

  // Spot-check the snapshots: sorted-JSON metrics with both the fleet.*
  // supervisor counters and the workers' engine.* rollup; a trace document
  // with the supervisor span and merged per-trial worker spans.
  std::ifstream min(metrics);
  ASSERT_TRUE(min.good());
  std::string mjson((std::istreambuf_iterator<char>(min)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(mjson.find("\"popsim_metrics\": 1"), std::string::npos);
  EXPECT_NE(mjson.find("\"fleet.records_received\": 4"), std::string::npos);
  EXPECT_NE(mjson.find("\"engine.trials\": 4"), std::string::npos);
  EXPECT_NE(mjson.find("engine.steps_per_trial"), std::string::npos);

  std::ifstream tin(trace);
  ASSERT_TRUE(tin.good());
  std::string tjson((std::istreambuf_iterator<char>(tin)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tjson.find("\"name\": \"supervise\""), std::string::npos);
  EXPECT_NE(tjson.find("\"name\": \"worker_spawn\""), std::string::npos);
  EXPECT_NE(tjson.find("\"name\": \"trial\""), std::string::npos);
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

// --progress is stderr-only: the status line rides any sweep (it routes even
// a --jobs 1 run through the supervisor) without perturbing stdout.
TEST(CliFleet, ProgressLeavesStdoutUntouched) {
  const std::string base = "cycle 200 fast --trials 6 --seed 8";

  const cli_result serial = run_cli(base);
  ASSERT_EQ(serial.code, 0);
  const cli_result progressed = run_cli(base + " --jobs 2 --progress");
  ASSERT_EQ(progressed.code, 0);
  EXPECT_EQ(serial.out, progressed.out);
  const cli_result supervised_serial = run_cli(base + " --progress");
  ASSERT_EQ(supervised_serial.code, 0);
  EXPECT_EQ(serial.out, supervised_serial.out);

  // The final status line lands on stderr: all trials done, no ETA left.
  const cli_result err = run_cli_stderr(base + " --jobs 2 --progress");
  ASSERT_EQ(err.code, 0);
  EXPECT_NE(err.out.find("6/6 trials"), std::string::npos)
      << "stderr was: " << err.out;
  EXPECT_NE(err.out.find("done"), std::string::npos);
}

// `sample leader:` is trial 0's leader, computed the way popsim seeds it:
// graph from fork(0), B(G) from fork(1), trial t on fork(2).fork(t).  At
// this seed a separate rerun on another fork would elect a different node.
TEST(CliOutput, SampleLeaderIsTrialZerosLeader) {
  const std::uint64_t seed = 4;
  pp::rng make_gen = pp::rng(seed).fork(0);
  const pp::graph g = pp::family_by_name("rr8").make(600, make_gen);
  const double b =
      pp::estimate_worst_case_broadcast_time(g, 30, 6, pp::rng(seed).fork(1)).value;
  const pp::fast_protocol proto(pp::fast_params::practical(g, b));
  const pp::tuned_runner<pp::fast_protocol> runner(proto, g);
  const pp::node_id leader = runner.run(pp::rng(seed).fork(2).fork(0)).leader;
  ASSERT_GE(leader, 0);
  const std::string line = "sample leader: node " + std::to_string(leader) + "\n";

  const std::string args = "rr8 600 fast --trials 2 --seed " + std::to_string(seed);
  const cli_result serial = run_cli(args);
  ASSERT_EQ(serial.code, 0);
  EXPECT_NE(serial.out.find(line), std::string::npos) << serial.out;
  const cli_result fleet = run_cli(args + " --jobs 2");
  ASSERT_EQ(fleet.code, 0);
  EXPECT_EQ(serial.out, fleet.out);
}

TEST(CliFleet, WellmixedArtifactSweepIsDeterministic) {
  // Both well-mixed protocols: the fast one and the six-state backup.
  for (const std::string sweep : {"clique 3000 fast", "clique 500 six"}) {
    const std::string artifact = testing::TempDir() + "/cli_wm.ppaf";
    const cli_result saved = run_cli(sweep + " --engine wellmixed --trials 6 --seed 9 "
                                     "--save-artifact " + artifact);
    ASSERT_EQ(saved.code, 0) << sweep;
    const std::string sweep_args = "--load-artifact " + artifact + " --trials 6 --seed 9";
    const cli_result serial = run_cli(sweep_args);
    const cli_result fleet = run_cli(sweep_args + " --jobs 4");
    ASSERT_EQ(serial.code, 0) << sweep;
    ASSERT_EQ(fleet.code, 0) << sweep;
    EXPECT_EQ(serial.out, fleet.out) << sweep;
    EXPECT_EQ(saved.out, serial.out) << sweep;
    std::remove(artifact.c_str());
  }
}

#else

TEST(CliExitCodes, SkippedWithoutExamples) {
  GTEST_SKIP() << "example_popsim_cli not built (PP_BUILD_EXAMPLES=OFF)";
}

#endif  // PP_POPSIM_CLI

}  // namespace
