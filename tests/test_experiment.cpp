#include "analysis/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/families.h"
#include "core/beauquier.h"
#include "core/fast_election.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "stat_gate.h"

namespace pp {
namespace {

TEST(Families, RegistryContainsTableOneFamilies) {
  const auto& families = standard_families();
  EXPECT_GE(families.size(), 6u);
  EXPECT_NO_THROW(family_by_name("clique"));
  EXPECT_NO_THROW(family_by_name("cycle"));
  EXPECT_NO_THROW(family_by_name("star"));
  EXPECT_NO_THROW(family_by_name("er_dense"));
  EXPECT_THROW(family_by_name("mystery"), std::invalid_argument);
}

TEST(Families, InstancesAreConnectedAndSized) {
  rng gen(1);
  for (const auto& family : standard_families()) {
    rng local = gen.fork(static_cast<std::uint64_t>(family.name.size()));
    const graph g = family.make(36, local);
    EXPECT_TRUE(is_connected(g)) << family.name;
    EXPECT_GE(g.num_nodes(), 25) << family.name;
    EXPECT_LE(g.num_nodes(), 49) << family.name;
  }
}

TEST(Families, ShapesArePositiveAndGrow) {
  rng gen(2);
  for (const auto& family : standard_families()) {
    rng l1 = gen.fork(1);
    rng l2 = gen.fork(2);
    const graph small = family.make(16, l1);
    const graph large = family.make(64, l2);
    EXPECT_GT(family.broadcast_shape(small), 0.0) << family.name;
    EXPECT_GT(family.broadcast_shape(large), family.broadcast_shape(small))
        << family.name;
    EXPECT_GT(family.hitting_shape(large), family.hitting_shape(small))
        << family.name;
  }
}

TEST(MeasureElection, AllTrialsStabilizeAndAreCounted) {
  const graph g = make_clique(10);
  const beauquier_protocol proto(10);
  const auto summary = measure_election(proto, g, 16, rng(3));
  EXPECT_DOUBLE_EQ(summary.stabilized_fraction, 1.0);
  EXPECT_EQ(summary.steps.count, 16u);
  EXPECT_GT(summary.steps.mean, 0.0);
}

TEST(MeasureElection, ReproducibleAcrossThreadCounts) {
  const graph g = make_clique(10);
  const beauquier_protocol proto(10);
  const auto a = measure_election(proto, g, 8, rng(4), {}, 1);
  const auto b = measure_election(proto, g, 8, rng(4), {}, 4);
  EXPECT_DOUBLE_EQ(a.steps.mean, b.steps.mean);
}

TEST(MeasureElection, CapsReportPartialStabilization) {
  const graph g = make_cycle(48);
  const beauquier_protocol proto(48);
  const auto summary = measure_election(proto, g, 8, rng(5), {.max_steps = 10});
  EXPECT_LT(summary.stabilized_fraction, 1.0);
}

constexpr sim_options kSilent{.scheduler = scheduler_kind::silent};

TEST(MeasureElectionTuned, SilentBeauquierAgreesWithGenericRunner) {
  const graph g = make_cycle(16);
  const beauquier_protocol proto(16);
  const auto generic = measure_election(proto, g, 64, rng(6));
  const auto silent = measure_election_tuned(proto, g, 64, rng(7), kSilent);
  stat_gate::expect_step_agreement(generic, silent,
                                   "beauquier cycle 16: silent vs generic");
}

// The summary's sample leader is trial 0's leader, which every sweep runs
// on seed_gen.fork(0): reporting it needs no extra election.
TEST(SampleLeader, SummaryReportsTrialZerosLeader) {
  std::vector<election_result> results(3);
  results[0] = {.stabilized = true, .steps = 10, .leader = 7};
  results[1] = {.stabilized = true, .steps = 20, .leader = 3};
  results[2] = {.stabilized = false, .steps = 30, .leader = -1};
  EXPECT_EQ(summarize_election_results(results).sample_leader, 7);
  std::swap(results[0], results[2]);
  EXPECT_EQ(summarize_election_results(results).sample_leader, -1);
  EXPECT_EQ(summarize_election_results({}).sample_leader, -1);
}

TEST(SampleLeader, EverySweepReportsTrialZerosLeader) {
  const graph g = make_cycle(40);
  const rng seed(12);

  const fast_protocol fast(fast_params::practical(
      g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value));
  const tuned_runner<fast_protocol> runner(fast, g);
  const node_id tuned = runner.run(seed.fork(0)).leader;
  EXPECT_GE(tuned, 0);
  EXPECT_EQ(measure_election_sweep(runner, 3, seed).sample_leader, tuned);
  EXPECT_EQ(measure_election(fast, g, 3, seed).sample_leader,
            run_until_stable(fast, g, seed.fork(0)).leader);

  const beauquier_protocol six(g.num_nodes());
  const node_id silent =
      tuned_runner<beauquier_protocol>(six, g).run(seed.fork(0), kSilent).leader;
  EXPECT_GE(silent, 0);
  EXPECT_EQ(measure_election_tuned(six, g, 3, seed, kSilent).sample_leader, silent);
}

TEST(MeasureBroadcast, RatioIsOrderOne) {
  rng gen(8);
  const auto& family = family_by_name("clique");
  rng local = gen.fork(0);
  const graph g = family.make(48, local);
  const auto s = measure_broadcast(g, family, 50, 8, gen.fork(1));
  EXPECT_GT(s.measured, 0.0);
  EXPECT_GT(s.ratio(), 0.2);
  EXPECT_LT(s.ratio(), 5.0);
}

TEST(BenchScale, DefaultsToOne) {
  unsetenv("PP_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  setenv("PP_BENCH_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 2.5);
  setenv("PP_BENCH_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  unsetenv("PP_BENCH_SCALE");
}

}  // namespace
}  // namespace pp
