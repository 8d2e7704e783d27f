#include "support/parallel.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pp {
namespace {

TEST(ParallelFor, VisitsEveryIndexOnce) {
  const std::size_t count = 10000;
  std::vector<std::atomic<int>> visits(count);
  parallel_for(count, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 42) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  const std::size_t count = 1000;
  auto run = [&](std::size_t threads) {
    std::vector<double> out(count);
    parallel_for(count, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
                 threads);
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  EXPECT_DOUBLE_EQ(run(1), run(4));
}

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1u); }

TEST(UsableCpus, CountsTheCallingThreadsAffinityMask) {
  const std::size_t unpinned = usable_cpus();
  EXPECT_GE(unpinned, 1u);
  EXPECT_LE(unpinned, hardware_threads());

  // Pin this thread to the first CPU of its mask, then restore the mask.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const std::size_t pinned = usable_cpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(usable_cpus(), unpinned);
}

// The CPUs in the calling thread's affinity mask, in increasing order.
std::vector<int> mask_cpus() {
  cpu_set_t mask;
  EXPECT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

TEST(RunPinnedWorkers, PinsEachWorkerToOneCpuOfTheMask) {
  const std::vector<int> cpus = mask_cpus();
  ASSERT_FALSE(cpus.empty());
  // One worker more than CPUs, so the assignment wraps around the mask.
  const std::size_t workers = cpus.size() + 1;
  std::vector<std::vector<int>> seen(workers);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  run_pinned_workers(workers, [&](std::size_t w) {
    if (std::this_thread::get_id() == caller) ++on_caller;
    seen[w] = mask_cpus();
  });
  EXPECT_EQ(on_caller.load(), 0);
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_EQ(seen[w], std::vector<int>{cpus[w % cpus.size()]}) << "worker " << w;
  }
  EXPECT_EQ(mask_cpus(), cpus);  // the calling thread keeps its mask
}

TEST(RunPinnedWorkers, OneWorkerRunsOnTheCallingThreadUnpinned) {
  const std::vector<int> cpus = mask_cpus();
  std::thread::id ran_on;
  std::vector<int> seen;
  run_pinned_workers(1, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
    seen = mask_cpus();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(seen, cpus);
}

}  // namespace
}  // namespace pp
