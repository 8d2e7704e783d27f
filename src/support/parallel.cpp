#include "support/parallel.h"

#include <sched.h>

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pp {

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

namespace {

// The CPUs in the calling thread's affinity mask, in increasing order; empty
// when the mask cannot be read.
std::vector<int> affinity_cpus() {
  cpu_set_t mask;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace

std::size_t usable_cpus() {
  const std::size_t n = affinity_cpus().size();
  return n == 0 ? hardware_threads() : n;
}

void run_pinned_workers(std::size_t workers,
                        const std::function<void(std::size_t)>& body) {
  const std::vector<int> cpus = affinity_cpus();
  parallel_for(
      workers,
      [&](std::size_t w) {
        // Only started threads are pinned: with one worker this is the
        // calling thread.  A refused pin leaves the worker where it is.
        if (workers > 1 && !cpus.empty()) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus[w % cpus.size()], &one);
          sched_setaffinity(0, sizeof one, &one);
        }
        body(w);
      },
      workers);
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) threads = hardware_threads();
  threads = std::min(threads, count);

  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pp
