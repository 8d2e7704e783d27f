// Deterministic multithreaded trial execution.
//
// Experiments consist of many independent trials; `parallel_for` distributes
// indices across a fixed number of worker threads.  Determinism is preserved
// because each trial derives its own RNG from (seed, trial index), never from
// thread identity or scheduling order.
#pragma once

#include <cstddef>
#include <functional>

namespace pp {

// Number of hardware threads, at least 1.  This counts the host's online CPUs
// and ignores the process's affinity mask.  The trial pool (parallel_for's
// default) keeps it on purpose: perfbench's clique-wellmixed setup probe
// ends setup when the process starts its first extra thread at --trials 2,
// and a pool sized to one pinned CPU would never start one.
std::size_t hardware_threads();

// Number of CPUs in the calling thread's affinity mask, at least 1: the CPUs
// this process may actually run on (taskset, cgroup cpusets).  Falls back to
// hardware_threads() when the mask cannot be read.
std::size_t usable_cpus();

// Invokes body(i) for every i in [0, count), distributing the indices over at
// most `threads` worker threads (0 means hardware_threads()).  Exceptions
// thrown by `body` are rethrown on the calling thread (the first one wins).
// The body must be safe to call concurrently for distinct indices.  With one
// thread (or one index) every call runs on the calling thread, in order, and
// no thread is started.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

// Invokes body(w) once for each worker w in [0, workers), like
// parallel_for(workers, body, workers), but confines each worker's thread to
// one CPU of the calling thread's affinity mask: worker w to the
// (w mod |mask|)-th.  Left to the kernel, a freshly started thread often
// stays on its parent's CPU for hundreds of milliseconds while another CPU
// of the mask idles, so a short fan-out ran no faster than one thread.
// With one worker, body(0) runs on the calling thread, whose mask is never
// changed.
void run_pinned_workers(std::size_t workers,
                        const std::function<void(std::size_t)>& body);

}  // namespace pp
