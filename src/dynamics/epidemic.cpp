#include "dynamics/epidemic.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "graph/metrics.h"
#include "sched/scheduler.h"
#include "support/expects.h"
#include "support/parallel.h"

namespace pp {

namespace detail {

namespace {
constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();
}  // namespace

broadcast_workspace::broadcast_workspace(const graph& g)
    : g_(g), m_(static_cast<double>(g.num_edges())) {
  expects(g.num_edges() <= std::int64_t{kAbsent},
          "simulate_broadcast: edge ids must fit in 32 bits");
  const auto m = static_cast<std::size_t>(g.num_edges());
  const auto n = static_cast<std::size_t>(g.num_nodes());
  position_.assign(m, kAbsent);
  pool_.resize(m);
  informed_.assign(n, 0);
  log_q_.assign(std::min(m, 2 * n), 0.0);
}

void broadcast_workspace::visit(node_id v) {
  const auto nbrs = g_.neighbors(v);
  const auto ids = g_.incident_edge_ids(v);
  std::uint32_t* position = position_.data();
  slot* pool = pool_.data();
  std::uint32_t size = size_;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(ids[i]);
    if (informed_[static_cast<std::size_t>(nbrs[i])]) {
      // Both ends informed now: swap-remove the edge.
      const std::uint32_t at = position[id];
      const slot last = pool[--size];
      pool[at] = last;
      position[last.edge] = at;
      position[id] = kAbsent;
    } else {
      position[id] = size;
      pool[size++] = {id, nbrs[i]};
    }
  }
  size_ = size;
}

double broadcast_workspace::log_q(std::size_t k) {
  if (k >= log_q_.size()) return geometric_log_q(static_cast<double>(k) / m_);
  // log1p(-k/m) < 0 for 0 < k < m, so 0 marks an entry not computed yet.
  double& entry = log_q_[k];
  if (entry == 0.0) entry = geometric_log_q(static_cast<double>(k) / m_);
  return entry;
}

std::uint64_t broadcast_workspace::run(node_id source, rng gen,
                                       std::uint64_t* infection_step) {
  expects(source >= 0 && source < g_.num_nodes(),
          "simulate_broadcast: source out of range");
  expects(g_.num_edges() >= 1, "simulate_broadcast: graph must have edges");

  // The pool is empty here: a finished broadcast informed every node, and an
  // unfinished one stopped at the empty-boundary check below.
  std::fill(informed_.begin(), informed_.end(), std::uint8_t{0});
  informed_[static_cast<std::size_t>(source)] = 1;
  visit(source);

  const auto all_edges = static_cast<std::size_t>(g_.num_edges());
  std::uint64_t step = 0;
  for (node_id remaining = g_.num_nodes() - 1; remaining > 0; --remaining) {
    expects(size_ > 0, "simulate_broadcast: graph must be connected");
    // Wait for the scheduler to hit a boundary edge: Geometric(|∂S|/m), which
    // takes no draw when every edge is a boundary edge (p = 1).
    const std::size_t k = size_;
    step += k == all_edges ? 1 : geometric_inversion(gen.uniform01(), log_q(k));
    const node_id fresh = pool_[gen.uniform_below(k)].uninformed;
    informed_[static_cast<std::size_t>(fresh)] = 1;
    if (infection_step != nullptr) infection_step[fresh] = step;
    visit(fresh);
  }
  return step;
}

}  // namespace detail

broadcast_result simulate_broadcast(const graph& g, node_id source, rng gen) {
  detail::broadcast_workspace workspace(g);
  broadcast_result result;
  result.infection_step.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  result.completion_step = workspace.run(source, gen, result.infection_step.data());
  return result;
}

broadcast_result simulate_broadcast_naive(const graph& g, node_id source, rng gen) {
  expects(source >= 0 && source < g.num_nodes(),
          "simulate_broadcast_naive: source out of range");

  const node_id n = g.num_nodes();
  broadcast_result result;
  result.infection_step.assign(static_cast<std::size_t>(n), 0);
  std::vector<bool> informed(static_cast<std::size_t>(n), false);
  informed[static_cast<std::size_t>(source)] = true;
  node_id remaining = n - 1;

  edge_scheduler sched(g, gen);
  while (remaining > 0) {
    const interaction it = sched.next();
    const bool a = informed[static_cast<std::size_t>(it.initiator)];
    const bool b = informed[static_cast<std::size_t>(it.responder)];
    if (a == b) continue;
    const node_id fresh = a ? it.responder : it.initiator;
    informed[static_cast<std::size_t>(fresh)] = true;
    result.infection_step[static_cast<std::size_t>(fresh)] = sched.steps();
    --remaining;
  }
  result.completion_step = sched.steps();
  return result;
}

namespace detail {

namespace {

// One source of an estimate: its broadcast t is seeded gen.fork(t).
struct source_stream {
  node_id source;
  rng gen;
};

// The mean completion step of `trials` broadcasts from each source, in
// sources' order, on up to `workers` threads with one workspace each (see
// the fan-out in the file comment of epidemic.h).
std::vector<double> mean_broadcast_times(const graph& g,
                                         const std::vector<source_stream>& sources,
                                         int trials, std::size_t workers) {
  expects(workers >= 1, "broadcast estimates: need workers >= 1");
  const auto per_source = static_cast<std::size_t>(trials);
  const std::size_t count = sources.size() * per_source;
  workers = std::min(workers, count);
  std::vector<broadcast_workspace> workspaces;
  workspaces.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) workspaces.emplace_back(g);

  std::vector<std::uint64_t> steps(count);
  std::atomic<std::size_t> next{0};
  run_pinned_workers(
      workers,
      [&](std::size_t w) {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) return;
          const source_stream& s = sources[i / per_source];
          steps[i] = workspaces[w].run(s.source, s.gen.fork(i % per_source), nullptr);
        }
      });

  std::vector<double> means;
  means.reserve(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    double total = 0.0;
    for (std::size_t t = 0; t < per_source; ++t) {
      total += static_cast<double>(steps[s * per_source + t]);
    }
    means.push_back(total / trials);
  }
  return means;
}

}  // namespace

double estimate_broadcast_time(const graph& g, node_id source, int trials, rng gen,
                               std::size_t workers) {
  expects(trials >= 1, "estimate_broadcast_time: need trials >= 1");
  return mean_broadcast_times(g, {{source, gen}}, trials, workers).front();
}

broadcast_time_estimate estimate_worst_case_broadcast_time(
    const graph& g, int trials_per_source, int max_sources, rng gen,
    std::size_t workers) {
  expects(trials_per_source >= 1 && max_sources >= 1,
          "estimate_worst_case_broadcast_time: need positive budgets");

  const node_id n = g.num_nodes();
  std::vector<node_id> sources;
  if (n <= max_sources) {
    for (node_id v = 0; v < n; ++v) sources.push_back(v);
  } else {
    // The worst (and best) sources on all our families are extremal in degree
    // or eccentricity; evaluate those plus random probes.
    node_id lo = 0;
    node_id hi = 0;
    for (node_id v = 0; v < n; ++v) {
      if (g.degree(v) < g.degree(lo)) lo = v;
      if (g.degree(v) > g.degree(hi)) hi = v;
    }
    sources.push_back(lo);
    sources.push_back(hi);
    while (static_cast<int>(sources.size()) < max_sources) {
      sources.push_back(static_cast<node_id>(
          gen.uniform_below(static_cast<std::uint64_t>(n))));
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  }

  std::vector<source_stream> streams;
  streams.reserve(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    streams.push_back({sources[s], gen.fork(s)});
  }
  const std::vector<double> means =
      mean_broadcast_times(g, streams, trials_per_source, workers);

  broadcast_time_estimate est;
  est.min_value = -1.0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const double mean = means[s];
    if (mean > est.value) {
      est.value = mean;
      est.argmax = sources[s];
    }
    if (est.min_value < 0.0 || mean < est.min_value) est.min_value = mean;
  }
  return est;
}

}  // namespace detail

double estimate_broadcast_time(const graph& g, node_id source, int trials, rng gen) {
  return detail::estimate_broadcast_time(g, source, trials, gen, usable_cpus());
}

broadcast_time_estimate estimate_worst_case_broadcast_time(
    const graph& g, int trials_per_source, int max_sources, rng gen) {
  return detail::estimate_worst_case_broadcast_time(g, trials_per_source, max_sources,
                                                    gen, usable_cpus());
}

std::uint64_t distance_k_propagation_step(const broadcast_result& r,
                                          const std::vector<std::int32_t>& distances,
                                          std::int32_t k) {
  expects(r.infection_step.size() == distances.size(),
          "distance_k_propagation_step: size mismatch");
  std::uint64_t best = static_cast<std::uint64_t>(-1);
  for (std::size_t v = 0; v < distances.size(); ++v) {
    if (distances[v] == k) best = std::min(best, r.infection_step[v]);
  }
  return best;
}

}  // namespace pp
