#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/metrics.h"
#include "support/expects.h"

namespace pp {

graph make_clique(node_id n) {
  expects(n >= 2, "make_clique: need n >= 2");
  std::vector<edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return graph::from_edges(n, edges);
}

graph make_path(node_id n) {
  expects(n >= 2, "make_path: need n >= 2");
  std::vector<edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (node_id v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<node_id>(v + 1)});
  return graph::from_edges(n, edges);
}

graph make_cycle(node_id n) {
  expects(n >= 3, "make_cycle: need n >= 3");
  std::vector<edge> edges;
  edges.reserve(n);
  for (node_id v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<node_id>((v + 1) % n)});
  }
  return graph::from_edges(n, edges);
}

graph make_star(node_id n) {
  expects(n >= 2, "make_star: need n >= 2");
  std::vector<edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (node_id v = 1; v < n; ++v) edges.push_back({0, v});
  return graph::from_edges(n, edges);
}

graph make_complete_bipartite(node_id a, node_id b) {
  expects(a >= 1 && b >= 1, "make_complete_bipartite: need a, b >= 1");
  std::vector<edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (node_id u = 0; u < a; ++u) {
    for (node_id v = a; v < a + b; ++v) edges.push_back({u, v});
  }
  return graph::from_edges(a + b, edges);
}

graph make_binary_tree(node_id n) {
  expects(n >= 2, "make_binary_tree: need n >= 2");
  std::vector<edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (node_id v = 1; v < n; ++v) {
    edges.push_back({static_cast<node_id>((v - 1) / 2), v});
  }
  return graph::from_edges(n, edges);
}

graph make_grid_2d(node_id rows, node_id cols, bool torus) {
  expects(rows >= 1 && cols >= 1, "make_grid_2d: need rows, cols >= 1");
  expects(static_cast<std::int64_t>(rows) * cols >= 2, "make_grid_2d: need >= 2 nodes");
  if (torus) {
    expects((rows == 1 || rows >= 3) && (cols == 1 || cols >= 3),
            "make_grid_2d: torus requires wrapped dimensions >= 3");
  }
  const auto at = [cols](node_id r, node_id c) {
    return static_cast<node_id>(r * cols + c);
  };
  std::vector<edge> edges;
  for (node_id r = 0; r < rows; ++r) {
    for (node_id c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        edges.push_back({at(r, c), at(r, c + 1)});
      } else if (torus && cols >= 3) {
        edges.push_back({at(r, 0), at(r, c)});
      }
      if (r + 1 < rows) {
        edges.push_back({at(r, c), at(r + 1, c)});
      } else if (torus && rows >= 3) {
        edges.push_back({at(0, c), at(r, c)});
      }
    }
  }
  return graph::from_edges(rows * cols, edges);
}

graph make_grid_3d(node_id side) {
  expects(side >= 3, "make_grid_3d: need side >= 3 for a simple torus");
  const auto at = [side](node_id x, node_id y, node_id z) {
    return static_cast<node_id>((x * side + y) * side + z);
  };
  std::vector<edge> edges;
  edges.reserve(3 * static_cast<std::size_t>(side) * side * side);
  for (node_id x = 0; x < side; ++x) {
    for (node_id y = 0; y < side; ++y) {
      for (node_id z = 0; z < side; ++z) {
        edges.push_back({at(x, y, z), at(static_cast<node_id>((x + 1) % side), y, z)});
        edges.push_back({at(x, y, z), at(x, static_cast<node_id>((y + 1) % side), z)});
        edges.push_back({at(x, y, z), at(x, y, static_cast<node_id>((z + 1) % side))});
      }
    }
  }
  return graph::from_edges(static_cast<node_id>(side * side * side), edges);
}

graph make_hypercube(int dim) {
  expects(dim >= 1 && dim <= 24, "make_hypercube: dim must be in [1, 24]");
  const node_id n = static_cast<node_id>(1) << dim;
  std::vector<edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * dim / 2);
  for (node_id v = 0; v < n; ++v) {
    for (int b = 0; b < dim; ++b) {
      const node_id u = v ^ (static_cast<node_id>(1) << b);
      if (v < u) edges.push_back({v, u});
    }
  }
  return graph::from_edges(n, edges);
}

graph make_barbell(node_id k, node_id bridge_len) {
  expects(k >= 2, "make_barbell: need clique size >= 2");
  expects(bridge_len >= 0, "make_barbell: bridge length must be >= 0");
  const node_id n = static_cast<node_id>(2 * k + bridge_len);
  std::vector<edge> edges;
  for (node_id u = 0; u < k; ++u) {
    for (node_id v = u + 1; v < k; ++v) edges.push_back({u, v});
  }
  for (node_id u = k; u < 2 * k; ++u) {
    for (node_id v = static_cast<node_id>(u + 1); v < 2 * k; ++v) edges.push_back({u, v});
  }
  // Bridge from node k-1 (first clique) to node k (second clique) through
  // bridge_len fresh nodes 2k, ..., 2k+bridge_len-1.
  node_id prev = k - 1;
  for (node_id i = 0; i < bridge_len; ++i) {
    const node_id mid = static_cast<node_id>(2 * k + i);
    edges.push_back({prev, mid});
    prev = mid;
  }
  edges.push_back({prev, k});
  return graph::from_edges(n, edges);
}

graph make_lollipop(node_id k, node_id tail_len) {
  expects(k >= 2, "make_lollipop: need clique size >= 2");
  expects(tail_len >= 1, "make_lollipop: need tail length >= 1");
  const node_id n = static_cast<node_id>(k + tail_len);
  std::vector<edge> edges;
  for (node_id u = 0; u < k; ++u) {
    for (node_id v = u + 1; v < k; ++v) edges.push_back({u, v});
  }
  node_id prev = k - 1;
  for (node_id i = 0; i < tail_len; ++i) {
    const node_id next = static_cast<node_id>(k + i);
    edges.push_back({prev, next});
    prev = next;
  }
  return graph::from_edges(n, edges);
}

graph make_erdos_renyi(node_id n, double p, rng& gen) {
  expects(n >= 2, "make_erdos_renyi: need n >= 2");
  expects(p >= 0.0 && p <= 1.0, "make_erdos_renyi: p must be in [0, 1]");
  std::vector<edge> edges;
  if (p >= 1.0) return make_clique(n);
  if (p <= 0.0) return graph::from_edges(n, edges);
  // Skip-sampling over the n(n-1)/2 potential edges: the gap to the next
  // present edge is Geometric(p), so the cost is proportional to the number
  // of edges generated rather than to n².  p is fixed for the call, so
  // log(1 - p) is hoisted out of gen.geometric(p), draw for draw.
  const double log_q = geometric_log_q(p);
  const auto gap = [&] {
    return static_cast<std::int64_t>(geometric_inversion(gen.uniform01(), log_q));
  };
  const std::int64_t total = static_cast<std::int64_t>(n) * (n - 1) / 2;
  // Linear index idx enumerates (u, v), u < v, row-major over u; it only
  // grows, so the decoder carries its row forward: O(n + m) in all.
  node_id u = 0;
  std::int64_t row_start = 0;  // index of (u, u + 1)
  std::int64_t row = n - 1;    // pairs in row u
  for (std::int64_t idx = gap() - 1; idx < total; idx += gap()) {
    while (idx - row_start >= row) {
      row_start += row;
      --row;
      ++u;
    }
    edges.push_back({u, static_cast<node_id>(u + 1 + (idx - row_start))});
  }
  return graph::from_edges(n, edges);
}

graph make_connected_erdos_renyi(node_id n, double p, rng& gen, int max_attempts) {
  expects(max_attempts >= 1, "make_connected_erdos_renyi: need max_attempts >= 1");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    graph g = make_erdos_renyi(n, p, gen);
    if (is_connected(g)) return g;
  }
  throw std::runtime_error(
      "make_connected_erdos_renyi: no connected sample within attempt budget");
}

graph make_random_regular(node_id n, node_id d, rng& gen, int max_attempts) {
  expects(n >= 2 && d >= 1 && d < n, "make_random_regular: need 1 <= d < n");
  expects(static_cast<std::int64_t>(n) * d % 2 == 0,
          "make_random_regular: n*d must be even");
  expects(max_attempts >= 1, "make_random_regular: need max_attempts >= 1");

  // Configuration model with double-edge-swap repair: rejecting whole
  // pairings has success probability ~exp(-(d²-1)/4), hopeless beyond small
  // d, so instead defective pairs (self-loops / duplicate edges) are fixed by
  // swapping partners with uniformly random other pairs.  The repaired graph
  // is a standard, asymptotically uniform d-regular sample.
  const auto stubs_total = static_cast<std::size_t>(n) * static_cast<std::size_t>(d);
  const auto key_of = [n](node_id u, node_id v) {
    return static_cast<std::int64_t>(std::min(u, v)) * static_cast<std::int64_t>(n) +
           std::max(u, v);
  };

  std::vector<node_id> stubs(stubs_total);
  for (std::size_t i = 0; i < stubs_total; ++i) {
    stubs[i] = static_cast<node_id>(i / static_cast<std::size_t>(d));
  }
  for (std::size_t i = stubs_total - 1; i > 0; --i) {
    const std::size_t j = gen.uniform_below(i + 1);
    std::swap(stubs[i], stubs[j]);
  }

  const std::size_t pairs = stubs_total / 2;
  const auto pair_u = [&](std::size_t p) -> node_id& { return stubs[2 * p]; };
  const auto pair_v = [&](std::size_t p) -> node_id& { return stubs[2 * p + 1]; };

  // `seen` holds the keys of accepted (good) pairs; `good` marks them.
  std::unordered_set<std::int64_t> seen;
  seen.reserve(pairs * 2);
  std::vector<char> good(pairs, 0);
  std::vector<std::size_t> bad;
  const auto acceptable = [&](std::size_t p) {
    return pair_u(p) != pair_v(p) && !seen.contains(key_of(pair_u(p), pair_v(p)));
  };
  for (std::size_t p = 0; p < pairs; ++p) {
    if (acceptable(p)) {
      seen.insert(key_of(pair_u(p), pair_v(p)));
      good[p] = 1;
    } else {
      bad.push_back(p);
    }
  }

  const std::int64_t swap_budget =
      static_cast<std::int64_t>(max_attempts) * static_cast<std::int64_t>(pairs);
  std::int64_t swaps = 0;
  while (!bad.empty()) {
    expects(swaps++ < swap_budget,
            "make_random_regular: repair budget exhausted (graph too small?)");
    const std::size_t p = bad.back();
    if (acceptable(p)) {
      // The conflicting edge was swapped away in the meantime.
      seen.insert(key_of(pair_u(p), pair_v(p)));
      good[p] = 1;
      bad.pop_back();
      continue;
    }
    // Swap one endpoint with a uniformly random good pair; accept only if
    // both resulting pairs are simple and fresh.
    const std::size_t q = gen.uniform_below(pairs);
    if (q == p || !good[q]) continue;
    seen.erase(key_of(pair_u(q), pair_v(q)));
    std::swap(pair_v(p), pair_v(q));
    const bool ok = acceptable(p) && acceptable(q) &&
                    key_of(pair_u(p), pair_v(p)) != key_of(pair_u(q), pair_v(q));
    if (!ok) {
      std::swap(pair_v(p), pair_v(q));  // undo
      seen.insert(key_of(pair_u(q), pair_v(q)));
      continue;
    }
    seen.insert(key_of(pair_u(p), pair_v(p)));
    seen.insert(key_of(pair_u(q), pair_v(q)));
    good[p] = 1;
    bad.pop_back();
  }

  std::vector<edge> edges;
  edges.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) edges.push_back({pair_u(p), pair_v(p)});
  return graph::from_edges(n, edges);
}

graph make_renitent(const graph& base, node_id anchor, node_id ell) {
  expects(anchor >= 0 && anchor < base.num_nodes(),
          "make_renitent: anchor out of range");
  expects(ell >= 1, "make_renitent: need ell >= 1");

  const node_id base_n = base.num_nodes();
  const node_id path_internal = static_cast<node_id>(2 * ell - 1);
  const node_id n = static_cast<node_id>(4 * base_n + 4 * path_internal);

  std::vector<edge> edges;
  edges.reserve(4 * static_cast<std::size_t>(base.num_edges()) +
                4 * static_cast<std::size_t>(2 * ell));
  // Four disjoint copies of the base graph.
  for (int copy = 0; copy < 4; ++copy) {
    const node_id off = static_cast<node_id>(copy * base_n);
    for (const edge& e : base.edges()) {
      edges.push_back({static_cast<node_id>(e.u + off),
                       static_cast<node_id>(e.v + off)});
    }
  }
  // Path P_i of length 2*ell from anchor of copy i to anchor of copy i+1
  // (mod 4); internal path nodes live after the four copies.
  node_id next_fresh = static_cast<node_id>(4 * base_n);
  for (int copy = 0; copy < 4; ++copy) {
    const node_id from = static_cast<node_id>(copy * base_n + anchor);
    const node_id to = static_cast<node_id>(((copy + 1) % 4) * base_n + anchor);
    node_id prev = from;
    for (node_id i = 0; i < path_internal; ++i) {
      edges.push_back({prev, next_fresh});
      prev = next_fresh++;
    }
    edges.push_back({prev, to});
  }
  return graph::from_edges(n, edges);
}

graph theorem39_graph(node_id n, const std::function<double(double)>& target,
                      rng& gen, theorem39_spec* spec_out) {
  expects(n >= 8, "theorem39_graph: need n >= 8");
  const double N = static_cast<double>(n);
  const double T = target(N);
  const double log_n = std::log2(N);
  expects(T >= N * log_n * 0.5 && T <= N * N * N * 2.0,
          "theorem39_graph: target must lie between ~n log n and ~n^3");

  theorem39_spec spec;
  graph base;
  if (T > N * N * log_n) {
    // Dense end: clique base, path length scales the complexity above n² log n.
    spec.clique_base = true;
    spec.base_size = n;
    spec.ell = static_cast<node_id>(std::max(1.0, std::ceil(T / (N * N))));
    base = make_clique(n);
  } else {
    // Sparse-to-moderate end: star plus Θ(T/ell) extra random edges.
    spec.clique_base = false;
    spec.base_size = n;
    spec.ell = static_cast<node_id>(
        std::max(1.0, std::ceil(log_n + T / (N * log_n))));
    const double want = T / static_cast<double>(spec.ell);
    const auto max_extra = static_cast<std::int64_t>(N * (N - 1) / 2 - (N - 1));
    spec.extra_edges = std::min<std::int64_t>(
        max_extra, static_cast<std::int64_t>(std::ceil(want)));

    std::vector<edge> edges;
    for (node_id v = 1; v < n; ++v) edges.push_back({0, v});
    // Add distinct random non-star edges until the quota is met.
    std::unordered_set<std::int64_t> seen;
    std::int64_t added = 0;
    while (added < spec.extra_edges) {
      const auto u = static_cast<node_id>(gen.uniform_below(static_cast<std::uint64_t>(n - 1)) + 1);
      const auto v = static_cast<node_id>(gen.uniform_below(static_cast<std::uint64_t>(n - 1)) + 1);
      if (u == v) continue;
      const auto key = static_cast<std::int64_t>(std::min(u, v)) *
                           static_cast<std::int64_t>(n) + std::max(u, v);
      if (!seen.insert(key).second) continue;
      edges.push_back({u, v});
      ++added;
    }
    base = graph::from_edges(n, edges);
  }
  if (spec_out != nullptr) *spec_out = spec;
  return make_renitent(base, /*anchor=*/0, spec.ell);
}

}  // namespace pp
