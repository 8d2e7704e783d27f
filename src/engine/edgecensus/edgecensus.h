// Edge-census machinery for the compiled engine.
//
// Counter-shaped protocols reduce their stability predicate to a handful of
// state counts (census_traits); star-style protocols additionally count edge
// *classes* — how many edges currently join two undecided nodes — which
// depends on node identity, not state multiplicities.  This header supplies
// the pieces the engine fuses into its hot loops for such protocols
// (edge_census_protocol<P>, compiled_protocol.h):
//
//   * class_pair_index(a, b)   — flat index of the unordered class pair
//                                (compiled_protocol.h, shared with the traits);
//   * edge_class_census        — the per-run incremental state: one class
//                                byte per node plus kMaxClassPairs int64
//                                counters, maintained in O(deg(v)) per class
//                                flip by walking v's adjacency row;
//   * packed_csr<N>            — the read-only CSR adjacency view those walks
//                                load, at node word width N (u16/u32, matching
//                                packed_endpoints), built once per
//                                tuned_runner and shared across trials;
//   * graph_rows               — the same row interface over a plain graph,
//                                for the lazy u32 path and the tests.
//
// Cost model: a scheduler step whose transition changes no state (the
// overwhelming majority once a star-style protocol has settled) pays nothing
// — the step loop's zero-delta fast path (engine.h, behind run_compiled
// and run_packed) covers the edge census too.  A step that flips a node's class pays O(deg(v)) counter
// updates; on bounded-degree families that is O(1), and every node flips at
// most (kClasses - 1) times over a run of monotone protocols like
// star_protocol, so the total maintenance cost is O(Σ deg) = O(m) per run.
// The stability predicate itself stays O(1): a pure function of the node
// totals and the kMaxClassPairs counters, evaluated only when either moved —
// so it fires on exactly the same scheduler step as the reference tracker.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "engine/compiled_protocol.h"
#include "graph/graph.h"
#include "support/expects.h"

namespace pp {

// Read-only CSR adjacency at node word width N: row offsets (u32 — 2m must
// fit, which any materialisable edge list does) plus the concatenated sorted
// neighbour rows.  Mirrors graph's internal adjacency but at the packed node
// width, so a class-flip walk touches 2 or 4 bytes per neighbour instead
// of 8 (span + int32), and the rows sit in one contiguous array the hardware
// prefetcher streams.
template <typename N>
struct packed_csr {
  explicit packed_csr(const graph& g) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    const auto two_m = 2 * static_cast<std::uint64_t>(g.num_edges());
    expects(g.num_nodes() == 0 ||
                static_cast<std::uint64_t>(g.num_nodes() - 1) <=
                    static_cast<std::uint64_t>(std::numeric_limits<N>::max()),
            "packed_csr: node ids do not fit the word width");
    expects(two_m <= std::numeric_limits<std::uint32_t>::max(),
            "packed_csr: adjacency exceeds u32 row offsets");
    offsets.reserve(n + 1);
    neighbors.reserve(static_cast<std::size_t>(two_m));
    offsets.push_back(0);
    for (node_id v = 0; v < g.num_nodes(); ++v) {
      for (const node_id w : g.neighbors(v)) {
        neighbors.push_back(static_cast<N>(w));
      }
      offsets.push_back(static_cast<std::uint32_t>(neighbors.size()));
    }
  }

  std::span<const N> row(std::size_t v) const {
    return {neighbors.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }

  std::vector<std::uint32_t> offsets;  // size n + 1
  std::vector<N> neighbors;            // size 2m
  std::size_t bytes() const {
    return offsets.size() * sizeof(std::uint32_t) +
           neighbors.size() * sizeof(N);
  }
};

// Adjacency-row view over a plain graph — the same `row(v)` interface as
// packed_csr, for contexts (lazy u32 engine, property tests) that already
// hold the graph and need no extra arrays.
struct graph_rows {
  const graph* g = nullptr;
  std::span<const node_id> row(std::size_t v) const {
    return g->neighbors(static_cast<node_id>(v));
  }
};

// The incremental edge-class census: cls[v] is node v's current class and
// pairs[class_pair_index(c1, c2)] the number of edges whose endpoint classes
// form the unordered pair {c1, c2} — always exactly the from-scratch recount
// of the current class vector (the invariant tests/test_edgecensus.cpp
// property-tests against random flip sequences).
//
// When an interaction flips both endpoints, callers reclass() them in
// initiator-then-responder order; the first walk sees the responder's old
// class and the second sees the initiator's new one, so the shared edge is
// retagged exactly once — the same settle-u-before-v discipline as
// star_protocol::tracker_type.
class edge_class_census {
 public:
  // O(n + m) from-scratch initialisation: adopt the class vector and count
  // every edge's class pair.
  void reset(std::span<const std::uint8_t> cls, const std::vector<edge>& edges) {
    cls_.assign(cls.begin(), cls.end());
    pairs_ = {};
    for (const edge& e : edges) {
      ++pairs_[static_cast<std::size_t>(
          class_pair_index(cls_[static_cast<std::size_t>(e.u)],
                           cls_[static_cast<std::size_t>(e.v)]))];
    }
  }

  // Moves node v to class c, retagging its incident pair counters in
  // O(deg(v)); returns whether anything moved (false when c is already v's
  // class — the engine skips the stability re-check in that case).
  //
  // Every retag of the walk moves counts between the same two counter rows
  // (old_c, ·) and (c, ·), so rather than 2·deg dependent read-modify-writes
  // on pairs_ (a serialized latency chain that makes a star centre's flip
  // ~7 cycles per neighbour), high-degree flips count neighbours per class
  // into four independent accumulator lanes and apply one bulk update per
  // class — same final counters, ~5× faster on the degree-n star centre.
  template <typename Rows>
  bool reclass(const Rows& rows, std::size_t v, std::uint8_t c) {
    const std::uint8_t old_c = cls_[v];
    if (old_c == c) return false;
    const auto row = rows.row(v);
    const std::size_t deg = row.size();
    if (deg < 16) {
      for (const auto w : row) {
        const std::uint8_t cw = cls_[static_cast<std::size_t>(w)];
        --pairs_[static_cast<std::size_t>(class_pair_index(old_c, cw))];
        ++pairs_[static_cast<std::size_t>(class_pair_index(c, cw))];
      }
    } else {
      std::int64_t cnt[4][kMaxEdgeClasses] = {};
      std::size_t i = 0;
      for (; i + 4 <= deg; i += 4) {
        ++cnt[0][cls_[static_cast<std::size_t>(row[i])]];
        ++cnt[1][cls_[static_cast<std::size_t>(row[i + 1])]];
        ++cnt[2][cls_[static_cast<std::size_t>(row[i + 2])]];
        ++cnt[3][cls_[static_cast<std::size_t>(row[i + 3])]];
      }
      for (; i < deg; ++i) ++cnt[0][cls_[static_cast<std::size_t>(row[i])]];
      for (int cw = 0; cw < kMaxEdgeClasses; ++cw) {
        const std::int64_t k = cnt[0][cw] + cnt[1][cw] + cnt[2][cw] + cnt[3][cw];
        pairs_[static_cast<std::size_t>(class_pair_index(old_c, cw))] -= k;
        pairs_[static_cast<std::size_t>(class_pair_index(c, cw))] += k;
      }
    }
    cls_[v] = c;
    return true;
  }

  // The flat unordered-pair counters, indexed by class_pair_index.
  const std::int64_t* pairs() const { return pairs_.data(); }
  std::span<const std::uint8_t> classes() const { return cls_; }

 private:
  std::vector<std::uint8_t> cls_;
  std::array<std::int64_t, kMaxClassPairs> pairs_{};
};

}  // namespace pp
