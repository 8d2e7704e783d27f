// Well-mixed batch engine: O(|Λ|)-memory multiset simulation on cliques.
//
// On a complete graph the scheduler's pick distribution depends only on the
// *state counts*, never on node identity: an interaction is an ordered pair
// of distinct agents chosen uniformly, so the probability that it realises
// the ordered state pair (a, b) is
//
//     P[a, b] = count[a] · (count[b] − [a = b]) / (n · (n − 1)).
//
// This engine therefore keeps the configuration as a count vector over the
// compiled dense state ids — O(|Λ|) words instead of Θ(n) node states and
// Θ(n²) edge endpoints — and advances time in batches of B interactions:
//
//   1. sample the batch composition (how many of the B draws hit each
//      occupied ordered pair class) as a chain of conditional binomials —
//      a multinomial over the pre-batch counts;
//   2. apply each pair class's compiled transition and census delta in bulk
//      (k identical interactions are four counter updates and one fused
//      k·delta census add);
//   3. if the stability predicate flips across the batch, binary-search the
//      batch for the exact stabilization step: split the composition with
//      multivariate hypergeometric draws (the composition of a uniformly
//      ordered prefix), test the predicate on each half, and recurse.
//
// A batch pays for its picks, not for n.  With occ occupied states it costs
// O(occ log occ) to re-sort them, O(occ) for the alias tables, one alias
// draw per pick no chain covers, `heavy` binomials per chained responder row
// (see kChainCost), an O(occ·⌈occ/64⌉) bitmap sweep of the rows that hold
// picks and O(pair classes) to apply them (README.md, "Per-batch cost").
// Once B ≫ occ², chains cover all but O(occ·heavy) picks per batch, so a
// batch's cost stops growing with B and the step rate decouples from the
// graph size: cliques at n = 10⁷–10⁸ — whose edge lists (Θ(n²)) cannot even be
// materialised — simulate billions of interactions per second on one core.
//
// Approximation caveat (why this is opt-in): within one batch every draw is
// taken from the *pre-batch* counts, i.e. the composition is multinomial
// where the exact process is a Markov chain over interactions.  The bias per
// batch scales with how much the composition actually moves, so the default
// leap is *error-controlled*: B starts at n/64 and is retuned after every
// batch toward a moved-mass target of ~n/16, growing to n in quiet phases
// (where nearly every draw is silent and larger leaps cost no accuracy) and
// shrinking back when the composition drifts.  The simulated law stays
// indistinguishable from the exact one at the resolution of our experiments
// (bench/wellmixed.cpp enforces 3σ agreement of mean stabilization steps
// against the per-interaction engine at overlapping n); an explicit
// sim_options::wellmixed_batch pins B fixed.
// A batch whose bulk application would drive a counter negative — possible
// because the multinomial can over-draw a near-empty class — is resampled at
// half the batch size, falling back to an exact per-interaction step at
// B = 1, so counts stay valid unconditionally.  Per-edge seeded equivalence
// with the reference simulator is intentionally NOT preserved (there are no
// edges); determinism for a fixed (seed, batch size) is.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "engine/block_rng.h"
#include "engine/compiled_protocol.h"
#include "engine/engine.h"  // kEngineClosureBudget, shared with the sweeps
#include "engine/wellmixed/sampling.h"
#include "obs/probe.h"
#include "support/expects.h"
#include "support/rng.h"

namespace pp {

// The initial configuration as a state multiset: (state, multiplicity) pairs
// with multiplicities summing to n.  Building it is the only O(n) work in a
// well-mixed run; sweeps build it once and share it across trials.
template <node_census_protocol P>
using wellmixed_multiset =
    std::vector<std::pair<typename P::state_type, std::uint64_t>>;

template <node_census_protocol P>
wellmixed_multiset<P> initial_multiset(const P& proto, std::uint64_t n) {
  expects(n >= 2, "initial_multiset: population must have at least 2 agents");
  expects(n <= static_cast<std::uint64_t>(std::numeric_limits<node_id>::max()),
          "initial_multiset: population exceeds node_id range");
  wellmixed_multiset<P> classes;
  std::unordered_map<std::uint64_t, std::size_t> index;  // encode(s) -> class
  // Uniform protocols hit the cache on every node after the first.
  std::uint64_t last_code = 0;
  std::size_t last_class = SIZE_MAX;
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto s = proto.initial_state(static_cast<node_id>(v));
    const std::uint64_t code = proto.encode(s);
    if (last_class != SIZE_MAX && code == last_code) {
      ++classes[last_class].second;
      continue;
    }
    auto [it, inserted] = index.emplace(code, classes.size());
    if (inserted) classes.emplace_back(s, 1);
    else ++classes[it->second].second;
    last_code = code;
    last_class = it->second;
  }
  return classes;
}

namespace wellmixed_detail {

// One pair class of a batch composition: k interactions whose pre-batch
// ordered state pair is (a, b).
struct pair_class {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t k = 0;
};

}  // namespace wellmixed_detail

// Runs one well-mixed (clique) election over the state multiset `initial`
// (multiplicities summing to n) on a prepared compiled table.  As with
// run_compiled, a closed() table is never mutated, so one table can be
// shared read-only by concurrent trials.
//
// Result semantics match run_until_stable except where node identity is
// meaningless in a multiset configuration: `leader` is 0 if any agent
// outputs leader in the final configuration (agents on a clique are
// exchangeable) and -1 otherwise, and `distinct_states_used` counts states
// whose multiplicity was ever positive (transient states that would only
// exist inside an unordered batch are not observable and not counted).
// `probe` (obs/probe.h): phase telemetry under the same zero-cost contract
// as run_compiled — with the default null_probe every hook is an
// `if constexpr` dead branch, and an enabled probe never alters the draw
// stream or the result.  Batch semantics: steps are credited batch-wise
// (on_steps), batch retries (the multinomial over-drew) are counted, and
// rng draws are tracked only on the exact per-interaction path (the batch
// samplers' internal draw counts are distribution-dependent).
template <node_census_protocol P, typename Probe = obs::null_probe>
election_result run_wellmixed(compiled_protocol<P>& compiled,
                              const wellmixed_multiset<P>& initial,
                              std::uint64_t n, rng gen,
                              const sim_options& options = {},
                              [[maybe_unused]] Probe* probe = nullptr) {
  using traits = census_traits<P>;
  using wellmixed_detail::pair_class;
  expects(n >= 2, "run_wellmixed: population must have at least 2 agents");
  if constexpr (Probe::enabled) {
    expects(probe != nullptr, "run_wellmixed: enabled probe type needs a probe");
  }
  [[maybe_unused]] const std::uint64_t fills_at_start = compiled.lazy_fills();

  // ---- configuration: counts over interned ids, O(|Λ|) ----
  std::vector<std::uint64_t> counts;
  std::vector<std::uint8_t> seen;  // census marks, aligned with counts
  std::vector<std::int64_t> net;
  std::vector<std::uint8_t> in_touched;
  std::vector<std::uint8_t> in_occupied;
  const bool census = options.state_census;
  auto ensure_sized = [&] {
    if (counts.size() < compiled.num_states()) {
      counts.resize(compiled.num_states(), 0);
      seen.resize(compiled.num_states(), 0);
      net.resize(compiled.num_states(), 0);
      in_touched.resize(compiled.num_states(), 0);
      in_occupied.resize(compiled.num_states(), 0);
    }
  };

  std::int64_t totals[kMaxCensusCounters] = {};
  {
    std::uint64_t mass = 0;
    for (const auto& [state, k] : initial) {
      const auto id = compiled.intern(state);
      ensure_sized();
      counts[id] += k;
      seen[id] = 1;
      mass += k;
      const auto& c = compiled.contribution(id);
      for (int i = 0; i < traits::kCounters; ++i) {
        totals[i] += static_cast<std::int64_t>(k) * c[static_cast<std::size_t>(i)];
      }
    }
    expects(mass == n, "run_wellmixed: initial multiplicities must sum to n");
  }

  // Batch size: the knob is clamped to [1, n] — a leap past n interactions
  // makes no sense for the approximation (and the pick-count bookkeeping
  // assumes B <= n <= 2^31 so products with counts stay in u64 and per-cell
  // pick counts fit u32).
  //
  // With the knob at 0 the leap is *error-controlled* rather than fixed:
  // the within-batch bias comes from sampling every draw against the
  // pre-batch counts, so it scales with how much the composition moves per
  // batch, not with B itself.  The controller targets a moved mass (Σ|net
  // per-state change|) of ~n/16 per batch: after each applied batch B is
  // rescaled by target/moved, clamped to a factor-2 step and [1, n].  In
  // fully active phases this recovers the old conservative B ≈ n/64; in
  // quiet phases (waiting-phase elections, where nearly every interaction
  // is silent) B grows to n and the engine advances time analytically —
  // the same "skip the quiet phase" shape as the silent-edge scheduler.
  // The controller is a deterministic function of the sampled trajectory,
  // so fixed-seed determinism is preserved; an explicit knob pins B fixed
  // (the tests' determinism/contract cases rely on that).
  const std::uint64_t auto_batch = n / 64 > 0 ? n / 64 : 1;
  const bool adaptive = options.wellmixed_batch == 0;
  const std::uint64_t requested =
      options.wellmixed_batch > 0 ? options.wellmixed_batch : auto_batch;
  const std::uint64_t batch_size = requested < n ? requested : n;
  std::uint64_t adaptive_batch = batch_size;
  const std::uint64_t moved_target = n / 16 > 0 ? n / 16 : 1;

  // All batch randomness flows through the block-buffered generator: one
  // rng::fill call per 1024 raw words and inline Lemire reduction, instead
  // of a non-inlined rng call per draw.
  block_rng draw(gen);

  // The compiled flat table spans *all* interned states (capacity² entries);
  // at well-mixed scales |Λ| runs to thousands, so that table is hundreds of
  // megabytes and every transition lookup is a cache miss.  The batch loop
  // only touches the occupied-pair working set (a few thousand pairs at a
  // time), so a small direct-mapped cache in front of the table keeps hot
  // lookups in L2; collisions simply evict (it is a cache, not a map).
  struct cached_pair {
    std::uint64_t key;
    typename compiled_protocol<P>::entry e;
  };
  std::vector<cached_pair> pair_cache(std::size_t{1} << 14,
                                      cached_pair{UINT64_MAX, {}});
  auto xition = [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    cached_pair& c = pair_cache[(key * 0x9e3779b97f4a7c15ull) >> 50];
    if (c.key != key) {
      c.e = compiled.transition(a, b);
      c.key = key;
    }
    return c.e;
  };

  // Scratch reused across batches; all O(|Λ|) or O(occupied classes).
  std::vector<pair_class> classes, prefix, seg, left, right;
  std::vector<std::uint32_t> touched;
  std::int64_t batch_delta[kMaxCensusCounters];
  // Probe only: non-silent steps of the last accumulated composition.
  [[maybe_unused]] std::uint64_t batch_active = 0;

  // Occupied ids (count > 0), maintained incrementally across batches and
  // compacted + sorted by descending count at each batch start, so batch
  // sampling never scans the full id space.  `cum[i]` is the total count of
  // occupied[0..i); the chains below walk the heavy states first and almost
  // always drain before reaching the tail.
  std::vector<std::uint32_t> occupied;
  std::vector<std::uint64_t> cum;
  std::vector<std::uint64_t> ka;  // initiator picks per occupied index
  auto occupy = [&](std::uint32_t id) {
    if (!in_occupied[id]) {
      in_occupied[id] = 1;
      occupied.push_back(id);
    }
  };
  for (std::uint32_t id = 0; id < counts.size(); ++id) {
    if (counts[id] > 0) occupy(id);
  }

  // Accumulates `cls` into the net per-state count change and the census
  // delta.  Returns false if applying the net change would drive a counter
  // negative (the multinomial over-drew a near-empty class).
  auto accumulate_net = [&](const std::vector<pair_class>& cls) {
    for (const auto t : touched) {
      net[t] = 0;
      in_touched[t] = 0;
    }
    touched.clear();
    for (int c = 0; c < traits::kCounters; ++c) batch_delta[c] = 0;
    auto bump = [&](std::uint32_t id, std::int64_t d) {
      if (!in_touched[id]) {
        in_touched[id] = 1;
        touched.push_back(id);
      }
      net[id] += d;
    };
    if constexpr (Probe::enabled) batch_active = 0;
    for (const auto& pc : cls) {
      const auto e = xition(pc.a, pc.b);
      ensure_sized();  // the transition may have interned new states
      const auto k = static_cast<std::int64_t>(pc.k);
      if constexpr (Probe::enabled) {
        if (e.a2 != pc.a || e.b2 != pc.b) batch_active += pc.k;
      }
      bump(pc.a, -k);
      bump(pc.b, -k);
      bump(e.a2, +k);
      bump(e.b2, +k);
      for (int c = 0; c < traits::kCounters; ++c) {
        batch_delta[c] += k * e.delta[static_cast<std::size_t>(c)];
      }
    }
    for (const auto t : touched) {
      if (static_cast<std::int64_t>(counts[t]) + net[t] < 0) return false;
    }
    return true;
  };

  // Applies the accumulated net change; returns the moved mass Σ|net| (the
  // adaptive controller's error signal — zero iff the batch was all-silent).
  auto apply_net = [&] {
    std::uint64_t moved = 0;
    for (const auto t : touched) {
      moved += static_cast<std::uint64_t>(net[t] < 0 ? -net[t] : net[t]);
      counts[t] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(counts[t]) + net[t]);
      if (counts[t] > 0) {
        occupy(t);
        if (census) seen[t] = 1;
      }
    }
    for (int c = 0; c < traits::kCounters; ++c) totals[c] += batch_delta[c];
    return moved;
  };

  // Error-controlled leap update: rescale the next batch toward the moved-
  // mass target, at most doubling/halving per batch and clamped to [1, n].
  // (applied_B <= n <= 2^31 and moved_target <= n, so the product fits u64;
  // pure integer arithmetic keeps the trajectory machine-independent.)
  auto retune_batch = [&](std::uint64_t moved, std::uint64_t applied_B) {
    if (!adaptive) return;
    std::uint64_t next;
    if (moved == 0) {
      next = adaptive_batch * 2;
    } else {
      next = applied_B * moved_target / moved;
      if (next < applied_B / 2) next = applied_B / 2;
      if (next > applied_B * 2) next = applied_B * 2;
    }
    if (next < 1) next = 1;
    if (next > n) next = n;
    adaptive_batch = next;
  };

  // Drops emptied ids, re-sorts the survivors by descending count and
  // rebuilds the prefix sums.  O(occ log occ) per batch.
  auto compact_occupied = [&] {
    std::size_t out = 0;
    for (const auto id : occupied) {
      if (counts[id] > 0) occupied[out++] = id;
      else in_occupied[id] = 0;
    }
    occupied.resize(out);
    std::sort(occupied.begin(), occupied.end(),
              [&](std::uint32_t x, std::uint32_t y) { return counts[x] > counts[y]; });
    cum.resize(occupied.size() + 1);
    cum[0] = 0;
    for (std::size_t i = 0; i < occupied.size(); ++i) {
      cum[i + 1] = cum[i] + counts[occupied[i]];
    }
    ensure(cum[occupied.size()] == n, "run_wellmixed: counts must sum to n");
  };

  // Vose alias tables over a contiguous range of occupied indices: one O(1)
  // categorical draw costs two buffered uniforms and two L1 loads, which is
  // what makes the light-class picks affordable.  Rebuilt per batch in
  // O(range) from the frozen batch-start counts.
  struct alias_table {
    std::vector<double> prob;
    std::vector<std::uint32_t> target;
    std::size_t base = 0;
  };
  alias_table full_alias, tail_alias;
  std::vector<std::uint32_t> alias_small, alias_large;  // build scratch
  auto build_alias = [&](alias_table& t, std::size_t lo, std::size_t hi) {
    const std::size_t k = hi - lo;
    t.base = lo;
    t.prob.assign(k, 1.0);
    t.target.resize(k);
    const double scale =
        static_cast<double>(k) / static_cast<double>(cum[hi] - cum[lo]);
    alias_small.clear();
    alias_large.clear();
    for (std::size_t i = 0; i < k; ++i) {
      t.prob[i] = static_cast<double>(counts[occupied[lo + i]]) * scale;
      t.target[i] = static_cast<std::uint32_t>(i);
      (t.prob[i] < 1.0 ? alias_small : alias_large)
          .push_back(static_cast<std::uint32_t>(i));
    }
    while (!alias_small.empty() && !alias_large.empty()) {
      const auto s = alias_small.back();
      const auto l = alias_large.back();
      alias_small.pop_back();
      t.target[s] = l;
      t.prob[l] -= 1.0 - t.prob[s];
      if (t.prob[l] < 1.0) {
        alias_large.pop_back();
        alias_small.push_back(l);
      }
    }
  };
  auto alias_draw = [&](const alias_table& t) -> std::size_t {
    const std::size_t i =
        static_cast<std::size_t>(draw.uniform_below(t.prob.size()));
    return t.base + (draw.uniform01() < t.prob[i] ? i : t.target[i]);
  };

  // Pick-count matrix over occupied-index pairs: kmat[i * occ + j] is the
  // number of the batch's interactions whose ordered state pair is
  // (occupied[i], occupied[j]).  Chains add in bulk, alias picks increment —
  // no per-pick allocation.  kbits marks the written cells, one row of
  // ⌈occ/64⌉ words per initiator, so the sweep into pair classes visits only
  // those cells instead of all occ² (a batch fills a few percent of them).
  std::vector<std::uint32_t> kmat;
  std::vector<std::uint64_t> kbits;

  // A conditional-binomial chain is worth running for a class only while it
  // expects at least this many picks; below that, O(1) alias draws are
  // cheaper.  Chains and individual draws are exact regroupings of the same
  // iid multinomial draws — only the grouping adapts, never the law.
  constexpr double kChainCutoff = 10.0;
  // A responder row chains through the heavy prefix only when it holds at
  // least kChainCost picks per heavy class; a sparser row draws every pick
  // from the alias table.  A chain link is a binomial (an inversion pays a
  // log per success), so it pays off only where it replaces many alias
  // picks.  The bound grows with `heavy`, so rows that spread few picks
  // over many heavy classes stop chaining while the large rows of large-n
  // batches keep their chains.  Fitted in README.md ("Per-batch cost").
  constexpr std::uint64_t kChainCost = 8;

  // Samples the composition of the next B interactions from the current
  // counts: initiator-state marginals are a multinomial over counts/n, and
  // responder states within each initiator class follow the conditional
  // leave-one-out weights (count[b] − [b = a])/(n − 1).  Heavy initiator
  // classes (expecting >= kChainCutoff picks), and the heavy responders of
  // rows that pass the kChainCost rule, are drawn with conditional
  // binomials; everything else is drawn pick-by-pick through the alias
  // tables, with a proposal b = a re-drawn with probability 1/count[a]
  // (rejection makes the accepted law exactly the leave-one-out
  // distribution).
  auto sample_batch = [&](std::uint64_t B) {
    classes.clear();
    compact_occupied();
    const std::size_t occ = occupied.size();
    // Heavy prefix: initiator chains expect B·count/n picks, so a class is
    // heavy when count·B >= kChainCutoff·n (counts and B are both <= n <=
    // 2^31, so the product fits u64).
    std::size_t heavy = 0;
    while (heavy < occ &&
           counts[occupied[heavy]] * B >=
               static_cast<std::uint64_t>(kChainCutoff) * n) {
      ++heavy;
    }
    build_alias(full_alias, 0, occ);
    if (heavy < occ) build_alias(tail_alias, heavy, occ);
    ka.assign(occ, 0);
    // The matrix and its bitmap are all-zero here: the sweep below clears
    // every cell and word it visits, so only growth needs a fill — no
    // O(occ²) zeroing per batch.
    if (kmat.size() < occ * occ) kmat.resize(occ * occ, 0);
    const std::size_t words = (occ + 63) / 64;
    if (kbits.size() < occ * words) kbits.resize(occ * words, 0);

    // ---- initiator marginals ----
    std::uint64_t rem = B;
    for (std::size_t i = 0; i < heavy && rem > 0; ++i) {
      const std::uint64_t ca = counts[occupied[i]];
      const std::uint64_t mass = n - cum[i];
      if (ca >= mass) {
        ka[i] += rem;
        rem = 0;
        break;
      }
      const std::uint64_t k = sample_binomial(
          draw, rem, static_cast<double>(ca) / static_cast<double>(mass));
      ka[i] += k;
      rem -= k;
    }
    for (; rem > 0; --rem) ++ka[alias_draw(tail_alias)];

    // ---- responders within each initiator class ----
    for (std::size_t ia = 0; ia < occ; ++ia) {
      if (ka[ia] == 0) continue;
      const std::uint32_t a = occupied[ia];
      const std::uint64_t ca = counts[a];
      std::uint64_t rem2 = ka[ia];
      std::uint32_t* const row = kmat.data() + ia * occ;
      std::uint64_t* const bits = kbits.data() + ia * words;
      const auto add = [&](std::size_t j, std::uint64_t k) {
        row[j] += static_cast<std::uint32_t>(k);
        bits[j / 64] |= std::uint64_t{1} << (j % 64);
      };
      if (rem2 >= kChainCost * heavy) {
        // Heavy prefix by conditional binomials over the leave-one-out
        // weights; one agent of state a is excluded wherever a sits.  With
        // no heavy class the tail table is the full one.
        for (std::size_t j = 0; j < heavy && rem2 > 0; ++j) {
          const std::uint64_t mass2 = (n - 1) - (cum[j] - (ia < j ? 1 : 0));
          const std::uint64_t w = counts[occupied[j]] - (j == ia ? 1 : 0);
          if (w >= mass2) {
            add(j, rem2);
            rem2 = 0;
            break;
          }
          const std::uint64_t kab = sample_binomial(
              draw, rem2, static_cast<double>(w) / static_cast<double>(mass2));
          add(j, kab);
          rem2 -= kab;
        }
        // Remainder goes to the tail classes.
        for (; rem2 > 0; --rem2) {
          std::size_t j;
          do {
            j = alias_draw(tail_alias);
          } while (j == ia && draw.uniform_below(ca) == 0);
          add(j, 1);
        }
      } else {
        // Light class: every pick through the full-distribution alias.
        for (; rem2 > 0; --rem2) {
          std::size_t j;
          do {
            j = alias_draw(full_alias);
          } while (j == ia && draw.uniform_below(ca) == 0);
          add(j, 1);
        }
      }
    }

    // ---- sweep the marked cells into pair classes (clearing as it goes),
    // in ascending j per row; a chain's zero draw marks a cell it left 0 ----
    for (std::size_t ia = 0; ia < occ; ++ia) {
      if (ka[ia] == 0) continue;
      std::uint32_t* const row = kmat.data() + ia * occ;
      std::uint64_t* const bits = kbits.data() + ia * words;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
          const std::size_t j =
              w * 64 + static_cast<std::size_t>(std::countr_zero(m));
          if (row[j] > 0) {
            classes.push_back({occupied[ia], occupied[j], row[j]});
            row[j] = 0;
          }
        }
        bits[w] = 0;
      }
    }
  };

  // One exact per-interaction step (the B = 1 fallback): inverse-CDF walk
  // over the counts for the initiator, then over the leave-one-out counts
  // for the responder.  Never rejects.
  auto single_step = [&] {
    std::uint64_t r = draw.uniform_below(n);
    std::uint32_t a = 0;
    while (r >= counts[a]) r -= counts[a], ++a;
    std::uint64_t r2 = draw.uniform_below(n - 1);
    std::uint32_t b = 0;
    while (true) {
      const std::uint64_t w = counts[b] - (b == a ? 1 : 0);
      if (r2 < w) break;
      r2 -= w;
      ++b;
    }
    const auto e = xition(a, b);
    if constexpr (Probe::enabled) {
      probe->on_draws(2);
      probe->on_step(e.a2 != a || e.b2 != b);
    }
    ensure_sized();
    --counts[a];
    --counts[b];
    ++counts[e.a2];
    ++counts[e.b2];
    occupy(e.a2);
    occupy(e.b2);
    if (census) {
      seen[e.a2] = 1;
      seen[e.b2] = 1;
    }
    for (int c = 0; c < traits::kCounters; ++c) {
      totals[c] += e.delta[static_cast<std::size_t>(c)];
    }
  };

  // Locates the first stable step inside a batch whose endpoint flipped the
  // predicate.  `seg` holds the composition of the still-unsearched segment;
  // a uniformly ordered prefix of t of its K interactions has a multivariate
  // hypergeometric composition, so each bisection level splits every class
  // with one hypergeometric draw.  Precondition: the predicate is false at
  // the segment start and true at its end; stability is absorbing (the
  // trackers' predicates are sound), so the flip point is unique and the
  // bisection is well-defined.  Appends the prefix composition to `prefix`
  // and returns its length.
  auto first_stable_prefix = [&](std::int64_t start[kMaxCensusCounters],
                                 std::uint64_t seg_total) -> std::uint64_t {
    std::uint64_t done = 0;
    while (seg_total > 1) {
      const std::uint64_t left_total = seg_total / 2;
      left.clear();
      right.clear();
      std::uint64_t rem_total = seg_total;
      std::uint64_t rem_left = left_total;
      std::int64_t left_delta[kMaxCensusCounters] = {};
      for (const auto& pc : seg) {
        const std::uint64_t kl =
            sample_hypergeometric(draw, rem_total, pc.k, rem_left);
        rem_total -= pc.k;
        rem_left -= kl;
        if (kl > 0) {
          left.push_back({pc.a, pc.b, kl});
          const auto e = xition(pc.a, pc.b);
          for (int c = 0; c < traits::kCounters; ++c) {
            left_delta[c] += static_cast<std::int64_t>(kl) *
                             e.delta[static_cast<std::size_t>(c)];
          }
        }
        if (pc.k > kl) right.push_back({pc.a, pc.b, pc.k - kl});
      }
      std::int64_t after_left[kMaxCensusCounters];
      for (int c = 0; c < traits::kCounters; ++c) {
        after_left[c] = start[c] + left_delta[c];
      }
      if constexpr (Probe::enabled) probe->on_predicate_evals(1);
      if (traits::stable(after_left)) {
        seg.swap(left);
        seg_total = left_total;
      } else {
        prefix.insert(prefix.end(), left.begin(), left.end());
        for (int c = 0; c < traits::kCounters; ++c) start[c] = after_left[c];
        done += left_total;
        seg.swap(right);
        seg_total -= left_total;
      }
    }
    prefix.insert(prefix.end(), seg.begin(), seg.end());
    return done + 1;
  };

  // Probe-only epilogue per advance: credit the steps and sample the census
  // trajectory at stride crossings (totals are already post-advance here).
  const auto probe_advance = [&]([[maybe_unused]] std::uint64_t applied,
                                 [[maybe_unused]] std::uint64_t active,
                                 [[maybe_unused]] std::uint64_t now) {
    if constexpr (Probe::enabled) {
      if (applied > 0) {
        probe->on_steps(applied, active);
        probe->on_batch();
      }
      if (probe->want_census(now)) {
        probe->on_census(now, totals, traits::kCounters);
      }
    }
  };
  const auto stable_totals = [&] {
    if constexpr (Probe::enabled) probe->on_predicate_evals(1);
    return traits::stable(totals);
  };

  election_result result;
  std::uint64_t steps = 0;
  while (!stable_totals()) {
    if (steps >= options.max_steps) {
      result.steps = steps;
      if (census) {
        for (const auto s : seen) result.distinct_states_used += s;
      }
      if constexpr (Probe::enabled) {
        probe->on_table_fills(compiled.lazy_fills() - fills_at_start);
      }
      return result;
    }
    std::uint64_t B = adaptive ? adaptive_batch : batch_size;
    if (options.max_steps - steps < B) B = options.max_steps - steps;
    while (true) {
      if (B <= 1) {
        single_step();  // records its own on_step/on_draws
        ++steps;
        probe_advance(0, 0, steps);
        // Grow back out of the exact regime so one over-drawn batch does
        // not pin the adaptive leap at per-interaction cost forever.
        if (adaptive && adaptive_batch < n) adaptive_batch *= 2;
        break;
      }
      sample_batch(B);
      if (!accumulate_net(classes)) {
        B /= 2;  // over-drew a near-empty class: retry at half the leap
        // Persist the damping so the next outer batch starts smaller too.
        if (adaptive && adaptive_batch > 1) adaptive_batch /= 2;
        if constexpr (Probe::enabled) probe->on_batch_retry();
        continue;
      }
      std::int64_t after[kMaxCensusCounters];
      for (int c = 0; c < traits::kCounters; ++c) {
        after[c] = totals[c] + batch_delta[c];
      }
      if constexpr (Probe::enabled) probe->on_predicate_evals(1);
      if (!traits::stable(after)) {
        retune_batch(apply_net(), B);
        steps += B;
        probe_advance(B, batch_active, steps);
        break;
      }
      // The predicate flips inside this batch: bisect for the exact step.
      prefix.clear();
      seg = classes;
      std::int64_t start[kMaxCensusCounters];
      for (int c = 0; c < traits::kCounters; ++c) start[c] = totals[c];
      const std::uint64_t t = first_stable_prefix(start, B);
      if (!accumulate_net(prefix)) {
        B /= 2;
        if (adaptive && adaptive_batch > 1) adaptive_batch /= 2;
        if constexpr (Probe::enabled) probe->on_batch_retry();
        continue;
      }
      apply_net();
      steps += t;
      probe_advance(t, batch_active, steps);
      break;
    }
  }

  result.stabilized = true;
  result.steps = steps;
  if (census) {
    for (const auto s : seen) result.distinct_states_used += s;
  }
  for (std::uint32_t id = 0; id < counts.size(); ++id) {
    if (counts[id] > 0 && compiled.output(id) == role::leader) {
      result.leader = 0;  // exchangeable representative; see the contract above
      break;
    }
  }
  if constexpr (Probe::enabled) {
    probe->on_table_fills(compiled.lazy_fills() - fills_at_start);
  }
  return result;
}

// Convenience wrapper: compiles the protocol lazily and runs one well-mixed
// election on a clique of n agents from the protocol's initial states.
template <node_census_protocol P, typename Probe = obs::null_probe>
election_result run_wellmixed(const P& proto, std::uint64_t n, rng gen,
                              const sim_options& options = {},
                              Probe* probe = nullptr) {
  compiled_protocol<P> compiled(proto);
  const auto initial = initial_multiset(proto, n);
  return run_wellmixed(compiled, initial, n, gen, options, probe);
}

// Prepared multi-trial well-mixed sweep: the shared initial multiset plus a
// compiled table closed within the engine budget.  When the closure succeeds
// the table is immutable and every trial shares it (safe across threads and
// forked processes); otherwise each trial compiles its own lazy table.  This
// is the one home of that policy — measure_election_wellmixed, the fleet
// sweeps and popsim's worker mode all run trials through it.
template <node_census_protocol P>
class wellmixed_sweep {
 public:
  // Borrows `proto`, which must outlive the sweep: past the closure budget
  // every trial compiles its own table from it.
  wellmixed_sweep(const P& proto, wellmixed_multiset<P> initial, std::uint64_t n)
      : proto_(&proto), initial_(std::move(initial)), n_(n), compiled_(proto) {
    for (const auto& [state, count] : initial_) compiled_.intern(state);
    shared_ = compiled_.close(kEngineClosureBudget);
  }

  wellmixed_sweep(const P& proto, std::uint64_t n)
      : wellmixed_sweep(proto, initial_multiset(proto, n), n) {}

  // One trial.  const because trials of a sweep run concurrently: when
  // shared, the closed table is never mutated; otherwise the trial runs on
  // its own local table.
  election_result run(rng gen, const sim_options& options = {}) const {
    return run(gen, options, static_cast<obs::null_probe*>(nullptr));
  }

  // Probed variant: same trial, same trajectory (the probe only reads).
  template <typename Probe>
  election_result run(rng gen, const sim_options& options, Probe* probe) const {
    if (shared_) {
      return run_wellmixed(compiled_, initial_, n_, gen, options, probe);
    }
    compiled_protocol<P> local(*proto_);
    return run_wellmixed(local, initial_, n_, gen, options, probe);
  }

  const wellmixed_multiset<P>& initial() const { return initial_; }
  std::uint64_t population() const { return n_; }
  // True iff the reachable space closed and the table is shared read-only.
  bool shared() const { return shared_; }
  // The prepared table (closed iff shared()) — what the fleet artifact
  // snapshots and validates.
  const compiled_protocol<P>& compiled() const { return compiled_; }

 private:
  const P* proto_;
  wellmixed_multiset<P> initial_;
  std::uint64_t n_;
  mutable compiled_protocol<P> compiled_;  // immutable once closed (shared)
  bool shared_ = false;
};

}  // namespace pp
