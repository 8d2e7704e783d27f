// Compiled transition tables for population protocols.
//
// Protocols in this library have small finite state spaces (the fast
// protocol's |Λ| is O(log² n), Theorem 24), so the classic speedup applies:
// intern every reachable state into a dense uint32 id and memoise the pair
// transition (a, b) -> (a', b') in a flat table.  After compilation one
// scheduler step is two array loads, one 12-byte table load and two stores —
// no protocol logic, no branches on state contents.
//
// Each table entry also carries the interaction's effect on a small integer
// census (leaders / tokens / opinion counts, see census_traits below), so the
// per-protocol stability trackers of the reference simulator collapse to
// "add 4 small ints, test a predicate" — and the state census that the
// reference simulator pays an unordered_set probe for becomes a byte-array
// mark on the interned id.
//
// The table is filled lazily: a pair is compiled the first time the scheduler
// produces it, so huge products of *representable* states cost nothing —
// only pairs that actually occur are materialised.  For protocols whose
// reachable space is small, `close()` runs the pairwise reachability closure
// from the initial states and precomputes every entry; a closed table is
// immutable, which lets one compiled_protocol be shared read-only across the
// threads of a parameter sweep.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/protocol.h"
#include "support/expects.h"

namespace pp {

// census_traits<P>: a flat-integer mirror of P::tracker_type.
//
// A specialisation describes the protocol's stability predicate as a pure
// function of a small vector of state counts:
//   * kCounters                 — number of counters (<= kMaxCensusCounters);
//   * accumulate(proto, s, t, sign) — add `sign` times state s's contribution
//                                 to the counter array t (must mirror the
//                                 tracker's add() exactly, so the compiled
//                                 predicate fires on the same step);
//   * stable(t)                 — the tracker's is_stable() over the totals.
template <typename P>
struct census_traits;

inline constexpr int kMaxCensusCounters = 4;

// edge_census_traits<P>: the edge-aware generalisation (engine/edgecensus/).
//
// Some trackers — star_protocol's "no undecided-undecided edge" — count edge
// *classes*, which no flat state-count vector can express.  An edge-census
// specialisation maps every state to one of kClasses small class ids and
// declares stability as a joint predicate over the node-census totals and
// the per-unordered-class-pair edge counters:
//   * kCounters / accumulate    — the node-census mirror, as census_traits;
//   * kClasses                  — edge classes (<= kMaxEdgeClasses);
//   * class_of(proto, s)        — class id of state s in [0, kClasses);
//   * stable(t, pairs)          — is_stable() over the node totals t and the
//                                 edge counters pairs, where pairs[p] counts
//                                 the edges whose endpoint classes form the
//                                 unordered pair with class_pair_index p.
// The engine maintains the pair counters incrementally (O(deg) per class
// flip, engine/edgecensus/edgecensus.h); protocols whose trackers need more
// than state counts plus edge-class counts (id_protocol's hash census) stay
// on the reference simulator.
template <typename P>
struct edge_census_traits;

inline constexpr int kMaxEdgeClasses = 4;
inline constexpr int kMaxClassPairs = kMaxEdgeClasses * (kMaxEdgeClasses + 1) / 2;

// Index of the unordered class pair {a, b} in the flat edge-counter array:
// triangular row-major over lo = min(a, b), so (0,0) is 0 and class pairs of
// a trait with kClasses < kMaxEdgeClasses occupy a stable prefix-independent
// subset (the indexing never depends on the trait's own class count).
constexpr int class_pair_index(int a, int b) {
  const int lo = a < b ? a : b;
  const int hi = a < b ? b : a;
  return lo * (2 * kMaxEdgeClasses - lo + 1) / 2 + (hi - lo);
}

// Counter-shaped protocols: the tracker is a pure predicate on state counts.
template <typename P>
concept node_census_protocol =
    population_protocol<P> &&
    requires(const P proto, const typename P::state_type& s, std::int64_t* t) {
      { census_traits<P>::kCounters } -> std::convertible_to<int>;
      { census_traits<P>::accumulate(proto, s, t, std::int64_t{1}) };
      { census_traits<P>::stable(t) } -> std::same_as<bool>;
    };

// Edge-census protocols: the tracker additionally counts edge classes.
template <typename P>
concept edge_census_protocol =
    population_protocol<P> &&
    requires(const P proto, const typename P::state_type& s, std::int64_t* t) {
      { edge_census_traits<P>::kCounters } -> std::convertible_to<int>;
      { edge_census_traits<P>::kClasses } -> std::convertible_to<int>;
      { edge_census_traits<P>::accumulate(proto, s, t, std::int64_t{1}) };
      { edge_census_traits<P>::class_of(proto, s) } -> std::convertible_to<int>;
      { edge_census_traits<P>::stable(t, t) } -> std::same_as<bool>;
    };

// Anything the engine can compile: either census model works — the node
// counters, contributions and deltas below are resolved through
// census_model_t, so one compiled_protocol serves both.
template <typename P>
concept compilable_protocol = node_census_protocol<P> || edge_census_protocol<P>;

// The trait that supplies P's node counters (kCounters / accumulate): the
// edge-census trait when P declares one, census_traits otherwise.
template <typename P>
using census_model_t =
    std::conditional_t<edge_census_protocol<P>, edge_census_traits<P>,
                       census_traits<P>>;

// kClasses of an edge-census protocol, 0 for counter-shaped ones (usable in
// static_asserts without naming an undefined trait specialisation).
template <typename P>
constexpr int edge_classes_of() {
  if constexpr (edge_census_protocol<P>) {
    return edge_census_traits<P>::kClasses;
  } else {
    return 0;
  }
}

// ----------------------------------------------------------------------------
// Packed transition entries.
//
// Once a table is closed, |Λ| is known, so state ids can be stored at the
// narrowest width that holds them: u8 when |Λ| <= 256, u16 when <= 65536, u32
// otherwise.  The per-step table load shrinks with the ids — 4 bytes (u8,
// census delta re-encoded as four signed nibbles), 8 bytes (u16) or the
// original 12 (u32) — and, more importantly, so does the n-word config array
// the engine's two random touches per step land in.  packed_entry<W> mirrors
// compiled_protocol::entry's semantics exactly: delta_nonzero() is false iff
// the wide entry's delta word is all-zero, and delta_of(c) returns the same
// int8 value, so a packed run declares stability on the same step as the
// wide run (the bit-identity the engine tests pin).

// Primary template: W-wide ids + the wide entry's int8 delta array (8 bytes
// at u16, 12 at u32).  The u8 specialization below compresses further.
template <typename W>
struct packed_entry {
  W a2 = 0;
  W b2 = 0;
  std::array<std::int8_t, kMaxCensusCounters> delta{};

  bool delta_nonzero() const {
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(delta));
    std::memcpy(&bits, delta.data(), sizeof(bits));
    return bits != 0;
  }
  std::int64_t delta_of(int c) const { return delta[static_cast<std::size_t>(c)]; }
};

template <>
struct packed_entry<std::uint8_t> {
  std::uint8_t a2 = 0;
  std::uint8_t b2 = 0;
  // Census delta as four signed nibbles (counter c occupies bits [4c, 4c+4)).
  // A zero word means "no census change" — the same test as the wide entry's
  // delta_bits != 0, because a nibble encodes 0 iff the delta is 0.  Nibble
  // range is checked at pack time via deltas_fit_nibble().
  std::uint16_t delta = 0;

  static bool delta_fits(int d) { return d >= -8 && d <= 7; }
  static std::uint16_t encode_delta(
      const std::array<std::int8_t, kMaxCensusCounters>& d) {
    std::uint16_t word = 0;
    for (int c = 0; c < kMaxCensusCounters; ++c) {
      word = static_cast<std::uint16_t>(
          word | static_cast<std::uint16_t>(
                     (static_cast<std::uint16_t>(d[static_cast<std::size_t>(c)]) & 0xF)
                     << (4 * c)));
    }
    return word;
  }

  bool delta_nonzero() const { return delta != 0; }
  std::int64_t delta_of(int c) const {
    // Place the nibble in a byte's high half, then sign-extend with an
    // arithmetic shift (well-defined since C++20).
    const auto high = static_cast<std::uint8_t>((delta >> (4 * c)) << 4);
    return static_cast<std::int8_t>(high) >> 4;
  }
};
static_assert(sizeof(packed_entry<std::uint8_t>) == 4);
static_assert(sizeof(packed_entry<std::uint16_t>) == 8);
static_assert(sizeof(packed_entry<std::uint32_t>) == 12);

// ----------------------------------------------------------------------------
// The compiled table.

template <compilable_protocol P>
class compiled_protocol {
 public:
  using state_type = typename P::state_type;
  using state_id = std::uint32_t;
  static constexpr state_id kNotCompiled = UINT32_MAX;
  static constexpr int kCounters = census_model_t<P>::kCounters;
  static_assert(kCounters >= 1 && kCounters <= kMaxCensusCounters);
  static_assert(edge_classes_of<P>() <= kMaxEdgeClasses);

  // One compiled transition.  `a2` doubles as the fill sentinel: a real entry
  // can never map the initiator to kNotCompiled.
  struct entry {
    state_id a2 = kNotCompiled;
    state_id b2 = 0;
    // Census change of applying the transition:
    //   contribution(a2) + contribution(b2) - contribution(a) - contribution(b).
    std::array<std::int8_t, kMaxCensusCounters> delta{};
  };
  static_assert(sizeof(entry) == 12);

  // Borrows `proto`, which must outlive the compiled table.
  explicit compiled_protocol(const P& proto) : proto_(&proto) {}

  const P& protocol() const { return *proto_; }

  // Dense id of `s`, interning it on first sight.  On a closed table every
  // reachable state is already present, so this never mutates (and is safe
  // to call concurrently); an unreachable state on a closed table is a
  // contract violation and fails loudly.
  state_id intern(const state_type& s) {
    const auto found = index_.find(proto_->encode(s));
    if (found != index_.end()) return found->second;
    ensure(!closed_, "compiled_protocol: state outside the closed reachable set");
    const auto id = static_cast<state_id>(states_.size());
    index_.emplace(proto_->encode(s), id);
    states_.push_back(s);
    roles_.push_back(proto_->output(s));
    contrib_.push_back(contribution_of(s));
    if constexpr (edge_census_protocol<P>) {
      const int c = edge_census_traits<P>::class_of(*proto_, s);
      ensure(c >= 0 && c < edge_census_traits<P>::kClasses,
             "compiled_protocol: edge class out of the trait's declared range");
      classes_.push_back(static_cast<std::uint8_t>(c));
    }
    if (states_.size() > cap_) grow();
    return id;
  }

  std::size_t num_states() const { return states_.size(); }
  const state_type& decode(state_id id) const {
    return states_[static_cast<std::size_t>(id)];
  }
  role output(state_id id) const { return roles_[static_cast<std::size_t>(id)]; }

  // Per-counter census contribution of one state (mirrors tracker add()).
  const std::array<std::int8_t, kMaxCensusCounters>& contribution(state_id id) const {
    return contrib_[static_cast<std::size_t>(id)];
  }

  // Edge class of an interned state (edge-census protocols only; mirrors
  // edge_census_traits<P>::class_of, computed once at intern time so the hot
  // loop's class lookups are a byte load from a |Λ|-entry table).
  std::uint8_t state_class(state_id id) const
    requires edge_census_protocol<P>
  {
    return classes_[static_cast<std::size_t>(id)];
  }

  // The compiled transition for the ordered pair (a, b), compiling it on
  // first use.  Returned by value: a lazy compile may grow the table and
  // relocate entries.
  entry transition(state_id a, state_id b) {
    const entry e = table_[static_cast<std::size_t>(a) * cap_ + b];
    if (e.a2 != kNotCompiled) [[likely]] return e;
    return compile_pair(a, b);
  }

  // The engine step loop's table interface, shared with packed_table:
  // at() is transition() in packed u32 entry form, and census marks resize
  // as a lazy run interns new ids.
  packed_entry<state_id> at(state_id a, state_id b) {
    const entry e = transition(a, b);
    return {e.a2, e.b2, e.delta};
  }
  void mark(std::vector<std::uint8_t>& seen, state_id id) const {
    if (id >= seen.size()) seen.resize(num_states(), 0);
    seen[id] = 1;
  }

  // Read-only transition lookup; only valid on a closed table, where every
  // pair is already compiled.
  const entry& closed_transition(state_id a, state_id b) const {
    ensure(closed_, "compiled_protocol: closed_transition on an open table");
    return table_[static_cast<std::size_t>(a) * cap_ + b];
  }

  // Dense id of an already-interned state; never interns (usable through a
  // const reference shared across sweep threads).  An unknown state is a
  // contract violation.
  state_id id_of(const state_type& s) const {
    const auto found = index_.find(proto_->encode(s));
    expects(found != index_.end(), "compiled_protocol: id_of on an unknown state");
    return found->second;
  }

  // True iff every compiled census delta component fits a signed nibble
  // ([-8, 7]) — the precondition for the 4-byte packed_entry<uint8_t> below.
  // All census_traits in this library contribute 0/1 flags per counter, so
  // deltas live in [-2, 2] and this holds; a future trait with weighted
  // contributions degrades to the u16 packing instead of miscompiling.
  // Requires a closed table.
  bool deltas_fit_nibble() const {
    ensure(closed_, "compiled_protocol: deltas_fit_nibble on an open table");
    const std::size_t k = states_.size();
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = 0; b < k; ++b) {
        const entry& e = table_[a * cap_ + b];
        for (int c = 0; c < kCounters; ++c) {
          const int d = e.delta[static_cast<std::size_t>(c)];
          if (d < -8 || d > 7) return false;
        }
      }
    }
    return true;
  }

  // Resident bytes of the flat transition table (capacity, not just the
  // interned prefix) — the table term of the engine's working set.
  std::size_t table_bytes() const { return cap_ * cap_ * sizeof(entry); }

  // Runs the pairwise reachability closure from the currently interned states
  // and fills every (a, b) entry.  Returns false — leaving the table usable
  // but lazy — if the closure would exceed `max_states`; returns true and
  // freezes the table otherwise.
  bool close(std::size_t max_states) {
    std::size_t done = 0;  // all pairs over ids < done are compiled
    while (done < states_.size()) {
      if (states_.size() > max_states) return false;
      const std::size_t k = states_.size();
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) {
          if (a >= done || b >= done) {
            transition(static_cast<state_id>(a), static_cast<state_id>(b));
          }
        }
      }
      done = k;
    }
    closed_ = states_.size() <= max_states;
    return closed_;
  }

  bool closed() const { return closed_; }

  // Lazily compiled pairs so far (monotone; frozen once the table closes).
  // Engine probes (obs/probe.h) difference this across a run to report how
  // much of the run's table was materialised on demand — the cost a closed
  // table amortises away.  Maintained unconditionally: compile_pair is the
  // cold path (each pair compiles once), so the increment is free.
  std::uint64_t lazy_fills() const { return fills_; }

 private:
  std::array<std::int8_t, kMaxCensusCounters> contribution_of(const state_type& s) const {
    std::int64_t t[kMaxCensusCounters] = {};
    census_model_t<P>::accumulate(*proto_, s, t, +1);
    std::array<std::int8_t, kMaxCensusCounters> c{};
    for (int i = 0; i < kCounters; ++i) c[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(t[i]);
    return c;
  }

  entry compile_pair(state_id a, state_id b) {
    state_type sa = decode(a);
    state_type sb = decode(b);
    proto_->interact(sa, sb);
    entry e;
    e.a2 = intern(sa);  // may grow the table; index (a, b) is recomputed below
    e.b2 = intern(sb);
    for (int c = 0; c < kCounters; ++c) {
      const auto i = static_cast<std::size_t>(c);
      e.delta[i] = static_cast<std::int8_t>(contrib_[e.a2][i] + contrib_[e.b2][i] -
                                            contrib_[a][i] - contrib_[b][i]);
    }
    table_[static_cast<std::size_t>(a) * cap_ + b] = e;
    ++fills_;
    return e;
  }

  // Doubles the id capacity and re-lays the flat table out at the new pitch.
  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 64 : cap_ * 2;
    std::vector<entry> new_table(new_cap * new_cap);
    const std::size_t old = std::min(states_.size() - 1, cap_);
    for (std::size_t a = 0; a < old; ++a) {
      for (std::size_t b = 0; b < old; ++b) {
        new_table[a * new_cap + b] = table_[a * cap_ + b];
      }
    }
    cap_ = new_cap;
    table_ = std::move(new_table);
  }

  const P* proto_;
  std::size_t cap_ = 0;
  std::vector<entry> table_;  // cap_² entries, index a * cap_ + b
  std::vector<state_type> states_;
  std::vector<role> roles_;
  std::vector<std::array<std::int8_t, kMaxCensusCounters>> contrib_;
  std::vector<std::uint8_t> classes_;  // edge-census protocols only
  std::unordered_map<std::uint64_t, state_id> index_;  // encode(s) -> id
  std::uint64_t fills_ = 0;  // pairs compiled lazily (see lazy_fills())
  bool closed_ = false;
};

// Immutable snapshot of a closed compiled table at word width W, laid out as
// a dense k×k array of packed entries (k = |Λ|, no capacity padding — the
// rows sit back to back, so the table's cache footprint is exactly
// k²·sizeof(packed_entry<W>)).  Built once per (protocol, width) and shared
// read-only across the trials of a sweep, like the closed table it snapshots.
template <typename W, compilable_protocol P>
class packed_table {
 public:
  explicit packed_table(const compiled_protocol<P>& compiled) {
    expects(compiled.closed(), "packed_table: requires a closed compiled table");
    k_ = compiled.num_states();
    expects(k_ <= static_cast<std::size_t>(std::numeric_limits<W>::max()) + 1,
            "packed_table: state ids do not fit the word width");
    if constexpr (std::is_same_v<W, std::uint8_t>) {
      expects(compiled.deltas_fit_nibble(),
              "packed_table: census deltas do not fit the u8 nibble encoding");
    }
    entries_.resize(k_ * k_);
    using state_id = typename compiled_protocol<P>::state_id;
    for (std::size_t a = 0; a < k_; ++a) {
      for (std::size_t b = 0; b < k_; ++b) {
        const auto& e = compiled.closed_transition(static_cast<state_id>(a),
                                                   static_cast<state_id>(b));
        packed_entry<W>& p = entries_[a * k_ + b];
        p.a2 = static_cast<W>(e.a2);
        p.b2 = static_cast<W>(e.b2);
        if constexpr (std::is_same_v<W, std::uint8_t>) {
          p.delta = packed_entry<std::uint8_t>::encode_delta(e.delta);
        } else {
          p.delta = e.delta;
        }
      }
    }
  }

  packed_entry<W> at(std::size_t a, std::size_t b) const {
    return entries_[a * k_ + b];
  }
  std::size_t num_states() const { return k_; }
  std::size_t bytes() const { return entries_.size() * sizeof(packed_entry<W>); }
  // The engine step loop's census-mark and fill hooks, shared with the lazy
  // compiled_protocol: the id space is closed, so the marks are sized once
  // up front and no pair is compiled during a run.
  void mark(std::vector<std::uint8_t>& seen, std::size_t id) const { seen[id] = 1; }
  std::uint64_t lazy_fills() const { return 0; }
  // Raw row-major entries (k² of them, padding-free per the static_asserts
  // above) — the bytes the fleet artifact snapshots and byte-compares.
  std::span<const packed_entry<W>> entries() const { return entries_; }

 private:
  std::size_t k_ = 0;
  std::vector<packed_entry<W>> entries_;
};

}  // namespace pp
