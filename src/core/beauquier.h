// The constant-state token protocol of Beauquier, Blanchard and Burman
// (OPODIS 2013), as analysed in §4.1 (Theorem 16).
//
// Input: a nonempty set of leader candidates.  Every candidate creates a
// black token; on every interaction the two nodes swap tokens; when two black
// tokens meet one of them turns white; a candidate that receives a white
// token becomes a follower and destroys the token.  Six states:
// {candidate?} x {no token, black, white}.
//
// Invariants (checked by tests and the tracker):
//   #candidates = #black + #white   and   #black >= 1.
// Hence the unique stable outcome is one candidate, one black token and no
// white tokens — which is exactly the tracker's stability predicate.  The
// protocol is always correct; Theorem 16 shows it stabilizes in
// O(H(G)·n·log n) steps in expectation and w.h.p., where H(G) is the
// worst-case hitting time of a classic random walk.
//
// An interaction in which neither node holds a token is an identity, so the
// two token-free states are the compiled engine's inert set, and almost
// every step of an election is one of those.  Elections on graphs therefore
// run on tuned_runner<beauquier_protocol> with the silent scheduler
// (engine/silent/): it tracks only the edges incident to a token holder and
// jumps over the rest geometrically.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/protocol.h"
#include "graph/graph.h"

namespace pp {

// Token carried by a node in the Beauquier protocol.
enum class bq_token : std::uint8_t { none = 0, black = 1, white = 2 };

// The six-state per-node state, also embedded as the backup sub-state of the
// Theorem 21 and Theorem 24 protocols.
struct bq_state {
  bool candidate = false;
  bq_token token = bq_token::none;

  friend bool operator==(const bq_state&, const bq_state&) = default;
};

// Initial state of a node given its candidate-input bit.
bq_state bq_init(bool candidate);

// The transition function: swap tokens, recolour on black-black (the
// initiator's token stays black), then a candidate holding a white token
// becomes a follower and destroys it.
void bq_interact(bq_state& initiator, bq_state& responder);

// Signed census of a configuration's candidate/token counts.
struct bq_counts {
  std::int64_t candidates = 0;
  std::int64_t black = 0;
  std::int64_t white = 0;

  void add(const bq_state& s, std::int64_t sign);
  // The stable configuration of the protocol (see header comment).
  bool stable() const { return candidates == 1 && black == 1 && white == 0; }
};

// The protocol object.  Candidates default to "every node" (the natural
// leader-election input); Theorem 16's general form takes any nonempty set.
class beauquier_protocol {
 public:
  using state_type = bq_state;

  // All nodes are candidates.
  explicit beauquier_protocol(node_id n);
  // Explicit candidate set; must be nonempty.
  beauquier_protocol(node_id n, std::vector<bool> candidates);

  node_id num_nodes() const { return n_; }

  state_type initial_state(node_id v) const;
  void interact(state_type& a, state_type& b) const { bq_interact(a, b); }
  role output(const state_type& s) const {
    return s.candidate ? role::leader : role::follower;
  }
  std::uint64_t encode(const state_type& s) const {
    return static_cast<std::uint64_t>(s.candidate) * 3 +
           static_cast<std::uint64_t>(s.token);
  }

  class tracker_type {
   public:
    tracker_type(const beauquier_protocol& proto, const graph& g,
                 std::span<const state_type> config);
    void on_interaction(const beauquier_protocol& proto, node_id u, node_id v,
                        const state_type& old_u, const state_type& old_v,
                        const state_type& new_u, const state_type& new_v);
    bool is_stable() const { return counts_.stable(); }
    const bq_counts& counts() const { return counts_; }

   private:
    bq_counts counts_;
  };

 private:
  node_id n_ = 0;
  std::vector<bool> candidates_;
};

static_assert(population_protocol<beauquier_protocol>);
static_assert(stability_tracker<beauquier_protocol::tracker_type, beauquier_protocol>);

}  // namespace pp
