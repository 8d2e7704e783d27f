#include "core/beauquier.h"

#include <algorithm>

#include "support/expects.h"

namespace pp {

bq_state bq_init(bool candidate) {
  if (candidate) return {true, bq_token::black};
  return {false, bq_token::none};
}

namespace {

// A candidate that holds a white token becomes a follower and destroys it.
void bq_resolve(bq_state& s) {
  if (s.candidate && s.token == bq_token::white) {
    s.candidate = false;
    s.token = bq_token::none;
  }
}

}  // namespace

void bq_interact(bq_state& initiator, bq_state& responder) {
  std::swap(initiator.token, responder.token);
  if (initiator.token == bq_token::black && responder.token == bq_token::black) {
    responder.token = bq_token::white;
  }
  bq_resolve(initiator);
  bq_resolve(responder);
}

void bq_counts::add(const bq_state& s, std::int64_t sign) {
  if (s.candidate) candidates += sign;
  if (s.token == bq_token::black) black += sign;
  if (s.token == bq_token::white) white += sign;
}

beauquier_protocol::beauquier_protocol(node_id n)
    : n_(n), candidates_(static_cast<std::size_t>(n), true) {
  expects(n >= 1, "beauquier_protocol: need n >= 1");
}

beauquier_protocol::beauquier_protocol(node_id n, std::vector<bool> candidates)
    : n_(n), candidates_(std::move(candidates)) {
  expects(n >= 1, "beauquier_protocol: need n >= 1");
  expects(candidates_.size() == static_cast<std::size_t>(n),
          "beauquier_protocol: candidate vector size must equal n");
  expects(std::any_of(candidates_.begin(), candidates_.end(),
                      [](bool c) { return c; }),
          "beauquier_protocol: candidate set must be nonempty");
}

beauquier_protocol::state_type beauquier_protocol::initial_state(node_id v) const {
  expects(v >= 0 && v < n_, "beauquier_protocol::initial_state: node out of range");
  return bq_init(candidates_[static_cast<std::size_t>(v)]);
}

beauquier_protocol::tracker_type::tracker_type(const beauquier_protocol&,
                                               const graph&,
                                               std::span<const state_type> config) {
  for (const state_type& s : config) counts_.add(s, +1);
}

void beauquier_protocol::tracker_type::on_interaction(
    const beauquier_protocol&, node_id, node_id, const state_type& old_u,
    const state_type& old_v, const state_type& new_u, const state_type& new_v) {
  counts_.add(old_u, -1);
  counts_.add(old_v, -1);
  counts_.add(new_u, +1);
  counts_.add(new_v, +1);
}

}  // namespace pp
