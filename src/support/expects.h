// Precondition and invariant checking helpers.
//
// `expects` guards public-interface preconditions and throws
// std::invalid_argument so that misuse is reported to the caller;
// `ensure` guards internal invariants and throws std::logic_error,
// signalling a bug in this library rather than in the caller.
//
// The passing path must stay allocation-free.  rng draws (uniform_below,
// geometric, bernoulli), the wellmixed samplers, the artifact byte_reader and
// compiled_protocol::closed_transition call these helpers once per draw or
// per table entry, so a message copied into a std::string on every call
// costs millions of heap allocations per setup.  The message is therefore
// taken as a std::string_view and turned into the exception's string only in
// the out-of-line throw helpers, on failure.
#pragma once

#include <stdexcept>
#include <string_view>

namespace pp {

namespace detail {
[[noreturn, gnu::cold]] void throw_invalid_argument(std::string_view what);
[[noreturn, gnu::cold]] void throw_logic_error(std::string_view what);
}  // namespace detail

// Throw std::invalid_argument with `what` unless `condition` holds.
inline void expects(bool condition, std::string_view what) {
  if (!condition) [[unlikely]] detail::throw_invalid_argument(what);
}

// Throw std::logic_error with `what` unless `condition` holds.
inline void ensure(bool condition, std::string_view what) {
  if (!condition) [[unlikely]] detail::throw_logic_error(what);
}

}  // namespace pp
