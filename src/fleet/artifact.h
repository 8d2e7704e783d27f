// Serializable protocol artefacts: the closed, immutable objects of a sweep
// — a closed compiled_protocol table, its packed_table snapshot, the graph
// (with its reorder permutation) and the well-mixed initial multiset — in a
// versioned, endianness-tagged, checksummed binary container, so worker
// processes (and, later, other hosts) can share one prepared sweep instead
// of each re-deriving it.
//
// Container layout (all integers native-endian; the header's endianness tag
// makes a foreign-endian reader fail loudly instead of mis-reading):
//
//   offset  size  field
//   0       4     magic ("PPAF" on little-endian disks)
//   4       4     endianness tag 0x01020304
//   8       4     format version (kArtifactVersion)
//   12      4     engine (artifact_engine)
//   16      4     section count
//   20      4     reserved (0)
//   24      8     payload length in bytes
//   32      8     FNV-1a 64 checksum of the payload
//   40      ...   sections: {tag u32, reserved u32, length u64, bytes}
//
// Versioning policy: any change to the header or a section layout bumps
// kArtifactVersion; loaders accept the versions whose layout they can parse
// exactly (currently {1, 2} — v2 only *added* the optional EDGE section) and
// reject everything else (artifacts are cheap to regenerate — the closed
// table is O(|Λ|²) — so there is no migration machinery).
//
// Each process passes over an artifact's bytes once:
//   * save_artifact streams the sections to the file with a running FNV-1a
//     and writes the 40-byte header last (a save that dies midway leaves a
//     zero header, which no load accepts); artifact_bytes runs the same
//     writer into one exactly presized buffer.  Bulk arrays (TABL, PACK,
//     EDGE) go out and come back as single copies of their in-memory bytes.
//     That is exact only for element types whose object representation is
//     their wire record — a fixed size and no padding
//     (std::has_unique_object_representations_v) — which static_asserts
//     pin; every other field is written one integer at a time.
//   * load_artifact reads the file once into a buffer sized by fstat;
//     artifact_from_bytes checks the checksum before parsing any section and
//     bounds every count by the bytes present before it sizes anything.
//   * open_sweep is the one way from a loaded artifact back to a runnable
//     sweep, and the one place a protocol_kind becomes a C++ type.  It
//     rebuilds the protocol, graph and compiled table — the closure is
//     deterministic — and validates that rebuild, the very object the trials
//     then run on, against the stored sections (validate_tuned_artifact /
//     validate_wellmixed_artifact below), with TABL, PACK and EDGE compared
//     in place.  The opened sweep owns the protocol and graph its runner
//     borrows.  popsim's --worker and --load-artifact modes and popsimd
//     all open artifacts through it.  A build that compiles a different
//     table than the artifact's producer fails loudly instead of silently
//     computing a different sweep; this is the version-skew gate of the
//     fleet protocol (src/fleet/README.md).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/star_protocol.h"
#include "engine/compiled_protocol.h"
#include "engine/engine.h"
#include "engine/wellmixed/wellmixed.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "support/expects.h"

namespace pp::fleet {

inline constexpr std::uint32_t kArtifactMagic = 0x46415050;  // "PPAF"
inline constexpr std::uint32_t kArtifactEndianTag = 0x01020304;
// Version 2 added the EDGE section (per-state edge classes) and the star
// protocol kind; version-1 readers reject such artifacts loudly.  Because
// nothing in the v1 layout changed, this build still reads v1 files
// (load accepts {1, 2}, save always writes 2).
inline constexpr std::uint32_t kArtifactVersion = 2;

// Which engine the artifact's sweep runs on.
enum class artifact_engine : std::uint32_t { tuned = 0, wellmixed = 1 };

// Protocols an artifact can describe.  The descriptor stores the *resolved*
// construction parameters (e.g. the fast protocol's h/L/α·L, which normally
// come from a seeded broadcast-time estimate), so every worker reconstructs
// exactly the producer's protocol object without re-estimating anything.
enum class protocol_kind : std::uint32_t { fast = 1, six = 2, star = 3 };

struct protocol_desc {
  protocol_kind kind = protocol_kind::fast;
  std::vector<std::uint64_t> params;  // fast: {h, L, α·L}; six: {n}

  friend bool operator==(const protocol_desc&, const protocol_desc&) = default;
};

protocol_desc fast_desc(const fast_params& params);
fast_params fast_params_of(const protocol_desc& desc);
protocol_desc six_desc(node_id n);
node_id six_population_of(const protocol_desc& desc);
// star_protocol is parameter-free: the descriptor is {star, {}} and
// expect_star_desc only validates the shape (workers construct
// star_protocol{} directly).
protocol_desc star_desc();
void expect_star_desc(const protocol_desc& desc);

// Semantic snapshot of a closed compiled_protocol table over its dense ids:
// the per-state encode() codes (the cross-process state identity), output
// roles, census contributions and the full k×k transition matrix.
struct table_section {
  std::uint32_t counters = 0;
  std::vector<std::uint64_t> codes;  // encode(state) per dense id
  std::vector<std::uint8_t> roles;   // role per dense id
  std::vector<std::array<std::int8_t, kMaxCensusCounters>> contrib;
  struct entry {
    std::uint32_t a2 = 0;
    std::uint32_t b2 = 0;
    std::array<std::int8_t, kMaxCensusCounters> delta{};

    friend bool operator==(const entry&, const entry&) = default;
  };
  std::vector<entry> entries;  // k×k, row-major (a·k + b)

  friend bool operator==(const table_section&, const table_section&) = default;
};
// The TABL arrays travel as single copies of their in-memory bytes, so each
// element's object representation must be its wire record: a2, b2 (u32),
// then the kMaxCensusCounters delta bytes, with no padding to leak.
static_assert(sizeof(table_section::entry) == 8 + kMaxCensusCounters &&
              std::has_unique_object_representations_v<table_section::entry>);
static_assert(sizeof(std::array<std::int8_t, kMaxCensusCounters>) == kMaxCensusCounters &&
              std::has_unique_object_representations_v<
                  std::array<std::int8_t, kMaxCensusCounters>>);

// Raw bytes of a packed_table<W> snapshot at the resolved config word width
// (the exact entries run_packed's hot loop loads).
struct packed_section {
  std::uint32_t width_bits = 0;  // 8 / 16 / 32
  std::uint64_t num_states = 0;
  std::vector<std::uint8_t> bytes;  // num_states² packed entries

  friend bool operator==(const packed_section&, const packed_section&) = default;
};

// The sweep's graph in its *original* labelling plus the vertex order the
// tuned engine relabels it with; old_of_new is tuned_runner's inverse
// permutation (empty for natural order), stored so a worker can verify its
// recomputed reordering matches the producer's bit-for-bit.
struct graph_section {
  std::uint32_t num_nodes = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // u < v, sorted
  std::uint32_t order = 0;  // vertex_order
  std::vector<std::uint32_t> old_of_new;  // empty for natural order

  friend bool operator==(const graph_section&, const graph_section&) = default;
};

// Edge-census declaration of a tuned sweep (edge-census protocols only):
// the number of edge classes and each dense state id's class, i.e. exactly
// the table run_packed's class-flip walks load.  The CSR adjacency itself is
// derived deterministically from the GRPH section, so it is not stored.
struct edge_section {
  std::uint32_t num_classes = 0;
  std::vector<std::uint8_t> classes;  // class per dense state id

  friend bool operator==(const edge_section&, const edge_section&) = default;
};

// Well-mixed initial configuration as (encode(state), multiplicity) classes
// in interning order; multiplicities sum to the population size.
struct wellmixed_section {
  std::uint64_t population = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> classes;

  friend bool operator==(const wellmixed_section&, const wellmixed_section&) = default;
};

struct sweep_artifact {
  artifact_engine engine = artifact_engine::tuned;
  std::string family;  // display name of the graph family ("cycle", ...)
  protocol_desc protocol;
  std::uint32_t pack_bits = 0;  // resolved config word width (tuned engine)
  std::optional<graph_section> graph;         // tuned engine
  std::optional<table_section> table;         // closed tables only
  std::optional<packed_section> packed;       // tuned engine
  std::optional<edge_section> edge;           // edge-census protocols only
  std::optional<wellmixed_section> wellmixed;  // well-mixed engine

  friend bool operator==(const sweep_artifact&, const sweep_artifact&) = default;
};

// FNV-1a 64-bit hash (the header checksum).
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

// Serialization is deterministic: equal artifacts produce equal bytes, so
// save → load → save round-trips byte-identically (the CI round-trip gate),
// and save_artifact's file equals artifact_bytes.
std::vector<std::uint8_t> artifact_bytes(const sweep_artifact& artifact);
sweep_artifact artifact_from_bytes(std::span<const std::uint8_t> bytes);
void save_artifact(const sweep_artifact& artifact, const std::string& path);
sweep_artifact load_artifact(const std::string& path);
// load_artifact's read: the whole file in one buffer sized by fstat.  Also
// what the remote supervisor checksums and ships.
std::vector<std::uint8_t> read_artifact_file(const std::string& path);

graph_section snapshot_graph(const graph& g, vertex_order order,
                             const std::vector<node_id>& old_of_new);
graph rebuild_graph(const graph_section& section);

// ---------------------------------------------------------------------------
// Snapshot / validate helpers over the compiled engine.  Snapshots require a
// closed table (an artifact of a lazily-filled table would depend on which
// pairs happened to occur); validators throw std::invalid_argument naming the
// first divergence.

template <compilable_protocol P>
table_section snapshot_table(const compiled_protocol<P>& compiled) {
  expects(compiled.closed(), "snapshot_table: artifacts hold closed tables only");
  using state_id = typename compiled_protocol<P>::state_id;
  const std::size_t k = compiled.num_states();
  table_section t;
  t.counters = static_cast<std::uint32_t>(compiled.kCounters);
  t.codes.reserve(k);
  t.roles.reserve(k);
  t.contrib.reserve(k);
  for (std::size_t id = 0; id < k; ++id) {
    const auto sid = static_cast<state_id>(id);
    t.codes.push_back(compiled.protocol().encode(compiled.decode(sid)));
    t.roles.push_back(static_cast<std::uint8_t>(compiled.output(sid)));
    t.contrib.push_back(compiled.contribution(sid));
  }
  t.entries.reserve(k * k);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      const auto& e = compiled.closed_transition(static_cast<state_id>(a),
                                                 static_cast<state_id>(b));
      t.entries.push_back({e.a2, e.b2, e.delta});
    }
  }
  return t;
}

// Compares the section with the compiled table where both lie: no snapshot
// is built, so validation allocates nothing.
template <compilable_protocol P>
void validate_table(const table_section& section,
                    const compiled_protocol<P>& compiled) {
  expects(compiled.closed(), "snapshot_table: artifacts hold closed tables only");
  using state_id = typename compiled_protocol<P>::state_id;
  const std::size_t k = compiled.num_states();
  bool same = section.counters == static_cast<std::uint32_t>(compiled.kCounters) &&
              section.codes.size() == k && section.roles.size() == k &&
              section.contrib.size() == k && section.entries.size() == k * k;
  for (std::size_t id = 0; same && id < k; ++id) {
    const auto sid = static_cast<state_id>(id);
    same = section.codes[id] == compiled.protocol().encode(compiled.decode(sid)) &&
           section.roles[id] == static_cast<std::uint8_t>(compiled.output(sid)) &&
           section.contrib[id] == compiled.contribution(sid);
  }
  for (std::size_t a = 0; same && a < k; ++a) {
    const table_section::entry* row = section.entries.data() + a * k;
    for (std::size_t b = 0; same && b < k; ++b) {
      const auto& e = compiled.closed_transition(static_cast<state_id>(a),
                                                 static_cast<state_id>(b));
      same = row[b].a2 == e.a2 && row[b].b2 == e.b2 && row[b].delta == e.delta;
    }
  }
  expects(same,
          "artifact: this build's closed table diverges from the stored one "
          "(producer/worker version skew)");
}

template <edge_census_protocol P>
edge_section snapshot_edge(const compiled_protocol<P>& compiled) {
  expects(compiled.closed(), "snapshot_edge: artifacts hold closed tables only");
  edge_section s;
  s.num_classes = static_cast<std::uint32_t>(edge_census_traits<P>::kClasses);
  s.classes.reserve(compiled.num_states());
  using state_id = typename compiled_protocol<P>::state_id;
  for (std::size_t id = 0; id < compiled.num_states(); ++id) {
    s.classes.push_back(compiled.state_class(static_cast<state_id>(id)));
  }
  return s;
}

template <edge_census_protocol P>
void validate_edge(const edge_section& section,
                   const compiled_protocol<P>& compiled) {
  expects(compiled.closed(), "snapshot_edge: artifacts hold closed tables only");
  using state_id = typename compiled_protocol<P>::state_id;
  const std::size_t k = compiled.num_states();
  bool same = section.num_classes ==
                  static_cast<std::uint32_t>(edge_census_traits<P>::kClasses) &&
              section.classes.size() == k;
  for (std::size_t id = 0; same && id < k; ++id) {
    same = section.classes[id] == compiled.state_class(static_cast<state_id>(id));
  }
  expects(same,
          "artifact: this build's edge classes diverge from the stored ones "
          "(producer/worker version skew)");
}

template <node_census_protocol P>
wellmixed_section snapshot_wellmixed(const P& proto,
                                     const wellmixed_multiset<P>& initial,
                                     std::uint64_t n) {
  wellmixed_section s;
  s.population = n;
  std::uint64_t mass = 0;
  for (const auto& [state, count] : initial) {
    s.classes.emplace_back(proto.encode(state), count);
    mass += count;
  }
  expects(mass == n, "snapshot_wellmixed: multiplicities must sum to n");
  return s;
}

// ---------------------------------------------------------------------------
// Whole-sweep artifacts.

// Snapshot of a prepared tuned_runner (per-interaction engine).  Requires
// the reachable space to have closed — an artifact cannot pin a lazy table.
template <compilable_protocol P>
sweep_artifact make_tuned_artifact(const tuned_runner<P>& runner,
                                   const graph& original, std::string family,
                                   protocol_desc protocol) {
  expects(runner.packed(),
          "make_tuned_artifact: the reachable state space exceeded the "
          "closure budget; artifacts hold closed tables only");
  sweep_artifact a;
  a.engine = artifact_engine::tuned;
  a.family = std::move(family);
  a.protocol = std::move(protocol);
  a.pack_bits = static_cast<std::uint32_t>(runner.pack_bits());
  a.graph = snapshot_graph(original, runner.order(), runner.old_of_new());
  a.table = snapshot_table(runner.compiled());
  // The runner's own packed table is the snapshot: copy its bytes.
  const auto packed = runner.packed_bytes();
  a.packed = packed_section{static_cast<std::uint32_t>(runner.pack_bits()),
                            runner.compiled().num_states(),
                            {packed.begin(), packed.end()}};
  if constexpr (edge_census_protocol<P>) {
    a.edge = snapshot_edge(runner.compiled());
  }
  return a;
}

// The engine_tuning a worker rebuilds the runner with: the stored order plus
// the *resolved* width, forced so the rebuild cannot re-resolve differently.
engine_tuning tuning_of(const sweep_artifact& artifact);

// Validates a rebuilt runner against the artifact: same resolved layout,
// same reorder permutation, byte-identical closed and packed tables — each
// compared in place, so validation allocates nothing.
template <compilable_protocol P>
void validate_tuned_artifact(const sweep_artifact& artifact,
                             const tuned_runner<P>& runner) {
  expects(artifact.engine == artifact_engine::tuned &&
              artifact.graph.has_value() && artifact.table.has_value() &&
              artifact.packed.has_value(),
          "artifact: not a tuned-engine sweep artifact");
  expects(runner.packed(), "artifact: rebuilt runner fell back to a lazy table");
  expects(runner.pack_bits() == static_cast<int>(artifact.pack_bits),
          "artifact: rebuilt runner resolved a different config word width");
  expects(static_cast<std::uint32_t>(runner.order()) == artifact.graph->order,
          "artifact: rebuilt runner uses a different vertex order");
  const auto& map = runner.old_of_new();
  expects(map.size() == artifact.graph->old_of_new.size(),
          "artifact: reorder permutation size diverges from this build");
  for (std::size_t v = 0; v < map.size(); ++v) {
    expects(static_cast<std::uint32_t>(map[v]) == artifact.graph->old_of_new[v],
            "artifact: reorder permutation diverges from this build");
  }
  validate_table(*artifact.table, runner.compiled());
  const packed_section& packed = *artifact.packed;
  expects(packed.width_bits == 8 || packed.width_bits == 16 || packed.width_bits == 32,
          "artifact: packed section has an invalid word width");
  const auto bytes = runner.packed_bytes();
  expects(packed.width_bits == static_cast<std::uint32_t>(runner.pack_bits()) &&
              packed.num_states == runner.compiled().num_states() &&
              std::equal(packed.bytes.begin(), packed.bytes.end(), bytes.begin(),
                         bytes.end()),
          "artifact: this build's packed table diverges from the stored one");
  if constexpr (edge_census_protocol<P>) {
    expects(artifact.edge.has_value(),
            "artifact: edge-census protocol without an EDGE section");
    validate_edge(*artifact.edge, runner.compiled());
  } else {
    expects(!artifact.edge.has_value(),
            "artifact: EDGE section on a counter-shaped protocol");
  }
}

// Snapshot of a prepared well-mixed sweep: the initial multiset plus — when
// the reachable space closed within the engine budget — the closed table, so
// workers can also gate their transition semantics.
template <node_census_protocol P>
sweep_artifact make_wellmixed_artifact(const wellmixed_sweep<P>& sweep,
                                       std::string family,
                                       protocol_desc protocol) {
  sweep_artifact a;
  a.engine = artifact_engine::wellmixed;
  a.family = std::move(family);
  a.protocol = std::move(protocol);
  a.wellmixed = snapshot_wellmixed(sweep.compiled().protocol(), sweep.initial(),
                                   sweep.population());
  if (sweep.shared()) a.table = snapshot_table(sweep.compiled());
  return a;
}

// Validates a rebuilt well-mixed sweep against the artifact: the same
// initial multiset, and TABL present exactly when this build's closure
// closes — then equal to its closed table.  A producer omits TABL only past
// the closure budget, so a missing one on a sweep that closes is a stripped
// file, not a large sweep.
template <node_census_protocol P>
void validate_wellmixed_artifact(const sweep_artifact& artifact,
                                 const wellmixed_sweep<P>& sweep) {
  expects(artifact.engine == artifact_engine::wellmixed &&
              artifact.wellmixed.has_value(),
          "artifact: not a well-mixed sweep artifact");
  expects(snapshot_wellmixed(sweep.compiled().protocol(), sweep.initial(),
                             sweep.population()) == *artifact.wellmixed,
          "artifact: this build's initial multiset diverges from the stored "
          "one");
  expects(artifact.table.has_value() == sweep.shared(),
          sweep.shared() ? "artifact: no stored table, but this build's "
                           "closure closes within the budget"
                         : "artifact: stored table is closed but this build's "
                           "closure exceeded the budget");
  if (sweep.shared()) validate_table(*artifact.table, sweep.compiled());
}

// ---------------------------------------------------------------------------
// Opening an artifact.
//
// An opened sweep is rebuilt from an artifact by this build and validated
// against it.  It owns what its runner borrows: the protocol and, on the
// tuned engine, the graph, declared before the runner so they are built
// before it and destroyed after it.  The runner points into the object, so
// it is neither copied nor moved.  `runner.run(gen, options[, probe])` runs
// one trial on either engine.

template <compilable_protocol P>
struct opened_tuned_sweep {
  static constexpr artifact_engine engine = artifact_engine::tuned;

  opened_tuned_sweep(const sweep_artifact& artifact, P protocol)
      : g(rebuild_graph(*artifact.graph)),
        proto(std::move(protocol)),
        runner(proto, g, tuning_of(artifact)) {
    validate_tuned_artifact(artifact, runner);
  }
  opened_tuned_sweep(const opened_tuned_sweep&) = delete;
  opened_tuned_sweep& operator=(const opened_tuned_sweep&) = delete;

  const graph g;  // in the original labelling
  const P proto;
  const tuned_runner<P> runner;
};

template <node_census_protocol P>
struct opened_wellmixed_sweep {
  static constexpr artifact_engine engine = artifact_engine::wellmixed;

  opened_wellmixed_sweep(const sweep_artifact& artifact, P protocol)
      : proto(std::move(protocol)), runner(proto, artifact.wellmixed->population) {
    validate_wellmixed_artifact(artifact, runner);
  }
  opened_wellmixed_sweep(const opened_wellmixed_sweep&) = delete;
  opened_wellmixed_sweep& operator=(const opened_wellmixed_sweep&) = delete;

  const P proto;
  const wellmixed_sweep<P> runner;
};

// Opens the sweep `artifact` describes and returns fn(sweep), where sweep is
// a std::shared_ptr<const S> and S is opened_tuned_sweep<P> (P fast or star)
// or opened_wellmixed_sweep<P> (P fast or six), as the artifact's engine and
// protocol descriptor name.  fn must return the same type for every S; a
// caller that keeps the shared_ptr keeps the sweep.  Throws
// std::invalid_argument when a section is missing, the descriptor does not
// fit the engine, or the rebuild diverges from the stored sections.
template <typename Fn>
auto open_sweep(const sweep_artifact& artifact, Fn&& fn) {
  if (artifact.engine == artifact_engine::tuned) {
    expects(artifact.graph.has_value(), "artifact: tuned artifact without a graph section");
    if (artifact.protocol.kind == protocol_kind::star) {
      expect_star_desc(artifact.protocol);
      return fn(std::make_shared<const opened_tuned_sweep<star_protocol>>(
          artifact, star_protocol{}));
    }
    return fn(std::make_shared<const opened_tuned_sweep<fast_protocol>>(
        artifact, fast_protocol(fast_params_of(artifact.protocol))));
  }
  expects(artifact.wellmixed.has_value(),
          "artifact: well-mixed artifact without a multiset section");
  if (artifact.protocol.kind == protocol_kind::six) {
    return fn(std::make_shared<const opened_wellmixed_sweep<beauquier_protocol>>(
        artifact, beauquier_protocol(six_population_of(artifact.protocol))));
  }
  return fn(std::make_shared<const opened_wellmixed_sweep<fast_protocol>>(
      artifact, fast_protocol(fast_params_of(artifact.protocol))));
}

}  // namespace pp::fleet
