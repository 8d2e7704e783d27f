// Serializable protocol artefacts: a prepared sweep — the graph (with its
// reorder permutation), the protocol's resolved parameters, the well-mixed
// initial multiset, and fingerprints of the closed compiled_protocol table,
// the packed_table the hot loop reads and the edge classes — in a versioned,
// endianness-tagged, checksummed binary container, so worker processes (and
// other hosts) can share one prepared sweep instead of each re-deriving it.
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
// Sections come in one fixed order: META, GRPH, TABL, PACK, EDGE, WMIX.
//
// Versioning policy: any change to the header or a section layout bumps
// kArtifactVersion, and a build reads its own version only; any other is
// rejected with both versions named (artifacts are cheap to re-save, so
// there is no migration machinery).
//
// The runner's tables are never stored.  The reachability closure is
// deterministic, so every opener rebuilds the closed and packed tables from
// META and GRPH; TABL, PACK and EDGE each hold only a table_print of the
// table as the runner serializes it, the bytes a version-2 file stored there
// (layouts below).  The rebuilt runner must serialize to the same prints:
// this is the version-skew gate of the fleet protocol (src/fleet/README.md),
// and a divergence slips through only on a 64-bit FNV-1a collision.
//   * Save.  make_tuned_artifact / make_wellmixed_artifact return an
//     artifact_view that borrows the runner: save_artifact hashes TABL from
//     the runner's closed table (each row is already k contiguous 12-byte
//     wire entries), PACK from its packed_bytes() and EDGE from its edge
//     classes, then streams the sections to the file through a 64 KiB stage
//     with a running FNV-1a and writes the 40-byte header last (a save that
//     dies midway leaves a zero header, which no open accepts).  Only
//     O(|Λ|) per-state arrays are built, and no table byte is written.
//   * Open.  open_sweep(path | bytes, fn) parses the artifact (a
//     sweep_artifact: the header, the payload checksum, then every section;
//     none holds a table), rebuilds the runner (protocol, graph, closure,
//     pack) and compares its prints with the stored ones.  A build that
//     compiles a different table than the artifact's producer fails loudly
//     instead of silently computing a different sweep.  popsimd opens the
//     ARTIFACT_DATA frame it received in place; popsim's --worker and
//     --load-artifact modes open the file.
//   * Inspect.  A sweep_artifact (load_artifact(path), or over bytes the
//     caller holds) is the parse on its own, for tools and tests.
//     validate_*_artifact compares it with a runner the caller built, and
//     artifact_bytes writes it back byte for byte, so it is also the oracle
//     that the parse is canonical.
//   * Ship.  A --hosts supervisor (net.h) reads its file through
//     artifact_file, a chunked reader: one pass for the REQ_SWEEP checksum,
//     then one per daemon that misses its cache, straight into the
//     ARTIFACT_DATA frame.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
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
// protocol kind.  Version 3 replaced the tables in TABL, PACK and EDGE with
// their table_prints.
inline constexpr std::uint32_t kArtifactVersion = 3;

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

// The META section plus the header's engine.
struct artifact_meta {
  artifact_engine engine = artifact_engine::tuned;
  std::string family;  // display name of the graph family ("cycle", ...)
  protocol_desc protocol;
  std::uint32_t pack_bits = 0;  // resolved config word width (tuned engine)

  friend bool operator==(const artifact_meta&, const artifact_meta&) = default;
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

// Well-mixed initial configuration as (encode(state), multiplicity) classes
// in interning order; multiplicities sum to the population size.
struct wellmixed_section {
  std::uint64_t population = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> classes;

  friend bool operator==(const wellmixed_section&, const wellmixed_section&) = default;
};

// A runner's closed table as TABL and EDGE serialize it: O(|Λ|) per-state
// arrays and a pointer to each row of the runner's own table, which its
// table_print reads in place.  `packed` is the tuned runner's
// packed_bytes() (empty on the well-mixed engine, which has no PACK).
struct runner_tables {
  std::uint32_t counters = 0;
  std::vector<std::uint64_t> codes;  // encode(state) per dense id
  std::vector<std::uint8_t> roles;   // role per dense id
  std::vector<std::array<std::int8_t, kMaxCensusCounters>> contrib;
  std::vector<const std::uint8_t*> rows;  // row a: k 12-byte wire entries
  std::span<const std::uint8_t> packed;
  std::uint32_t edge_classes = 0;     // 0 on counter-shaped protocols
  std::vector<std::uint8_t> classes;  // edge class per dense id
};

// A runner's graph as GRPH serializes it; `g` may be null when the view
// only validates (validation reads the order and the permutation).
struct graph_view {
  const graph* g = nullptr;  // in the original labelling
  vertex_order order = vertex_order::natural;
  std::span<const node_id> old_of_new;
};

// A prepared sweep as its artifact: what save_artifact writes and what a
// parsed artifact is checked against.  It borrows the runner (and the
// graph), which must outlive it.  `tables` is empty when the runner's
// reachable space did not close within the closure budget.
struct artifact_view : artifact_meta {
  std::optional<graph_view> graph;  // tuned engine
  std::optional<runner_tables> tables;
  std::optional<wellmixed_section> wellmixed;  // well-mixed engine
};

// What TABL, PACK and EDGE hold: the length and FNV-1a 64 of the table as
// the runner serializes it, the payload a version-2 writer stored there:
//   TABL: u64 k, u32 counters, k u64 codes, k u8 roles,
//         k × kMaxCensusCounters contributions, k² 12-byte entries
//         {u32 a2, u32 b2, i8 delta[kMaxCensusCounters]}, row-major;
//   PACK: u32 width, u64 num_states, u64 byte count, then num_states²
//         packed_entry<W> bytes;
//   EDGE: u32 class count, u64 k, then one class byte per state.
// On the wire a print is its two u64s, so each of these sections is 16 bytes.
struct table_print {
  std::uint64_t length = 0;
  std::uint64_t fnv = 0;

  friend bool operator==(const table_print&, const table_print&) = default;
};

// A section is present exactly when its print is.
struct table_prints {
  std::optional<table_print> table, packed, edge;
};

// A parsed artifact (see the header comment): its header checked, its
// payload checksummed, and every section parsed, from a file or from bytes
// the caller holds.  Throws std::invalid_argument on a file it cannot read,
// another format version, or a payload that fails the checksum or does not
// parse.
struct sweep_artifact : artifact_meta {
  explicit sweep_artifact(const std::string& path);
  explicit sweep_artifact(std::span<const std::uint8_t> bytes);

  // Throws std::invalid_argument naming the first divergence between this
  // artifact and a rebuilt runner's view (validate_*_artifact below build
  // the view).
  void check(const artifact_view& rebuilt) const;

  std::optional<graph_section> graph;          // tuned engine
  table_prints prints;
  std::optional<wellmixed_section> wellmixed;  // well-mixed engine
};

// FNV-1a 64-bit hash (the header checksum and the table prints).
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

// Serialization is deterministic: a runner's view and a parsed artifact of
// it produce the same bytes, so save → load → save round-trips
// byte-identically (the CI round-trip gate), and save_artifact's file
// equals artifact_bytes.
std::vector<std::uint8_t> artifact_bytes(const artifact_view& artifact);
std::vector<std::uint8_t> artifact_bytes(const sweep_artifact& artifact);
void save_artifact(const artifact_view& artifact, const std::string& path);
sweep_artifact load_artifact(const std::string& path);

// An artifact file read front to back, kChunkBytes (64 KiB) at a time: what
// an open reads and what a --hosts supervisor checksums and ships (net.h)
// without holding the file.  The size is the file's when it was opened.
// Throws std::invalid_argument on a file it cannot open, or read to that
// size.
class artifact_file {
 public:
  explicit artifact_file(const std::string& path);
  ~artifact_file();
  artifact_file(const artifact_file&) = delete;
  artifact_file& operator=(const artifact_file&) = delete;

  std::uint64_t size() const { return size_; }
  // Calls fn(chunk) for every chunk in file order; a chunk is valid only
  // during its call.
  void for_each_chunk(const std::function<void(std::span<const std::uint8_t>)>& fn) const;

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
};

graph rebuild_graph(const graph_section& section);

// The engine_tuning a worker rebuilds the runner with: the stored order plus
// the *resolved* width, forced so the rebuild cannot re-resolve differently.
engine_tuning tuning_of(const sweep_artifact& artifact);

// ---------------------------------------------------------------------------
// Views of prepared sweeps.

// Artifacts hold closed tables only: throws unless the runner's reachable
// space closed within the engine's closure budget.
inline void expect_closed(bool closed) {
  static_assert(kEngineClosureBudget == 2048, "the message names the budget");
  expects(closed,
          "artifact: the reachable state space exceeded the closure budget "
          "(2048 states); artifacts hold closed tables only");
}

// A closed compiled table's serialization source.  Its entries are the wire
// records themselves: u32 a2, u32 b2, then the delta bytes, no padding.
template <compilable_protocol P>
runner_tables tables_of(const compiled_protocol<P>& compiled) {
  using entry = typename compiled_protocol<P>::entry;
  using state_id = typename compiled_protocol<P>::state_id;
  static_assert(sizeof(entry) == 8 + kMaxCensusCounters &&
                std::has_unique_object_representations_v<entry> &&
                offsetof(entry, a2) == 0 && offsetof(entry, b2) == 4 &&
                offsetof(entry, delta) == 8);
  expects(compiled.closed(), "artifact: artifacts hold closed tables only");
  const std::size_t k = compiled.num_states();
  runner_tables t;
  t.counters = static_cast<std::uint32_t>(compiled.kCounters);
  t.codes.reserve(k);
  t.roles.reserve(k);
  t.contrib.reserve(k);
  t.rows.reserve(k);
  for (std::size_t id = 0; id < k; ++id) {
    const auto sid = static_cast<state_id>(id);
    t.codes.push_back(compiled.protocol().encode(compiled.decode(sid)));
    t.roles.push_back(static_cast<std::uint8_t>(compiled.output(sid)));
    t.contrib.push_back(compiled.contribution(sid));
    t.rows.push_back(
        reinterpret_cast<const std::uint8_t*>(&compiled.closed_transition(sid, 0)));
  }
  if constexpr (edge_census_protocol<P>) {
    t.edge_classes = static_cast<std::uint32_t>(edge_census_traits<P>::kClasses);
    t.classes.reserve(k);
    for (std::size_t id = 0; id < k; ++id) {
      t.classes.push_back(compiled.state_class(static_cast<state_id>(id)));
    }
  }
  return t;
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

// A tuned runner as its artifact; tables stay empty on the lazy fallback.
template <compilable_protocol P>
artifact_view view_of(const tuned_runner<P>& runner, const graph* original,
                      std::string family, protocol_desc protocol) {
  artifact_view v;
  v.engine = artifact_engine::tuned;
  v.family = std::move(family);
  v.protocol = std::move(protocol);
  v.pack_bits = static_cast<std::uint32_t>(runner.pack_bits());
  v.graph = graph_view{original, runner.order(), runner.old_of_new()};
  if (runner.packed()) {
    v.tables = tables_of(runner.compiled());
    v.tables->packed = runner.packed_bytes();
  }
  return v;
}

// A well-mixed sweep as its artifact: the initial multiset plus — when the
// reachable space closed within the engine budget — the closed table, so
// workers can also gate their transition semantics.
template <node_census_protocol P>
artifact_view view_of(const wellmixed_sweep<P>& sweep, std::string family,
                      protocol_desc protocol) {
  artifact_view v;
  v.engine = artifact_engine::wellmixed;
  v.family = std::move(family);
  v.protocol = std::move(protocol);
  v.wellmixed = snapshot_wellmixed(sweep.compiled().protocol(), sweep.initial(),
                                   sweep.population());
  if (sweep.shared()) v.tables = tables_of(sweep.compiled());
  return v;
}

// The artifact of a prepared tuned_runner (per-interaction engine), to be
// saved while the runner and `original` live.  Requires the reachable space
// to have closed — an artifact cannot pin a lazy table.
template <compilable_protocol P>
artifact_view make_tuned_artifact(const tuned_runner<P>& runner,
                                  const graph& original, std::string family,
                                  protocol_desc protocol) {
  expect_closed(runner.packed());
  return view_of(runner, &original, std::move(family), std::move(protocol));
}

template <node_census_protocol P>
artifact_view make_wellmixed_artifact(const wellmixed_sweep<P>& sweep,
                                      std::string family, protocol_desc protocol) {
  return view_of(sweep, std::move(family), std::move(protocol));
}

// Validates a rebuilt runner against a parsed tuned-engine artifact: the
// same resolved layout, the same reorder permutation, and the runner's
// closed table, packed table and edge classes serialize to the stored
// prints.
template <compilable_protocol P>
void validate_tuned_artifact(const sweep_artifact& artifact,
                             const tuned_runner<P>& runner) {
  artifact.check(view_of(runner, nullptr, {}, {}));
}

// Validates a rebuilt sweep against a parsed well-mixed artifact: no PACK or
// EDGE, the same initial multiset, and TABL present exactly when this
// build's closure closes, then the print of its closed table.  A
// producer omits TABL only past the closure budget, so a missing one on a
// sweep that closes is a stripped file, not a large sweep.
template <node_census_protocol P>
void validate_wellmixed_artifact(const sweep_artifact& artifact,
                                 const wellmixed_sweep<P>& sweep) {
  artifact.check(view_of(sweep, {}, {}));
}

// ---------------------------------------------------------------------------
// Opening an artifact.
//
// An opened sweep is rebuilt from a stored artifact by this build and
// validated against it.  It owns what its runner borrows: the protocol and,
// on the tuned engine, the graph, declared before the runner so they are
// built before it and destroyed after it.  The runner points into the
// object, so it is neither copied nor moved.  `runner.run(gen, options[,
// probe])` runs one trial on either engine, and view() is the sweep's own
// artifact — byte-identical to the one it was opened from.

template <compilable_protocol P>
struct opened_tuned_sweep {
  static constexpr artifact_engine engine = artifact_engine::tuned;

  opened_tuned_sweep(const sweep_artifact& stored, P protocol)
      : meta(stored),
        g(rebuild_graph(*stored.graph)),
        proto(std::move(protocol)),
        runner(proto, g, tuning_of(stored)) {
    validate_tuned_artifact(stored, runner);
  }
  opened_tuned_sweep(const opened_tuned_sweep&) = delete;
  opened_tuned_sweep& operator=(const opened_tuned_sweep&) = delete;

  artifact_view view() const { return view_of(runner, &g, meta.family, meta.protocol); }

  const artifact_meta meta;
  const graph g;  // in the original labelling
  const P proto;
  const tuned_runner<P> runner;
};

template <node_census_protocol P>
struct opened_wellmixed_sweep {
  static constexpr artifact_engine engine = artifact_engine::wellmixed;

  opened_wellmixed_sweep(const sweep_artifact& stored, P protocol)
      : meta(stored),
        proto(std::move(protocol)),
        runner(proto, stored.wellmixed->population) {
    validate_wellmixed_artifact(stored, runner);
  }
  opened_wellmixed_sweep(const opened_wellmixed_sweep&) = delete;
  opened_wellmixed_sweep& operator=(const opened_wellmixed_sweep&) = delete;

  artifact_view view() const { return view_of(runner, meta.family, meta.protocol); }

  const artifact_meta meta;
  const P proto;
  const wellmixed_sweep<P> runner;
};

// Opens the sweep `stored` describes and returns fn(sweep), where sweep is
// a std::shared_ptr<const S> and S is opened_tuned_sweep<P> (P fast or star)
// or opened_wellmixed_sweep<P> (P fast or six), as the artifact's engine and
// protocol descriptor name.  fn must return the same type for every S; a
// caller that keeps the shared_ptr keeps the sweep.  Throws
// std::invalid_argument when a section is missing, the descriptor does not
// fit the engine, or the rebuild diverges from the stored prints.
template <typename Fn>
auto open_sweep(const sweep_artifact& a, Fn&& fn) {
  if (a.engine == artifact_engine::tuned) {
    expects(a.graph.has_value(), "artifact: tuned artifact without a graph section");
    if (a.protocol.kind == protocol_kind::star) {
      expect_star_desc(a.protocol);
      return fn(std::make_shared<const opened_tuned_sweep<star_protocol>>(
          a, star_protocol{}));
    }
    return fn(std::make_shared<const opened_tuned_sweep<fast_protocol>>(
        a, fast_protocol(fast_params_of(a.protocol))));
  }
  expects(a.wellmixed.has_value(),
          "artifact: well-mixed artifact without a multiset section");
  if (a.protocol.kind == protocol_kind::six) {
    return fn(std::make_shared<const opened_wellmixed_sweep<beauquier_protocol>>(
        a, beauquier_protocol(six_population_of(a.protocol))));
  }
  return fn(std::make_shared<const opened_wellmixed_sweep<fast_protocol>>(
      a, fast_protocol(fast_params_of(a.protocol))));
}

// open_sweep over an artifact file, or over artifact bytes already in
// memory (popsimd's received frame), which are parsed in place.
template <typename Fn>
auto open_sweep(const std::string& path, Fn&& fn) {
  const sweep_artifact stored(path);
  return open_sweep(stored, std::forward<Fn>(fn));
}
template <typename Fn>
auto open_sweep(std::span<const std::uint8_t> bytes, Fn&& fn) {
  const sweep_artifact stored(bytes);
  return open_sweep(stored, std::forward<Fn>(fn));
}

}  // namespace pp::fleet
