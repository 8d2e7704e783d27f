// Fleet artifact container (src/fleet/artifact.h): byte-stable round trips,
// header/checksum rejection, and save/open/validate over the compiled
// engine, the stored sections compared against the runner's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/beauquier.h"
#include "core/fast_election.h"
#include "core/star_protocol.h"
#include "dynamics/epidemic.h"
#include "engine/engine.h"
#include "fleet/artifact.h"
#include "graph/generators.h"

namespace pp::fleet {
namespace {

// A small tuned sweep whose reachable space closes (ring + fast protocol).
struct tuned_fixture {
  graph g = make_cycle(200);
  fast_protocol proto;
  tuned_runner<fast_protocol> runner;

  explicit tuned_fixture(engine_tuning tuning = {})
      : proto(fast_params::practical(
            g, estimate_worst_case_broadcast_time(g, 5, 3, rng(3)).value)),
        runner(proto, g, tuning) {}

  artifact_view artifact() const {
    return make_tuned_artifact(runner, g, "cycle", fast_desc(proto.params()));
  }
};

// The artifact `view` writes, loaded back: the small sections parsed, TABL,
// PACK and EDGE as their stored bytes.
sweep_artifact loaded(const artifact_view& view) {
  return artifact_from_bytes(artifact_bytes(view));
}

const artifact_meta& meta_of(const artifact_meta& a) { return a; }

// Offsets into a stored TABL payload (layout in artifact.h): u64 k, u32
// counters, then per-state codes, roles and contributions, then the k²
// 12-byte entries {a2, b2, delta} row-major.
struct table_layout {
  std::size_t k;
  std::size_t code(std::size_t id) const { return 12 + 8 * id; }
  std::size_t role(std::size_t id) const { return 12 + 8 * k + id; }
  std::size_t contrib(std::size_t id, std::size_t c) const {
    return 12 + 9 * k + kMaxCensusCounters * id + c;
  }
  std::size_t a2(std::size_t cell) const { return 12 + (9 + kMaxCensusCounters) * k + 12 * cell; }
  std::size_t b2(std::size_t cell) const { return a2(cell) + 4; }
  std::size_t delta(std::size_t cell, std::size_t c) const { return a2(cell) + 8 + c; }
  std::size_t size() const { return a2(k * k); }
};

// Byte-level surgery on saved artifacts and their stored sections.
std::uint32_t u32_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

std::uint64_t u64_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

// A u32 or u64 field rewritten in place.
template <typename T>
void put_at(std::vector<std::uint8_t>& b, std::size_t at, T value) {
  std::memcpy(b.data() + at, &value, sizeof(value));
}

TEST(Artifact, TunedRoundTripIsByteStable) {
  const tuned_fixture fx;
  const artifact_view a = fx.artifact();
  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(meta_of(a) == meta_of(b));
  // save(load(x)) must reproduce x byte for byte — the CI round-trip gate.
  EXPECT_EQ(bytes, artifact_bytes(b));
}

TEST(Artifact, FileRoundTrip) {
  const tuned_fixture fx;
  const artifact_view a = fx.artifact();
  const std::string path = testing::TempDir() + "/artifact_roundtrip.ppaf";
  save_artifact(a, path);
  const sweep_artifact b = load_artifact(path);
  EXPECT_TRUE(meta_of(a) == meta_of(b));
  EXPECT_TRUE(b == loaded(a));
  EXPECT_EQ(artifact_bytes(b), artifact_bytes(a));
  std::remove(path.c_str());
}

TEST(Artifact, ChecksumDetectsPayloadCorruption) {
  const tuned_fixture fx;
  auto bytes = artifact_bytes(fx.artifact());
  ASSERT_GT(bytes.size(), 64u);
  bytes[60] ^= 0x01;  // flip one payload bit past the 40-byte header
  EXPECT_THROW(artifact_from_bytes(bytes), std::invalid_argument);
}

TEST(Artifact, RejectsBadMagicVersionAndEndianness) {
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(artifact_from_bytes(bad_magic), std::invalid_argument);

  auto bad_endian = good;
  // Byte-swap the endianness tag: exactly what a foreign-endian writer
  // would have produced.
  std::swap(bad_endian[4], bad_endian[7]);
  std::swap(bad_endian[5], bad_endian[6]);
  EXPECT_THROW(artifact_from_bytes(bad_endian), std::invalid_argument);

  auto bad_version = good;
  bad_version[8] = static_cast<std::uint8_t>(kArtifactVersion + 1);
  EXPECT_THROW(artifact_from_bytes(bad_version), std::invalid_argument);

  // v1 files stay loadable: v2 only added the optional EDGE section, so a
  // version-1 header over the same layout parses (the version byte is
  // outside the checksummed payload).
  auto v1 = good;
  v1[8] = 1;
  EXPECT_NO_THROW(artifact_from_bytes(v1));

  auto truncated = good;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW(artifact_from_bytes(truncated), std::invalid_argument);

  EXPECT_THROW(artifact_from_bytes({}), std::invalid_argument);
}

TEST(Artifact, TableSnapshotValidatesAndDetectsSkew) {
  const tuned_fixture fx;
  const auto& compiled = fx.runner.compiled();
  const sweep_artifact t = loaded(fx.artifact());
  ASSERT_TRUE(t.table.has_value());
  EXPECT_NO_THROW(validate_tuned_artifact(t, fx.runner));
  const table_layout at{compiled.num_states()};
  EXPECT_EQ(u64_at(*t.table, 0), compiled.num_states());
  EXPECT_EQ(t.table->size(), at.size());

  sweep_artifact skewed = t;
  (*skewed.table)[at.code(0)] ^= 1;  // a producer whose states encode differently
  EXPECT_THROW(validate_tuned_artifact(skewed, fx.runner), std::invalid_argument);

  sweep_artifact wrong_entry = t;
  (*wrong_entry.table)[at.a2(1)] ^= 1;
  EXPECT_THROW(validate_tuned_artifact(wrong_entry, fx.runner), std::invalid_argument);
}

TEST(Artifact, PackedSnapshotMatchesResolvedWidth) {
  const tuned_fixture fx;
  const auto& compiled = fx.runner.compiled();
  const int width = fx.runner.pack_bits();
  const sweep_artifact a = loaded(fx.artifact());
  ASSERT_TRUE(a.packed.has_value());
  // PACK: u32 width, u64 num_states, u64 byte count, then the bytes.
  const std::vector<std::uint8_t>& p = *a.packed;
  EXPECT_EQ(u32_at(p, 0), static_cast<std::uint32_t>(width));
  EXPECT_EQ(u64_at(p, 4), compiled.num_states());
  // The section holds exactly a packed_table at the resolved width.
  const auto expect_table = [&]<typename W>() {
    const packed_table<W, fast_protocol> table(compiled);
    const auto entries = table.entries();
    ASSERT_EQ(u64_at(p, 12), entries.size_bytes());
    ASSERT_EQ(p.size(), 20 + entries.size_bytes());
    EXPECT_EQ(std::memcmp(p.data() + 20, entries.data(), entries.size_bytes()), 0);
  };
  switch (width) {
    case 8: expect_table.template operator()<std::uint8_t>(); break;
    case 16: expect_table.template operator()<std::uint16_t>(); break;
    default: expect_table.template operator()<std::uint32_t>(); break;
  }
  EXPECT_NO_THROW(validate_tuned_artifact(a, fx.runner));

  sweep_artifact corrupt = a;
  (*corrupt.packed)[20] ^= 1;
  EXPECT_THROW(validate_tuned_artifact(corrupt, fx.runner), std::invalid_argument);
}

TEST(Artifact, GraphSectionRoundTripsWithPermutation) {
  // RCM order exercises the stored permutation path.
  const tuned_fixture fx({.order = vertex_order::rcm});
  const sweep_artifact a = loaded(fx.artifact());
  ASSERT_TRUE(a.graph.has_value());
  EXPECT_EQ(a.graph->old_of_new.size(),
            static_cast<std::size_t>(fx.g.num_nodes()));

  const graph rebuilt = rebuild_graph(*a.graph);
  EXPECT_EQ(rebuilt.num_nodes(), fx.g.num_nodes());
  EXPECT_EQ(rebuilt.num_edges(), fx.g.num_edges());
  EXPECT_TRUE(rebuilt.edges() == fx.g.edges());
  // A runner over the rebuilt graph writes the section, and with it the
  // whole artifact, exactly again.
  const tuned_runner<fast_protocol> again(fx.proto, rebuilt, tuning_of(a));
  ASSERT_EQ(again.old_of_new().size(), a.graph->old_of_new.size());
  EXPECT_TRUE(std::equal(again.old_of_new().begin(), again.old_of_new().end(),
                         a.graph->old_of_new.begin()));
  EXPECT_EQ(artifact_bytes(make_tuned_artifact(again, rebuilt, "cycle",
                                               fast_desc(fx.proto.params()))),
            artifact_bytes(a));
}

TEST(Artifact, TunedArtifactValidatesAgainstFreshRebuild) {
  const tuned_fixture fx;
  const sweep_artifact a = loaded(fx.artifact());
  // A worker's view: rebuild everything from the artifact alone.
  const fast_protocol proto(fast_params_of(a.protocol));
  const graph g = rebuild_graph(*a.graph);
  const tuned_runner<fast_protocol> rebuilt(proto, g, tuning_of(a));
  EXPECT_NO_THROW(validate_tuned_artifact(a, rebuilt));

  sweep_artifact skewed = a;
  skewed.pack_bits = skewed.pack_bits == 32 ? 16 : 32;
  EXPECT_THROW(validate_tuned_artifact(skewed, rebuilt), std::invalid_argument);
}

// Star fixture: the edge-census protocol on a small cycle (the EDGE-section
// path of the container).
struct star_fixture {
  graph g = make_cycle(120);
  star_protocol proto;
  tuned_runner<star_protocol> runner;

  explicit star_fixture(engine_tuning tuning = {}) : runner(proto, g, tuning) {}

  artifact_view artifact() const {
    return make_tuned_artifact(runner, g, "cycle", star_desc());
  }
};

// EDGE: u32 class count, u64 k, then one class byte per state.
constexpr std::size_t kEdgeClassesAt = 12;

TEST(Artifact, StarArtifactCarriesTheEdgeSectionAndRoundTrips) {
  const star_fixture fx;
  const artifact_view a = fx.artifact();
  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  ASSERT_TRUE(b.edge.has_value());
  const std::vector<std::uint8_t>& edge = *b.edge;
  EXPECT_EQ(u32_at(edge, 0), 2u);
  // Reachable states: undecided (class 0), leader and follower (class 1).
  const std::size_t k = fx.runner.compiled().num_states();
  ASSERT_EQ(u64_at(edge, 4), k);
  ASSERT_EQ(edge.size(), kEdgeClassesAt + k);
  EXPECT_EQ(edge[kEdgeClassesAt], 0);
  for (std::size_t id = 1; id < k; ++id) {
    EXPECT_EQ(edge[kEdgeClassesAt + id], 1) << "state id " << id;
  }

  EXPECT_TRUE(meta_of(a) == meta_of(b));
  EXPECT_EQ(bytes, artifact_bytes(b));  // the CI round-trip gate, star flavour

  // Checksum rejection holds for EDGE-bearing artifacts too.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x01;
  EXPECT_THROW(artifact_from_bytes(corrupt), std::invalid_argument);
}

TEST(Artifact, StarArtifactValidatesAgainstFreshRebuildAndDetectsSkew) {
  const star_fixture fx({.order = vertex_order::rcm});
  const sweep_artifact a = loaded(fx.artifact());
  const graph g = rebuild_graph(*a.graph);
  const tuned_runner<star_protocol> rebuilt(star_protocol{}, g, tuning_of(a));
  EXPECT_NO_THROW(validate_tuned_artifact(a, rebuilt));

  // A producer whose build assigns different edge classes must fail loudly.
  sweep_artifact skewed = a;
  (*skewed.edge)[kEdgeClassesAt] ^= 1;
  EXPECT_THROW(validate_tuned_artifact(skewed, rebuilt), std::invalid_argument);

  // A star artifact stripped of its EDGE section is rejected outright.
  sweep_artifact stripped = a;
  stripped.edge.reset();
  EXPECT_THROW(validate_tuned_artifact(stripped, rebuilt), std::invalid_argument);
}

// The message a rejected call throws, or "" if it returns.
template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// What validate_tuned_artifact throws for `a` after one `skew`.
template <typename Runner, typename Skew>
std::string skew_rejection(sweep_artifact a, const Runner& runner, Skew&& skew) {
  skew(a);
  return rejection([&] { validate_tuned_artifact(a, runner); });
}

// Validation compares the stored bytes with the runner's serialization:
// every single-field skew of a stored section must still be rejected, with
// the message each check has always thrown.
TEST(Artifact, EverySingleFieldSkewIsRejectedWithItsMessage) {
  const std::string table_skew =
      "artifact: this build's closed table diverges from the stored one "
      "(producer/worker version skew)";
  const std::string packed_skew =
      "artifact: this build's packed table diverges from the stored one";
  struct skew_case {
    const char* what;
    std::string message;
    std::function<void(sweep_artifact&)> skew;
  };
  const tuned_fixture fx;
  const sweep_artifact a = loaded(fx.artifact());
  const std::size_t k = u64_at(*a.table, 0);
  const table_layout at{k};
  // PACK: u32 width at 0, u64 num_states at 4, u64 byte count at 12.
  const skew_case skews[] = {
      {"none", "", [](sweep_artifact&) {}},
      {"code", table_skew, [&](sweep_artifact& s) { (*s.table)[at.code(3)] ^= 1; }},
      {"role", table_skew, [&](sweep_artifact& s) { (*s.table)[at.role(1)] ^= 1; }},
      {"contrib", table_skew, [&](sweep_artifact& s) { (*s.table)[at.contrib(2, 0)] ^= 1; }},
      {"counters", table_skew,
       [](sweep_artifact& s) { put_at(*s.table, 8, u32_at(*s.table, 8) + 1); }},
      {"a2", table_skew, [&](sweep_artifact& s) { (*s.table)[at.a2(5)] ^= 1; }},
      {"b2", table_skew, [&](sweep_artifact& s) { (*s.table)[at.b2(7)] ^= 1; }},
      {"delta", table_skew, [&](sweep_artifact& s) { (*s.table)[at.delta(9, 1)] ^= 1; }},
      {"last entry", table_skew, [&](sweep_artifact& s) { (*s.table)[at.b2(k * k - 1)] ^= 1; }},
      {"missing row", table_skew,
       [&](sweep_artifact& s) { s.table->resize(at.a2(k * (k - 1))); }},
      {"PACK width", packed_skew,
       [](sweep_artifact& s) {
         put_at(*s.packed, 0, std::uint32_t{u32_at(*s.packed, 0) == 32 ? 16u : 32u});
       }},
      {"PACK invalid width", "artifact: packed section has an invalid word width",
       [](sweep_artifact& s) { put_at(*s.packed, 0, std::uint32_t{7}); }},
      {"PACK num_states", packed_skew,
       [](sweep_artifact& s) { put_at(*s.packed, 4, u64_at(*s.packed, 4) + 1); }},
      {"PACK bytes", packed_skew, [](sweep_artifact& s) { s.packed->back() ^= 0x10; }},
      {"PACK length", packed_skew, [](sweep_artifact& s) { s.packed->pop_back(); }},
      {"pack_bits", "artifact: rebuilt runner resolved a different config word width",
       [](sweep_artifact& s) { s.pack_bits = s.pack_bits == 32 ? 16 : 32; }},
  };
  for (const auto& s : skews) {
    EXPECT_EQ(skew_rejection(a, fx.runner, s.skew), s.message) << s.what;
  }

  const star_fixture star({.order = vertex_order::rcm});
  const sweep_artifact b = loaded(star.artifact());
  const std::string edge_skew =
      "artifact: this build's edge classes diverge from the stored ones "
      "(producer/worker version skew)";
  const skew_case star_skews[] = {
      {"none", "", [](sweep_artifact&) {}},
      {"EDGE class", edge_skew, [](sweep_artifact& s) { (*s.edge)[kEdgeClassesAt] ^= 1; }},
      {"EDGE class count", edge_skew,
       [](sweep_artifact& s) { put_at(*s.edge, 0, std::uint32_t{3}); }},
      {"EDGE length", edge_skew,
       [](sweep_artifact& s) {
         s.edge->push_back(0);
         put_at(*s.edge, 4, u64_at(*s.edge, 4) + 1);
       }},
      {"permutation", "artifact: reorder permutation diverges from this build",
       [](sweep_artifact& s) { std::swap(s.graph->old_of_new[0], s.graph->old_of_new[1]); }},
      {"permutation size", "artifact: reorder permutation size diverges from this build",
       [](sweep_artifact& s) { s.graph->old_of_new.pop_back(); }},
      {"order", "artifact: rebuilt runner uses a different vertex order",
       [](sweep_artifact& s) { s.graph->order = 0; }},
  };
  for (const auto& s : star_skews) {
    EXPECT_EQ(skew_rejection(b, star.runner, s.skew), s.message) << s.what;
  }
}

TEST(Artifact, EdgeSectionClassBoundsAreEnforcedOnParse) {
  const star_fixture fx;
  sweep_artifact a = loaded(fx.artifact());
  (*a.edge)[kEdgeClassesAt] = 7;  // beyond num_classes = 2
  EXPECT_THROW(artifact_from_bytes(artifact_bytes(a)), std::invalid_argument);
}

TEST(Artifact, ProtocolDescriptorsRoundTrip) {
  fast_params p;
  p.h = 5;
  p.level_threshold = 11;
  p.max_level = 44;
  const fast_params q = fast_params_of(fast_desc(p));
  EXPECT_EQ(q.h, p.h);
  EXPECT_EQ(q.level_threshold, p.level_threshold);
  EXPECT_EQ(q.max_level, p.max_level);

  EXPECT_EQ(six_population_of(six_desc(1234)), 1234);
  EXPECT_THROW(fast_params_of(six_desc(9)), std::invalid_argument);
  EXPECT_THROW(six_population_of(fast_desc(p)), std::invalid_argument);

  EXPECT_TRUE(star_desc().params.empty());
  EXPECT_NO_THROW(expect_star_desc(star_desc()));
  EXPECT_THROW(expect_star_desc(six_desc(9)), std::invalid_argument);
  EXPECT_THROW(fast_params_of(star_desc()), std::invalid_argument);
}

TEST(Artifact, WellmixedArtifactRoundTripsAndValidates) {
  const beauquier_protocol proto(500);
  const std::uint64_t n = 500;
  const wellmixed_sweep<beauquier_protocol> sweep(proto, n);
  const artifact_view a = make_wellmixed_artifact(sweep, "clique", six_desc(500));
  ASSERT_TRUE(a.wellmixed.has_value());
  EXPECT_EQ(a.wellmixed->population, n);
  // Six states, all candidates with a black token initially: one class.
  EXPECT_EQ(a.wellmixed->classes.size(), 1u);
  EXPECT_TRUE(a.tables.has_value());  // |Λ| = 6 closes easily

  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(meta_of(a) == meta_of(b));
  EXPECT_TRUE(b.wellmixed == a.wellmixed);
  EXPECT_TRUE(b.table.has_value());
  EXPECT_EQ(bytes, artifact_bytes(b));
  EXPECT_NO_THROW(validate_wellmixed_artifact(b, sweep));

  // A different population diverges loudly.
  const wellmixed_sweep<beauquier_protocol> other(proto, n - 1);
  EXPECT_THROW(validate_wellmixed_artifact(b, other), std::invalid_argument);
}

TEST(Artifact, HostileElementCountsAreRejectedBeforeAllocating) {
  // Hand-craft a checksummed file whose META section claims 2^32-1 protocol
  // parameters but carries none: the parser must reject it as truncated
  // instead of reserving gigabytes on the attacker-controlled count.
  auto put32 = [](std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  std::vector<std::uint8_t> payload;
  put32(payload, 0x4154454D);  // 'META'
  put32(payload, 0);           // reserved
  put64(payload, 12);          // section length
  put32(payload, 0);           // empty family string
  put32(payload, 1);           // protocol kind = fast
  put32(payload, 0xFFFFFFFF);  // hostile parameter count, no bytes behind it

  std::vector<std::uint8_t> file;
  put32(file, kArtifactMagic);
  put32(file, kArtifactEndianTag);
  put32(file, kArtifactVersion);
  put32(file, 0);  // engine = tuned
  put32(file, 1);  // one section
  put32(file, 0);  // reserved
  put64(file, payload.size());
  put64(file, fnv1a64(payload.data(), payload.size()));
  file.insert(file.end(), payload.begin(), payload.end());
  EXPECT_THROW(artifact_from_bytes(file), std::invalid_argument);
}

// Offset of the payload of the first section tagged `tag`, walking the
// section headers (u32 tag, u32 reserved, u64 length) past the 40-byte file
// header; b.size() if there is none.
std::size_t payload_of(const std::vector<std::uint8_t>& b, std::uint32_t tag) {
  std::size_t at = 40;
  while (at + 16 <= b.size() && u32_at(b, at) != tag) {
    std::uint64_t length;
    std::memcpy(&length, b.data() + at + 8, sizeof(length));
    at += 16 + length;
  }
  return at + 16 <= b.size() ? at + 16 : b.size();
}

// `bytes` with `value` written at `at` and the checksum fixed up, so the
// mutation reaches the section parsers.
template <typename T>
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  const std::uint64_t sum = fnv1a64(bytes.data() + 40, bytes.size() - 40);
  std::memcpy(bytes.data() + 32, &sum, sizeof(sum));
  return bytes;
}

TEST(Artifact, GraphNodeCountIsBoundedByTheEdgeList) {
  // A connected graph has n <= m + 1, so a GRPH section that claims more
  // nodes than its edges can connect (here the 1,543,504,072 a one-byte
  // mutation produced) must be rejected before rebuild_graph zero-fills
  // per-node arrays for it (~6 GB).
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());
  // The GRPH payload starts with the node count, then the edges.
  const std::size_t nodes_at = payload_of(good, 0x48505247);  // 'GRPH'
  ASSERT_LT(nodes_at, good.size());
  ASSERT_EQ(u32_at(good, nodes_at), 200u);
  auto with_nodes = [&](std::uint32_t n) { return patched(good, nodes_at, n); };
  EXPECT_NO_THROW(artifact_from_bytes(with_nodes(200)));
  EXPECT_THROW(artifact_from_bytes(with_nodes(1'543'504'072u)), std::invalid_argument);
  EXPECT_THROW(artifact_from_bytes(with_nodes(202)), std::invalid_argument);  // m + 2
  EXPECT_THROW(artifact_from_bytes(with_nodes(0)), std::invalid_argument);
}

TEST(Artifact, ProtocolParamsThatDoNotFitTheirFieldsAreRejected) {
  // The META params are u64 on the wire but construct int / node_id fields.
  // An h of 2^32 + 11 used to load, truncate to h = 11 and run the original
  // sweep; popsimd decodes the same params from TCP bytes.
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());
  // META: family (u32 length + bytes), u32 kind, u32 count, then u64 params.
  const std::size_t meta_at = payload_of(good, 0x4154454d);  // 'META'
  ASSERT_LT(meta_at, good.size());
  const std::size_t h_at = meta_at + 4 + u32_at(good, meta_at) + 8;
  auto loaded_h = [&](std::uint64_t h) {
    return artifact_from_bytes(patched(good, h_at, h)).protocol;
  };
  const int h = fx.proto.params().h;
  EXPECT_EQ(fast_params_of(loaded_h(static_cast<std::uint64_t>(h))).h, h);
  EXPECT_EQ(fast_params_of(loaded_h(2'147'483'647)).h, 2'147'483'647);
  EXPECT_THROW(fast_params_of(loaded_h((std::uint64_t{1} << 32) + 11)),
               std::invalid_argument);
  EXPECT_THROW(fast_params_of(loaded_h(2'147'483'648)), std::invalid_argument);

  const std::uint64_t too_big = std::uint64_t{1} << 31;
  EXPECT_THROW(fast_params_of({protocol_kind::fast, {5, too_big, 9}}),
               std::invalid_argument);
  EXPECT_THROW(fast_params_of({protocol_kind::fast, {5, 8, ~std::uint64_t{0}}}),
               std::invalid_argument);
  EXPECT_EQ(six_population_of({protocol_kind::six, {too_big - 1}}), 2'147'483'647);
  EXPECT_THROW(six_population_of({protocol_kind::six, {too_big}}), std::invalid_argument);
}

TEST(Artifact, WellmixedClassCountsMustSumToThePopulation) {
  // A population of 2^31 - 1 over classes that sum to 300 used to parse, and
  // a worker then built the O(population) initial multiset (seconds) before
  // validation noticed; popsimd parses the same bytes from TCP.
  const std::uint64_t n = 300;
  const fast_protocol proto(fast_params::practical_clique(n));
  const auto good = artifact_bytes(make_wellmixed_artifact(
      wellmixed_sweep<fast_protocol>(proto, n), "clique", fast_desc(proto.params())));
  // WMIX: u64 population, u64 class count, then (u64 code, u64 count) pairs.
  const std::size_t wmix_at = payload_of(good, 0x58494d57);  // 'WMIX'
  ASSERT_LT(wmix_at, good.size());
  ASSERT_EQ(u64_at(good, wmix_at), n);
  ASSERT_EQ(u64_at(good, wmix_at + 8), 1u);
  const std::size_t count_at = wmix_at + 24;
  ASSERT_EQ(u64_at(good, count_at), n);
  const std::string short_mass =
      "artifact: well-mixed class counts do not sum to the population";
  const std::string excess = "artifact: well-mixed class counts exceed the population";
  const auto parse = [](const std::vector<std::uint8_t>& b) {
    return rejection([&] { artifact_from_bytes(b); });
  };
  EXPECT_EQ(parse(good), "");
  EXPECT_EQ(parse(patched(good, wmix_at, std::uint64_t{2'147'483'647})), short_mass);
  EXPECT_EQ(parse(patched(good, wmix_at, n + 1)), short_mass);
  EXPECT_EQ(parse(patched(good, wmix_at, n - 1)), excess);
  EXPECT_EQ(parse(patched(good, count_at, ~std::uint64_t{0})), excess);
  EXPECT_EQ(parse(patched(good, count_at, n - 1)), short_mass);
  // A consistent change describes another valid sweep: it parses, and a
  // rebuild validates against it at its own population only.
  const auto smaller = patched(patched(good, wmix_at, n - 1), count_at, n - 1);
  const sweep_artifact loaded = artifact_from_bytes(smaller);
  EXPECT_EQ(loaded.wellmixed->population, n - 1);
  EXPECT_NO_THROW(
      validate_wellmixed_artifact(loaded, wellmixed_sweep<fast_protocol>(proto, n - 1)));
  EXPECT_THROW(validate_wellmixed_artifact(loaded, wellmixed_sweep<fast_protocol>(proto, n)),
               std::invalid_argument);
}

TEST(Artifact, WellmixedArtifactWithoutItsTableIsRejected) {
  // A producer omits TABL only when its closure exceeds the budget.  The
  // same file with TABL dropped (section count, payload length and
  // checksum fixed up) still parses — TABL is optional — but opening it
  // must fail: it would run without the transition-semantics gate.
  const std::uint64_t n = 300;
  const fast_protocol proto(fast_params::practical_clique(n));
  const wellmixed_sweep<fast_protocol> sweep(proto, n);
  ASSERT_TRUE(sweep.shared());
  const auto good =
      artifact_bytes(make_wellmixed_artifact(sweep, "clique", fast_desc(proto.params())));
  const std::size_t tabl_at = payload_of(good, 0x4c424154) - 16;  // 'TABL' record
  ASSERT_LT(tabl_at + 16, good.size());
  auto stripped = good;
  stripped.erase(stripped.begin() + static_cast<std::ptrdiff_t>(tabl_at),
                 stripped.begin() + static_cast<std::ptrdiff_t>(tabl_at + 16 +
                                                                u64_at(good, tabl_at + 8)));
  stripped = patched(stripped, 16, u32_at(good, 16) - 1);
  stripped = patched(stripped, 24, std::uint64_t{stripped.size() - 40});
  const sweep_artifact a = artifact_from_bytes(stripped);
  ASSERT_FALSE(a.table.has_value());
  const auto open = [](const std::vector<std::uint8_t>& bytes) {
    return rejection([&] { open_sweep(std::span(bytes), [](const auto&) {}); });
  };
  EXPECT_EQ(open(good), "");
  EXPECT_EQ(open(stripped),
            "artifact: no stored table, but this build's closure closes within the budget");
}

TEST(Artifact, PackedWidthAndSizeAreCheckedOnParse) {
  // The in-place PACK check compares bytes with the runner's table, so the
  // parser pins what those bytes must be: a word width in {8, 16, 32} and
  // exactly num_states² entries of that width's size.
  const std::size_t k = 14;  // fast {1, 2, 4} on a cycle: u8, 4-byte entries
  const graph g = make_cycle(40);
  const fast_protocol proto(fast_params{1, 2, 4});
  const tuned_runner<fast_protocol> runner(proto, g);
  ASSERT_EQ(runner.compiled().num_states(), k);
  ASSERT_EQ(runner.pack_bits(), 8);
  const auto good = artifact_bytes(make_tuned_artifact(runner, g, "cycle",
                                                       fast_desc(proto.params())));
  // PACK: u32 width, u64 num_states, u64 byte count, then the bytes.
  const std::size_t pack_at = payload_of(good, 0x4b434150);  // 'PACK'
  ASSERT_LT(pack_at, good.size());
  ASSERT_EQ(u32_at(good, pack_at), 8u);
  ASSERT_EQ(u64_at(good, pack_at + 4), k);
  ASSERT_EQ(u64_at(good, pack_at + 12), k * k * 4);
  const std::string bad_width = "artifact: packed section has an invalid word width";
  const std::string bad_size = "artifact: packed section size is not num_states² entries";
  const auto parse = [](const std::vector<std::uint8_t>& b) {
    return rejection([&] { artifact_from_bytes(b); });
  };
  EXPECT_EQ(parse(good), "");
  for (const std::uint32_t width : {0u, 7u, 9u, 24u, 64u, 0xFFFFFFFFu}) {
    EXPECT_EQ(parse(patched(good, pack_at, width)), bad_width) << width;
  }
  // k² × 4 bytes is no square count of 8- or 12-byte entries here.
  EXPECT_EQ(parse(patched(good, pack_at, std::uint32_t{16})), bad_size);
  EXPECT_EQ(parse(patched(good, pack_at, std::uint32_t{32})), bad_size);
  EXPECT_EQ(parse(patched(good, pack_at + 4, std::uint64_t{k + 1})), bad_size);
  EXPECT_EQ(parse(patched(good, pack_at + 4, std::uint64_t{0})), bad_size);
  EXPECT_EQ(parse(patched(good, pack_at + 4, std::uint64_t{1} << 32)), bad_size);
  EXPECT_EQ(parse(patched(good, pack_at + 4, ~std::uint64_t{0})), bad_size);
  // Twice the states need four times the bytes; half need a quarter.
  EXPECT_EQ(parse(patched(good, pack_at + 4, std::uint64_t{2 * k})), bad_size);
  EXPECT_EQ(parse(patched(good, pack_at + 4, std::uint64_t{k / 2})), bad_size);
}

// Size and fnv1a64 of each fixture's bytes as the field-by-field writer
// before the streaming one produced them: the format is fixed, so the
// streaming writer must reproduce every byte.
TEST(Artifact, BytesMatchTheParentWriter) {
  struct golden {
    const char* name;
    std::size_t size;
    std::uint64_t fnv;
  };
  const auto check = [](const golden& want, const artifact_view& a) {
    const auto bytes = artifact_bytes(a);
    EXPECT_EQ(bytes.size(), want.size) << want.name;
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), want.fnv) << want.name;
    const std::string path = testing::TempDir() + "/artifact_parent_bytes.ppaf";
    save_artifact(a, path);
    EXPECT_TRUE(read_artifact_file(path) == bytes) << want.name << ": file != bytes";
    std::remove(path.c_str());
  };
  check({"natural fast", 26'697'320, 0xc1bbd3dfa55afc30ull}, tuned_fixture().artifact());
  check({"rcm fast", 26'698'120, 0xa24b5ee71c559cbcull},
        tuned_fixture({.order = vertex_order::rcm}).artifact());
  check({"star", 1'835, 0x40d9728f4d4580efull},
        star_fixture({.order = vertex_order::rcm}).artifact());
  const std::uint64_t n = 300;
  const fast_protocol fast(fast_params::practical_clique(n));
  check({"wellmixed fast", 6'527'787, 0x72a874a61b7e7f6dull},
        make_wellmixed_artifact(wellmixed_sweep<fast_protocol>(fast, n), "clique",
                                fast_desc(fast.params())));
  const beauquier_protocol six(500);
  check({"wellmixed six", 527, 0xfec5cc5592ca90dfull},
        make_wellmixed_artifact(wellmixed_sweep<beauquier_protocol>(six, 500), "clique",
                                six_desc(500)));
}

// (offset, length) of every section record, header included, in file order.
std::vector<std::pair<std::size_t, std::size_t>> sections_of(
    const std::vector<std::uint8_t>& b) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t at = 40; at + 16 <= b.size();) {
    const std::size_t length = 16 + u64_at(b, at + 8);
    out.emplace_back(at, length);
    at += length;
  }
  return out;
}

// One seeded corruption of a valid artifact, in the shapes of the shared
// mutator (tests/mutation.h):
// bit flips, byte overwrites, truncation and splices, here of whole
// sections, plus field-sized overwrites with boundary and off-by-one values
// aimed at the counts.  The checksum is fixed up afterwards so the mutation
// reaches the section parsers.
std::vector<std::uint8_t> mutated(const std::vector<std::uint8_t>& valid, int i, rng& gen) {
  std::vector<std::uint8_t> b = valid;
  switch (i % 5) {
    case 0: {  // flip 1-3 random bits
      const std::uint64_t flips = 1 + gen.uniform_below(3);
      for (std::uint64_t k = 0; k < flips; ++k) {
        const std::uint64_t bit = gen.uniform_below(b.size() * 8);
        b[bit / 8] = static_cast<std::uint8_t>(b[bit / 8] ^ (1u << (bit % 8)));
      }
      break;
    }
    case 1: {  // overwrite one byte with 0x00, 0xFF or a random byte
      const std::uint8_t picks[] = {0x00, 0xFF, static_cast<std::uint8_t>(gen.uniform_below(256))};
      b[gen.uniform_below(b.size())] = picks[gen.uniform_below(3)];
      break;
    }
    case 2: {  // a u32 or u64 field-sized overwrite
      const std::size_t width = gen.uniform_below(2) == 0 ? 4 : 8;
      const std::size_t at = gen.uniform_below(b.size() - width + 1);
      std::uint64_t old = 0;
      std::memcpy(&old, b.data() + at, width);
      const std::uint64_t picks[] = {0, 1, old + 1, old - 1, old * 2, 0x7FFFFFFF,
                                     0xFFFFFFFF, std::uint64_t{1} << 32,
                                     std::uint64_t{1} << 63, ~std::uint64_t{0}};
      const std::uint64_t v = picks[gen.uniform_below(std::size(picks))];
      std::memcpy(b.data() + at, &v, width);
      break;
    }
    case 3:  // truncate anywhere, including inside the header
      b.resize(gen.uniform_below(b.size() + 1));
      break;
    default: {  // splice: one section dropped, duplicated or moved
      const auto sections = sections_of(valid);
      std::vector<std::vector<std::uint8_t>> records;
      for (const auto& [at, length] : sections) {
        records.emplace_back(valid.begin() + static_cast<std::ptrdiff_t>(at),
                             valid.begin() + static_cast<std::ptrdiff_t>(at + length));
      }
      const std::size_t from = gen.uniform_below(records.size());
      const std::size_t to = gen.uniform_below(records.size() + 1);
      const auto record = records[from];
      switch (gen.uniform_below(3)) {
        case 0: records.erase(records.begin() + static_cast<std::ptrdiff_t>(from)); break;
        case 1: records.insert(records.begin() + static_cast<std::ptrdiff_t>(to), record); break;
        default:
          records.erase(records.begin() + static_cast<std::ptrdiff_t>(from));
          records.insert(records.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(to, records.size())),
                         record);
      }
      b.resize(40);
      for (const auto& r : records) b.insert(b.end(), r.begin(), r.end());
      const auto count = static_cast<std::uint32_t>(records.size());
      const std::uint64_t payload = b.size() - 40;
      std::memcpy(b.data() + 16, &count, sizeof(count));
      std::memcpy(b.data() + 24, &payload, sizeof(payload));
    }
  }
  if (b.size() >= 40) {
    const std::uint64_t sum = fnv1a64(b.data() + 40, b.size() - 40);
    std::memcpy(b.data() + 32, &sum, sizeof(sum));
  }
  return b;
}

// Every seeded mutation of a valid artifact must be rejected with
// std::invalid_argument or parse to an artifact that re-serializes to the
// very same bytes — never a crash, another exception type, or a value the
// writer cannot reproduce.  When META survives, the mutated bytes are also
// opened as a worker would (open_sweep over them): that must throw
// std::invalid_argument or pass, and it may pass only with the original's
// tables (they are a function of META).  A mutated META is not opened: its
// params could drive a closure up to the engine budget.
TEST(Artifact, SeededMutationsAreRejectedOrRoundTrip) {
  struct fixture {
    const char* name;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<fixture> fixtures;
  {
    const graph g = make_cycle(40);
    const fast_protocol proto(fast_params{1, 2, 4});
    const tuned_runner<fast_protocol> runner(proto, g, {.order = vertex_order::rcm});
    fixtures.push_back({"tuned fast rcm", artifact_bytes(make_tuned_artifact(
                                              runner, g, "cycle", fast_desc(proto.params())))});
  }
  fixtures.push_back(
      {"tuned star rcm", artifact_bytes(star_fixture({.order = vertex_order::rcm}).artifact())});
  {
    const fast_protocol proto(fast_params{2, 3, 6});
    fixtures.push_back({"wellmixed fast", artifact_bytes(make_wellmixed_artifact(
                                              wellmixed_sweep<fast_protocol>(proto, 40),
                                              "clique", fast_desc(proto.params())))});
  }
  {
    const beauquier_protocol proto(500);
    fixtures.push_back({"wellmixed six", artifact_bytes(make_wellmixed_artifact(
                                             wellmixed_sweep<beauquier_protocol>(proto, 500),
                                             "clique", six_desc(500)))});
  }

  rng gen(2024);
  for (const fixture& fx : fixtures) {
    const auto& valid = fx.bytes;
    const sweep_artifact original = artifact_from_bytes(valid);
    ASSERT_LT(valid.size(), 16'384u) << fx.name << ": keep the fixtures small";
    std::size_t rejected = 0;
    std::size_t accepted = 0;
    std::size_t validated = 0;
    for (int i = 0; i < 2500; ++i) {
      const auto bytes = mutated(valid, i, gen);
      sweep_artifact parsed;
      try {
        parsed = artifact_from_bytes(bytes);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      }
      ++accepted;
      // A version-1 header parses as its version-2 equivalent (v2 only
      // added the optional EDGE section), so the writer answers with 2.
      auto expected = bytes;
      if (u32_at(expected, 8) == 1) expected[8] = static_cast<std::uint8_t>(kArtifactVersion);
      ASSERT_TRUE(artifact_bytes(parsed) == expected) << fx.name << ", mutation " << i;

      const bool same_meta = parsed.family == original.family &&
                             parsed.protocol == original.protocol &&
                             parsed.pack_bits == original.pack_bits;
      // A consistent WMIX far past the fixture's population is a valid but
      // large sweep; its O(population) initial multiset adds nothing here.
      const bool small = !parsed.wellmixed || parsed.wellmixed->population <= 4096;
      if (!same_meta || !small) continue;
      try {
        open_sweep(std::span(bytes), [](const auto&) {});
      } catch (const std::invalid_argument&) {
        continue;
      }
      ++validated;
      // The tables are a function of META, and every fixture's closure
      // closes, so a mutant that opens carries exactly the original's:
      // a dropped TABL, PACK or EDGE is a stripped file.
      EXPECT_TRUE(parsed.table == original.table && parsed.packed == original.packed &&
                  parsed.edge == original.edge)
          << fx.name << ", mutation " << i << " validated with other tables";
    }
    // Every outcome occurs, so no branch is vacuous.
    EXPECT_GT(rejected, 0u) << fx.name;
    EXPECT_GT(accepted, 0u) << fx.name;
    EXPECT_GT(validated, 0u) << fx.name;
    std::printf("%s: %zu bytes, %zu rejected, %zu accepted, %zu validated\n", fx.name,
                valid.size(), rejected, accepted, validated);
  }
}

TEST(Artifact, FnvVectors) {
  // Classic FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a64(&a, 1), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace pp::fleet
