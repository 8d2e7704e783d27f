// Fleet artifact container (src/fleet/artifact.h): byte-stable round trips,
// header/checksum rejection, and snapshot/validate over the compiled engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

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

  sweep_artifact artifact() const {
    return make_tuned_artifact(runner, g, "cycle", fast_desc(proto.params()));
  }
};

TEST(Artifact, TunedRoundTripIsByteStable) {
  const tuned_fixture fx;
  const sweep_artifact a = fx.artifact();
  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(a == b);
  // save(load(x)) must reproduce x byte for byte — the CI round-trip gate.
  EXPECT_EQ(bytes, artifact_bytes(b));
}

TEST(Artifact, FileRoundTrip) {
  const tuned_fixture fx;
  const sweep_artifact a = fx.artifact();
  const std::string path = testing::TempDir() + "/artifact_roundtrip.ppaf";
  save_artifact(a, path);
  const sweep_artifact b = load_artifact(path);
  EXPECT_TRUE(a == b);
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
  table_section t = snapshot_table(compiled);
  EXPECT_NO_THROW(validate_table(t, compiled));
  EXPECT_EQ(t.codes.size(), compiled.num_states());
  EXPECT_EQ(t.entries.size(), compiled.num_states() * compiled.num_states());

  table_section skewed = t;
  skewed.codes[0] ^= 1;  // a producer whose states encode differently
  EXPECT_THROW(validate_table(skewed, compiled), std::invalid_argument);

  table_section wrong_entry = t;
  wrong_entry.entries[1].a2 ^= 1;
  EXPECT_THROW(validate_table(wrong_entry, compiled), std::invalid_argument);
}

TEST(Artifact, PackedSnapshotMatchesResolvedWidth) {
  const tuned_fixture fx;
  const auto& compiled = fx.runner.compiled();
  const int width = fx.runner.pack_bits();
  packed_section p = snapshot_packed(compiled, width);
  EXPECT_EQ(p.width_bits, static_cast<std::uint32_t>(width));
  EXPECT_EQ(p.num_states, compiled.num_states());
  EXPECT_NO_THROW(validate_packed(p, compiled));

  packed_section corrupt = p;
  corrupt.bytes[0] ^= 1;
  EXPECT_THROW(validate_packed(corrupt, compiled), std::invalid_argument);
}

TEST(Artifact, GraphSectionRoundTripsWithPermutation) {
  // RCM order exercises the stored permutation path.
  const tuned_fixture fx({.order = vertex_order::rcm});
  const sweep_artifact a = fx.artifact();
  ASSERT_TRUE(a.graph.has_value());
  EXPECT_EQ(a.graph->old_of_new.size(),
            static_cast<std::size_t>(fx.g.num_nodes()));

  const graph rebuilt = rebuild_graph(*a.graph);
  EXPECT_EQ(rebuilt.num_nodes(), fx.g.num_nodes());
  EXPECT_EQ(rebuilt.num_edges(), fx.g.num_edges());
  EXPECT_TRUE(rebuilt.edges() == fx.g.edges());
  // Snapshot of the rebuilt graph reproduces the section exactly.
  std::vector<node_id> old_of_new(a.graph->old_of_new.begin(),
                                  a.graph->old_of_new.end());
  EXPECT_TRUE(snapshot_graph(rebuilt, vertex_order::rcm, old_of_new) == *a.graph);
}

TEST(Artifact, TunedArtifactValidatesAgainstFreshRebuild) {
  const tuned_fixture fx;
  const sweep_artifact a = fx.artifact();
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

  sweep_artifact artifact() const {
    return make_tuned_artifact(runner, g, "cycle", star_desc());
  }
};

TEST(Artifact, StarArtifactCarriesTheEdgeSectionAndRoundTrips) {
  const star_fixture fx;
  const sweep_artifact a = fx.artifact();
  ASSERT_TRUE(a.edge.has_value());
  EXPECT_EQ(a.edge->num_classes, 2u);
  // Reachable states: undecided (class 0), leader and follower (class 1).
  ASSERT_EQ(a.edge->classes.size(), fx.runner.compiled().num_states());
  EXPECT_EQ(a.edge->classes[0], 0);
  for (std::size_t id = 1; id < a.edge->classes.size(); ++id) {
    EXPECT_EQ(a.edge->classes[id], 1) << "state id " << id;
  }

  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(bytes, artifact_bytes(b));  // the CI round-trip gate, star flavour

  // Checksum rejection holds for EDGE-bearing artifacts too.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x01;
  EXPECT_THROW(artifact_from_bytes(corrupt), std::invalid_argument);
}

TEST(Artifact, StarArtifactValidatesAgainstFreshRebuildAndDetectsSkew) {
  const star_fixture fx({.order = vertex_order::rcm});
  const sweep_artifact a = fx.artifact();
  const graph g = rebuild_graph(*a.graph);
  const tuned_runner<star_protocol> rebuilt(star_protocol{}, g, tuning_of(a));
  EXPECT_NO_THROW(validate_tuned_artifact(a, rebuilt));

  // A producer whose build assigns different edge classes must fail loudly.
  sweep_artifact skewed = a;
  skewed.edge->classes[0] ^= 1;
  EXPECT_THROW(validate_tuned_artifact(skewed, rebuilt), std::invalid_argument);

  // A star artifact stripped of its EDGE section is rejected outright.
  sweep_artifact stripped = a;
  stripped.edge.reset();
  EXPECT_THROW(validate_tuned_artifact(stripped, rebuilt), std::invalid_argument);
}

TEST(Artifact, EdgeSectionClassBoundsAreEnforcedOnParse) {
  const star_fixture fx;
  sweep_artifact a = fx.artifact();
  a.edge->classes[0] = 7;  // beyond num_classes = 2
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
  const auto initial = initial_multiset(proto, n);
  const sweep_artifact a =
      make_wellmixed_artifact(proto, initial, n, "clique", six_desc(500));
  ASSERT_TRUE(a.wellmixed.has_value());
  EXPECT_EQ(a.wellmixed->population, n);
  // Six states, all candidates with a black token initially: one class.
  EXPECT_EQ(a.wellmixed->classes.size(), 1u);
  EXPECT_TRUE(a.table.has_value());  // |Λ| = 6 closes easily

  const auto bytes = artifact_bytes(a);
  const sweep_artifact b = artifact_from_bytes(bytes);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(bytes, artifact_bytes(b));
  EXPECT_NO_THROW(validate_wellmixed_artifact(b, proto, initial));

  // A different population diverges loudly.
  const auto other = initial_multiset(proto, n - 1);
  EXPECT_THROW(validate_wellmixed_artifact(b, proto, other), std::invalid_argument);
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

// Byte-level surgery on a saved artifact, for the parsers' bounds checks.
std::uint32_t u32_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
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

TEST(Artifact, FnvVectors) {
  // Classic FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a64(&a, 1), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace pp::fleet
