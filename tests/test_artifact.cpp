// Fleet artifact container (src/fleet/artifact.h): byte-stable round trips,
// header/checksum rejection, and save/open/validate over the compiled
// engine, the stored sections compared against the runner's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
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

// Section tags as they lie in a file (four ASCII bytes, little-endian).
constexpr std::uint32_t kMeta = 0x4154454d;    // 'META'
constexpr std::uint32_t kGraph = 0x48505247;   // 'GRPH'
constexpr std::uint32_t kTable = 0x4c424154;   // 'TABL'
constexpr std::uint32_t kPacked = 0x4b434150;  // 'PACK'
constexpr std::uint32_t kEdge = 0x45474445;    // 'EDGE'
constexpr std::uint32_t kWellmixed = 0x58494d57;  // 'WMIX'

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

// Offset of the payload of the first section tagged `tag`, walking the
// section headers (u32 tag, u32 reserved, u64 length) past the 40-byte file
// header; b.size() if there is none.
std::size_t payload_of(const std::vector<std::uint8_t>& b, std::uint32_t tag) {
  std::size_t at = 40;
  while (at + 16 <= b.size() && u32_at(b, at) != tag) {
    at += 16 + u64_at(b, at + 8);
  }
  return at + 16 <= b.size() ? at + 16 : b.size();
}

// A copy of the payload of the first section tagged `tag` (empty if none).
std::vector<std::uint8_t> section_of(const std::vector<std::uint8_t>& b, std::uint32_t tag) {
  const std::size_t at = payload_of(b, tag);
  if (at == b.size()) return {};
  const auto begin = b.begin() + static_cast<std::ptrdiff_t>(at);
  return {begin, begin + static_cast<std::ptrdiff_t>(u64_at(b, at - 8))};
}

// `bytes` with the header checksum at offset 32 recomputed over the payload,
// so a mutation reaches the section parsers.
std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> bytes) {
  put_at(bytes, 32, fnv1a64(bytes.data() + 40, bytes.size() - 40));
  return bytes;
}

// `bytes` with `value` written at `at`, resealed.
template <typename T>
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> bytes, std::size_t at, T value) {
  put_at(bytes, at, value);
  return resealed(std::move(bytes));
}

// `bytes` with the payload of its section tagged `tag` edited in place by
// `edit`, which may resize it; the section's length and the payload length
// are fixed up and the checksum resealed, so the edit reaches the parsers.
template <typename Edit>
std::vector<std::uint8_t> with_section(std::vector<std::uint8_t> bytes, std::uint32_t tag,
                                       Edit&& edit) {
  const std::size_t at = payload_of(bytes, tag);
  EXPECT_LT(at, bytes.size()) << "no section " << tag;
  const auto begin = bytes.begin() + static_cast<std::ptrdiff_t>(at);
  const auto end = begin + static_cast<std::ptrdiff_t>(u64_at(bytes, at - 8));
  std::vector<std::uint8_t> payload(begin, end);
  edit(payload);
  bytes.erase(begin, end);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), payload.begin(), payload.end());
  put_at(bytes, at - 8, std::uint64_t{payload.size()});
  put_at(bytes, 24, std::uint64_t{bytes.size() - 40});
  return resealed(std::move(bytes));
}

// `bytes` with its section tagged `tag` dropped (section count, payload
// length and checksum fixed up).
std::vector<std::uint8_t> without_section(std::vector<std::uint8_t> bytes, std::uint32_t tag) {
  const std::size_t at = payload_of(bytes, tag) - 16;
  EXPECT_LT(at + 16, bytes.size()) << "no section " << tag;
  const auto begin = bytes.begin() + static_cast<std::ptrdiff_t>(at);
  bytes.erase(begin, begin + static_cast<std::ptrdiff_t>(16 + u64_at(bytes, at + 8)));
  put_at(bytes, 16, u32_at(bytes, 16) - 1);
  put_at(bytes, 24, std::uint64_t{bytes.size() - 40});
  return resealed(std::move(bytes));
}

// The whole file at `path`.
std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
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

// What opening `bytes` against `runner` throws — pass 1 (sweep_artifact),
// then pass 2 (validate_tuned_artifact) — or "" if both pass.
template <typename Runner>
std::string open_rejection(const std::vector<std::uint8_t>& bytes, const Runner& runner) {
  return rejection([&] { validate_tuned_artifact(sweep_artifact(bytes), runner); });
}

TEST(Artifact, TunedRoundTripIsByteStable) {
  const tuned_fixture fx;
  const artifact_view a = fx.artifact();
  const auto bytes = artifact_bytes(a);
  const sweep_artifact b(bytes);
  EXPECT_TRUE(meta_of(a) == meta_of(b));
  // save(load(x)) must reproduce x byte for byte — the CI round-trip gate.
  EXPECT_EQ(bytes, artifact_bytes(b));
}

TEST(Artifact, FileRoundTrip) {
  const tuned_fixture fx;
  const artifact_view a = fx.artifact();
  const std::string path = testing::TempDir() + "/artifact_roundtrip.ppaf";
  save_artifact(a, path);
  sweep_artifact b = load_artifact(path);
  EXPECT_TRUE(meta_of(a) == meta_of(b));
  EXPECT_EQ(artifact_bytes(b), artifact_bytes(a));
  // Moving a reader keeps it reading the same file.
  const sweep_artifact moved = std::move(b);
  EXPECT_EQ(artifact_bytes(moved), artifact_bytes(a));
  EXPECT_NO_THROW(validate_tuned_artifact(moved, fx.runner));
  std::remove(path.c_str());
}

TEST(Artifact, ChecksumDetectsPayloadCorruption) {
  const tuned_fixture fx;
  auto bytes = artifact_bytes(fx.artifact());
  ASSERT_GT(bytes.size(), 64u);
  bytes[60] ^= 0x01;  // flip one payload bit past the 40-byte header
  EXPECT_THROW(sweep_artifact{bytes}, std::invalid_argument);
}

TEST(Artifact, RejectsBadMagicVersionAndEndianness) {
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(sweep_artifact{bad_magic}, std::invalid_argument);

  auto bad_endian = good;
  // Byte-swap the endianness tag: exactly what a foreign-endian writer
  // would have produced.
  std::swap(bad_endian[4], bad_endian[7]);
  std::swap(bad_endian[5], bad_endian[6]);
  EXPECT_THROW(sweep_artifact{bad_endian}, std::invalid_argument);

  auto bad_version = good;
  bad_version[8] = static_cast<std::uint8_t>(kArtifactVersion + 1);
  EXPECT_THROW(sweep_artifact{bad_version}, std::invalid_argument);

  // v1 files stay loadable: v2 only added the optional EDGE section, so a
  // version-1 header over the same layout parses (the version byte is
  // outside the checksummed payload).
  auto v1 = good;
  v1[8] = 1;
  EXPECT_NO_THROW(sweep_artifact{v1});

  auto truncated = good;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW(sweep_artifact{truncated}, std::invalid_argument);

  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(sweep_artifact{empty}, std::invalid_argument);
}

TEST(Artifact, TableSnapshotValidatesAndDetectsSkew) {
  const tuned_fixture fx;
  const auto& compiled = fx.runner.compiled();
  const auto bytes = artifact_bytes(fx.artifact());
  EXPECT_EQ(open_rejection(bytes, fx.runner), "");
  const auto table = section_of(bytes, kTable);
  const table_layout at{compiled.num_states()};
  EXPECT_EQ(u64_at(table, 0), compiled.num_states());
  EXPECT_EQ(table.size(), at.size());

  // A producer whose states encode differently.
  const auto skewed = with_section(bytes, kTable, [&](auto& t) { t[at.code(0)] ^= 1; });
  EXPECT_THROW(validate_tuned_artifact(sweep_artifact(skewed), fx.runner),
               std::invalid_argument);

  const auto wrong_entry = with_section(bytes, kTable, [&](auto& t) { t[at.a2(1)] ^= 1; });
  EXPECT_THROW(validate_tuned_artifact(sweep_artifact(wrong_entry), fx.runner),
               std::invalid_argument);
}

TEST(Artifact, PackedSnapshotMatchesResolvedWidth) {
  const tuned_fixture fx;
  const auto& compiled = fx.runner.compiled();
  const int width = fx.runner.pack_bits();
  const auto bytes = artifact_bytes(fx.artifact());
  // PACK: u32 width, u64 num_states, u64 byte count, then the bytes.
  const std::vector<std::uint8_t> p = section_of(bytes, kPacked);
  ASSERT_FALSE(p.empty());
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
  EXPECT_EQ(open_rejection(bytes, fx.runner), "");

  const auto corrupt = with_section(bytes, kPacked, [](auto& q) { q[20] ^= 1; });
  EXPECT_THROW(validate_tuned_artifact(sweep_artifact(corrupt), fx.runner),
               std::invalid_argument);
}

TEST(Artifact, GraphSectionRoundTripsWithPermutation) {
  // RCM order exercises the stored permutation path.
  const tuned_fixture fx({.order = vertex_order::rcm});
  const auto bytes = artifact_bytes(fx.artifact());
  const sweep_artifact a(bytes);
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

// META's last field is the resolved config word width.
void swap_pack_bits(std::vector<std::uint8_t>& meta) {
  const std::size_t at = meta.size() - 4;
  put_at(meta, at, std::uint32_t{u32_at(meta, at) == 32 ? 16u : 32u});
}

TEST(Artifact, TunedArtifactValidatesAgainstFreshRebuild) {
  const tuned_fixture fx;
  const auto bytes = artifact_bytes(fx.artifact());
  const sweep_artifact a(bytes);
  // A worker's view: rebuild everything from the artifact alone.
  const fast_protocol proto(fast_params_of(a.protocol));
  const graph g = rebuild_graph(*a.graph);
  const tuned_runner<fast_protocol> rebuilt(proto, g, tuning_of(a));
  EXPECT_NO_THROW(validate_tuned_artifact(a, rebuilt));

  const auto skewed = with_section(bytes, kMeta, swap_pack_bits);
  EXPECT_THROW(validate_tuned_artifact(sweep_artifact(skewed), rebuilt), std::invalid_argument);
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
  const sweep_artifact b(bytes);
  const std::vector<std::uint8_t> edge = section_of(bytes, kEdge);
  ASSERT_FALSE(edge.empty());
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
  EXPECT_THROW(sweep_artifact{corrupt}, std::invalid_argument);
}

TEST(Artifact, StarArtifactValidatesAgainstFreshRebuildAndDetectsSkew) {
  const star_fixture fx({.order = vertex_order::rcm});
  const auto bytes = artifact_bytes(fx.artifact());
  const sweep_artifact a(bytes);
  const graph g = rebuild_graph(*a.graph);
  const tuned_runner<star_protocol> rebuilt(star_protocol{}, g, tuning_of(a));
  EXPECT_NO_THROW(validate_tuned_artifact(a, rebuilt));

  // A producer whose build assigns different edge classes must fail loudly.
  const auto skewed = with_section(bytes, kEdge, [](auto& e) { e[kEdgeClassesAt] ^= 1; });
  EXPECT_THROW(validate_tuned_artifact(sweep_artifact(skewed), rebuilt), std::invalid_argument);

  // A star artifact stripped of its EDGE section is rejected outright.
  const auto stripped = without_section(bytes, kEdge);
  EXPECT_EQ(open_rejection(stripped, rebuilt),
            "artifact: edge-census protocol without an EDGE section");
}

// Validation compares the stored bytes with the runner's serialization:
// every single-field skew of a stored section must still be rejected, with
// the message each check has always thrown.  Each skew edits the file's own
// bytes and reseals it.  A skew that would leave a section inconsistent with
// itself (a shorter table, a PACK whose size no longer fits its width or
// state count, a partial permutation) is written as a whole section that
// pass 1 accepts, so it reaches the comparison; only the invalid PACK width
// is caught by pass 1, which throws pass 2's message.
TEST(Artifact, EverySingleFieldSkewIsRejectedWithItsMessage) {
  const std::string table_skew =
      "artifact: this build's closed table diverges from the stored one "
      "(producer/worker version skew)";
  const std::string packed_skew =
      "artifact: this build's packed table diverges from the stored one";
  using section = std::vector<std::uint8_t>;
  struct skew_case {
    const char* what;
    std::string message;
    std::uint32_t tag;
    std::function<void(section&)> skew;
  };
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());
  const std::size_t k = u64_at(section_of(good, kTable), 0);
  const table_layout at{k};
  // PACK: u32 width at 0, u64 num_states at 4, u64 byte count at 12, then
  // num_states² entries of 4, 8 or 12 bytes.  A PACK for `states` states at
  // `width` bits, laid out as pass 1 requires.
  const auto reshape_pack = [](section& p, std::uint32_t width, std::uint64_t states) {
    const std::uint64_t size = states * states * (width == 8 ? 4 : width == 16 ? 8 : 12);
    p.resize(20 + size);
    put_at(p, 0, width);
    put_at(p, 4, states);
    put_at(p, 12, size);
  };
  const skew_case skews[] = {
      {"none", "", kTable, [](section&) {}},
      {"code", table_skew, kTable, [&](section& t) { t[at.code(3)] ^= 1; }},
      {"role", table_skew, kTable, [&](section& t) { t[at.role(1)] ^= 1; }},
      {"contrib", table_skew, kTable, [&](section& t) { t[at.contrib(2, 0)] ^= 1; }},
      {"counters", table_skew, kTable, [](section& t) { put_at(t, 8, u32_at(t, 8) + 1); }},
      {"a2", table_skew, kTable, [&](section& t) { t[at.a2(5)] ^= 1; }},
      {"b2", table_skew, kTable, [&](section& t) { t[at.b2(7)] ^= 1; }},
      {"delta", table_skew, kTable, [&](section& t) { t[at.delta(9, 1)] ^= 1; }},
      {"last entry", table_skew, kTable, [&](section& t) { t[at.b2(k * k - 1)] ^= 1; }},
      {"table for k - 1 states", table_skew, kTable,
       [&](section& t) {
         t.resize(table_layout{k - 1}.size());
         put_at(t, 0, std::uint64_t{k - 1});
       }},
      {"PACK width", packed_skew, kPacked,
       [&](section& p) { reshape_pack(p, u32_at(p, 0) == 32 ? 16u : 32u, k); }},
      {"PACK invalid width", "artifact: packed section has an invalid word width", kPacked,
       [](section& p) { put_at(p, 0, std::uint32_t{7}); }},
      {"PACK for k + 1 states", packed_skew, kPacked,
       [&](section& p) { reshape_pack(p, u32_at(p, 0), k + 1); }},
      {"PACK bytes", packed_skew, kPacked, [](section& p) { p.back() ^= 0x10; }},
      {"PACK for k - 1 states", packed_skew, kPacked,
       [&](section& p) { reshape_pack(p, u32_at(p, 0), k - 1); }},
      {"pack_bits", "artifact: rebuilt runner resolved a different config word width", kMeta,
       swap_pack_bits},
  };
  for (const auto& s : skews) {
    EXPECT_EQ(open_rejection(with_section(good, s.tag, s.skew), fx.runner), s.message)
        << s.what;
  }

  const star_fixture star({.order = vertex_order::rcm});
  const auto star_good = artifact_bytes(star.artifact());
  const std::string edge_skew =
      "artifact: this build's edge classes diverge from the stored ones "
      "(producer/worker version skew)";
  // GRPH: u32 nodes, u64 m, m (u, v) pairs, u32 order, u64 permutation
  // size, then the permutation.
  const std::size_t order_at = 12 + 8 * static_cast<std::size_t>(star.g.num_edges());
  const std::size_t perm_at = order_at + 12;
  const skew_case star_skews[] = {
      {"none", "", kEdge, [](section&) {}},
      {"EDGE class", edge_skew, kEdge, [](section& e) { e[kEdgeClassesAt] ^= 1; }},
      {"EDGE class count", edge_skew, kEdge, [](section& e) { put_at(e, 0, std::uint32_t{3}); }},
      {"EDGE length", edge_skew, kEdge,
       [](section& e) {
         e.push_back(0);
         put_at(e, 4, u64_at(e, 4) + 1);
       }},
      {"permutation", "artifact: reorder permutation diverges from this build", kGraph,
       [&](section& g) {
         const std::uint32_t first = u32_at(g, perm_at);
         put_at(g, perm_at, u32_at(g, perm_at + 4));
         put_at(g, perm_at + 4, first);
       }},
      {"empty permutation", "artifact: reorder permutation size diverges from this build",
       kGraph,
       [&](section& g) {
         g.resize(perm_at);
         put_at(g, perm_at - 8, std::uint64_t{0});
       }},
      {"order", "artifact: rebuilt runner uses a different vertex order", kGraph,
       [&](section& g) { put_at(g, order_at, std::uint32_t{0}); }},
  };
  for (const auto& s : star_skews) {
    EXPECT_EQ(open_rejection(with_section(star_good, s.tag, s.skew), star.runner), s.message)
        << s.what;
  }
}

TEST(Artifact, EdgeSectionClassBoundsAreEnforcedOnParse) {
  const star_fixture fx;
  const auto bytes = with_section(artifact_bytes(fx.artifact()), kEdge,
                                  [](auto& e) { e[kEdgeClassesAt] = 7; });  // beyond 2 classes
  EXPECT_THROW(sweep_artifact{bytes}, std::invalid_argument);
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
  const sweep_artifact b(bytes);
  EXPECT_TRUE(meta_of(a) == meta_of(b));
  EXPECT_TRUE(b.wellmixed == a.wellmixed);
  EXPECT_FALSE(section_of(bytes, kTable).empty());
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
  EXPECT_THROW(sweep_artifact{file}, std::invalid_argument);
}

TEST(Artifact, GraphNodeCountIsBoundedByTheEdgeList) {
  // A connected graph has n <= m + 1, so a GRPH section that claims more
  // nodes than its edges can connect (here the 1,543,504,072 a one-byte
  // mutation produced) must be rejected before rebuild_graph zero-fills
  // per-node arrays for it (~6 GB).
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());
  // The GRPH payload starts with the node count, then the edges.
  const std::size_t nodes_at = payload_of(good, kGraph);
  ASSERT_LT(nodes_at, good.size());
  ASSERT_EQ(u32_at(good, nodes_at), 200u);
  auto parses_with_nodes = [&](std::uint32_t n) {
    const auto bytes = patched(good, nodes_at, n);
    return rejection([&] { sweep_artifact{bytes}; }).empty();
  };
  EXPECT_TRUE(parses_with_nodes(200));
  EXPECT_FALSE(parses_with_nodes(1'543'504'072u));
  EXPECT_FALSE(parses_with_nodes(202));  // m + 2
  EXPECT_FALSE(parses_with_nodes(0));
}

TEST(Artifact, ProtocolParamsThatDoNotFitTheirFieldsAreRejected) {
  // The META params are u64 on the wire but construct int / node_id fields.
  // An h of 2^32 + 11 used to load, truncate to h = 11 and run the original
  // sweep; popsimd decodes the same params from TCP bytes.
  const tuned_fixture fx;
  const auto good = artifact_bytes(fx.artifact());
  // META: family (u32 length + bytes), u32 kind, u32 count, then u64 params.
  const std::size_t meta_at = payload_of(good, kMeta);
  ASSERT_LT(meta_at, good.size());
  const std::size_t h_at = meta_at + 4 + u32_at(good, meta_at) + 8;
  auto loaded_h = [&](std::uint64_t h) {
    const auto bytes = patched(good, h_at, h);
    return sweep_artifact(bytes).protocol;
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
  const std::size_t wmix_at = payload_of(good, kWellmixed);
  ASSERT_LT(wmix_at, good.size());
  ASSERT_EQ(u64_at(good, wmix_at), n);
  ASSERT_EQ(u64_at(good, wmix_at + 8), 1u);
  const std::size_t count_at = wmix_at + 24;
  ASSERT_EQ(u64_at(good, count_at), n);
  const std::string short_mass =
      "artifact: well-mixed class counts do not sum to the population";
  const std::string excess = "artifact: well-mixed class counts exceed the population";
  const auto parse = [](const std::vector<std::uint8_t>& b) {
    return rejection([&] { sweep_artifact{b}; });
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
  const sweep_artifact loaded(smaller);
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
  const auto stripped = without_section(good, kTable);
  EXPECT_NO_THROW(sweep_artifact{stripped});
  ASSERT_TRUE(section_of(stripped, kTable).empty());
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
  const std::size_t pack_at = payload_of(good, kPacked);
  ASSERT_LT(pack_at, good.size());
  ASSERT_EQ(u32_at(good, pack_at), 8u);
  ASSERT_EQ(u64_at(good, pack_at + 4), k);
  ASSERT_EQ(u64_at(good, pack_at + 12), k * k * 4);
  const std::string bad_width = "artifact: packed section has an invalid word width";
  const std::string bad_size = "artifact: packed section size is not num_states² entries";
  const auto parse = [](const std::vector<std::uint8_t>& b) {
    return rejection([&] { sweep_artifact{b}; });
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
    EXPECT_TRUE(file_bytes(path) == bytes) << want.name << ": file != bytes";
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
    const sweep_artifact original(valid);
    ASSERT_LT(valid.size(), 16'384u) << fx.name << ": keep the fixtures small";
    std::size_t rejected = 0;
    std::size_t accepted = 0;
    std::size_t validated = 0;
    for (int i = 0; i < 2500; ++i) {
      const auto bytes = mutated(valid, i, gen);
      std::optional<sweep_artifact> parsed;
      try {
        parsed.emplace(bytes);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      }
      ++accepted;
      // A version-1 header parses as its version-2 equivalent (v2 only
      // added the optional EDGE section), so the writer answers with 2.
      auto expected = bytes;
      if (u32_at(expected, 8) == 1) expected[8] = static_cast<std::uint8_t>(kArtifactVersion);
      ASSERT_TRUE(artifact_bytes(*parsed) == expected) << fx.name << ", mutation " << i;

      const bool same_meta = parsed->family == original.family &&
                             parsed->protocol == original.protocol &&
                             parsed->pack_bits == original.pack_bits;
      // A consistent WMIX far past the fixture's population is a valid but
      // large sweep; its O(population) initial multiset adds nothing here.
      const bool small = !parsed->wellmixed || parsed->wellmixed->population <= 4096;
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
      EXPECT_TRUE(section_of(bytes, kTable) == section_of(valid, kTable) &&
                  section_of(bytes, kPacked) == section_of(valid, kPacked) &&
                  section_of(bytes, kEdge) == section_of(valid, kEdge))
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
