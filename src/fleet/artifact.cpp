#include "fleet/artifact.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>

namespace pp::fleet {

namespace {

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kTagMeta = fourcc('M', 'E', 'T', 'A');
constexpr std::uint32_t kTagGraph = fourcc('G', 'R', 'P', 'H');
constexpr std::uint32_t kTagTable = fourcc('T', 'A', 'B', 'L');
constexpr std::uint32_t kTagPacked = fourcc('P', 'A', 'C', 'K');
constexpr std::uint32_t kTagEdge = fourcc('E', 'D', 'G', 'E');
constexpr std::uint32_t kTagWellmixed = fourcc('W', 'M', 'I', 'X');

// Append-only native-endian byte sink.  All multi-byte fields go through
// these helpers, never through struct memcpy, so padding bytes can't leak
// indeterminate values into the (byte-compared) artifact.
class byte_writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void i8(std::int8_t v) { out_.push_back(static_cast<std::uint8_t>(v)); }
  void u32(std::uint32_t v) { pod(v); }
  void u64(std::uint64_t v) { pod(v); }
  void bytes(const std::uint8_t* data, std::size_t size) {
    out_.insert(out_.end(), data, data + size);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  template <typename T>
  void pod(T v) {
    std::uint8_t buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    bytes(buf, sizeof(T));
  }

  std::vector<std::uint8_t> out_;
};

// Bounds-checked reader over a parsed byte range; every short read fails
// loudly instead of reading past the buffer.
class byte_reader {
 public:
  byte_reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::int8_t i8() { return static_cast<std::int8_t>(take<std::uint8_t>()); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::string str() {
    const std::uint32_t len = u32();
    const std::uint8_t* p = raw(len);
    return std::string(reinterpret_cast<const char*>(p), len);
  }
  const std::uint8_t* raw(std::size_t size) {
    expects(size <= size_ - pos_, "artifact: truncated section payload");
    const std::uint8_t* p = data_ + pos_;
    pos_ += size;
    return p;
  }
  std::size_t remaining() const { return size_ - pos_; }

  // Guard for element counts read from the file *before* they size any
  // allocation: a count of `elem_size`-byte records can only be honest if
  // that many bytes are actually left, so a crafted header cannot trigger a
  // huge reserve() ahead of the bounds-checked reads.
  std::uint64_t count(std::uint64_t n, std::size_t elem_size) {
    expects(n <= remaining() / elem_size, "artifact: truncated section payload");
    return n;
  }

 private:
  template <typename T>
  T take() {
    T v;
    std::memcpy(&v, raw(sizeof(T)), sizeof(T));
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_section(byte_writer& out, std::uint32_t tag,
                   const std::vector<std::uint8_t>& payload) {
  out.u32(tag);
  out.u32(0);  // reserved
  out.u64(payload.size());
  out.bytes(payload.data(), payload.size());
}

std::vector<std::uint8_t> meta_payload(const sweep_artifact& a) {
  byte_writer w;
  w.str(a.family);
  w.u32(static_cast<std::uint32_t>(a.protocol.kind));
  w.u32(static_cast<std::uint32_t>(a.protocol.params.size()));
  for (const std::uint64_t p : a.protocol.params) w.u64(p);
  w.u32(a.pack_bits);
  return w.take();
}

void parse_meta(byte_reader& r, sweep_artifact& a) {
  a.family = r.str();
  a.protocol.kind = static_cast<protocol_kind>(r.u32());
  const auto count = static_cast<std::uint32_t>(r.count(r.u32(), 8));
  a.protocol.params.clear();
  a.protocol.params.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) a.protocol.params.push_back(r.u64());
  a.pack_bits = r.u32();
}

std::vector<std::uint8_t> graph_payload(const graph_section& g) {
  byte_writer w;
  w.u32(g.num_nodes);
  w.u64(g.edges.size());
  for (const auto& [u, v] : g.edges) {
    w.u32(u);
    w.u32(v);
  }
  w.u32(g.order);
  w.u64(g.old_of_new.size());
  for (const std::uint32_t v : g.old_of_new) w.u32(v);
  return w.take();
}

graph_section parse_graph(byte_reader& r) {
  graph_section g;
  g.num_nodes = r.u32();
  const std::uint64_t m = r.count(r.u64(), 8);  // two u32 endpoints per edge
  // Every protocol run needs a connected graph (graph.h), and a connected
  // graph has n <= m + 1: this bounds the per-node arrays rebuild_graph
  // allocates by the edge bytes actually present.
  expects(g.num_nodes >= 1 && g.num_nodes <= m + 1,
          "artifact: graph node count must be in [1, edges + 1]");
  g.edges.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    const std::uint32_t u = r.u32();
    const std::uint32_t v = r.u32();
    g.edges.emplace_back(u, v);
  }
  g.order = r.u32();
  const std::uint64_t perm = r.count(r.u64(), 4);
  expects(perm == 0 || perm == g.num_nodes,
          "artifact: reorder permutation must be empty or cover every node");
  g.old_of_new.reserve(perm);
  for (std::uint64_t v = 0; v < perm; ++v) g.old_of_new.push_back(r.u32());
  return g;
}

std::vector<std::uint8_t> table_payload(const table_section& t) {
  byte_writer w;
  const std::uint64_t k = t.codes.size();
  w.u64(k);
  w.u32(t.counters);
  for (const std::uint64_t code : t.codes) w.u64(code);
  for (const std::uint8_t role : t.roles) w.u8(role);
  for (const auto& c : t.contrib) {
    for (const std::int8_t d : c) w.i8(d);
  }
  for (const auto& e : t.entries) {
    w.u32(e.a2);
    w.u32(e.b2);
    for (const std::int8_t d : e.delta) w.i8(d);
  }
  return w.take();
}

table_section parse_table(byte_reader& r) {
  table_section t;
  // Per state: u64 code + u8 role + 4 contrib bytes, then k² 12-byte entries.
  const std::uint64_t k = r.count(r.u64(), 8 + 1 + kMaxCensusCounters);
  t.counters = r.u32();
  expects(t.counters >= 1 && t.counters <= static_cast<std::uint32_t>(kMaxCensusCounters),
          "artifact: table section has an invalid counter count");
  t.codes.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) t.codes.push_back(r.u64());
  t.roles.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) t.roles.push_back(r.u8());
  t.contrib.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    std::array<std::int8_t, kMaxCensusCounters> c{};
    for (auto& d : c) d = r.i8();
    t.contrib.push_back(c);
  }
  expects(k <= UINT32_MAX, "artifact: table section has too many states");
  r.count(k * k, 8 + kMaxCensusCounters);
  t.entries.reserve(k * k);
  for (std::uint64_t i = 0; i < k * k; ++i) {
    table_section::entry e;
    e.a2 = r.u32();
    e.b2 = r.u32();
    for (auto& d : e.delta) d = r.i8();
    t.entries.push_back(e);
  }
  return t;
}

std::vector<std::uint8_t> packed_payload(const packed_section& p) {
  byte_writer w;
  w.u32(p.width_bits);
  w.u64(p.num_states);
  w.u64(p.bytes.size());
  w.bytes(p.bytes.data(), p.bytes.size());
  return w.take();
}

packed_section parse_packed(byte_reader& r) {
  packed_section p;
  p.width_bits = r.u32();
  p.num_states = r.u64();
  const std::uint64_t size = r.u64();
  const std::uint8_t* data = r.raw(size);
  p.bytes.assign(data, data + size);
  return p;
}

std::vector<std::uint8_t> edge_payload(const edge_section& e) {
  byte_writer w;
  w.u32(e.num_classes);
  w.u64(e.classes.size());
  w.bytes(e.classes.data(), e.classes.size());
  return w.take();
}

edge_section parse_edge(byte_reader& r) {
  edge_section e;
  e.num_classes = r.u32();
  expects(e.num_classes >= 1 &&
              e.num_classes <= static_cast<std::uint32_t>(kMaxEdgeClasses),
          "artifact: edge section has an invalid class count");
  const std::uint64_t k = r.count(r.u64(), 1);
  const std::uint8_t* data = r.raw(k);
  e.classes.assign(data, data + k);
  for (const std::uint8_t c : e.classes) {
    expects(c < e.num_classes,
            "artifact: edge section names a class beyond its class count");
  }
  return e;
}

std::vector<std::uint8_t> wellmixed_payload(const wellmixed_section& s) {
  byte_writer w;
  w.u64(s.population);
  w.u64(s.classes.size());
  for (const auto& [code, count] : s.classes) {
    w.u64(code);
    w.u64(count);
  }
  return w.take();
}

wellmixed_section parse_wellmixed(byte_reader& r) {
  wellmixed_section s;
  s.population = r.u64();
  const std::uint64_t classes = r.count(r.u64(), 16);  // (code, count) pairs
  s.classes.reserve(classes);
  for (std::uint64_t i = 0; i < classes; ++i) {
    const std::uint64_t code = r.u64();
    const std::uint64_t count = r.u64();
    s.classes.emplace_back(code, count);
  }
  return s;
}

// A descriptor param (read from an artifact or a REQ_SWEEP frame) as the
// field it constructs: rejected, not truncated, when it does not fit.
template <typename Field>
Field param_as(std::uint64_t value, std::string_view what) {
  expects(value <= static_cast<std::uint64_t>(std::numeric_limits<Field>::max()), what);
  return static_cast<Field>(value);
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

protocol_desc fast_desc(const fast_params& params) {
  return {protocol_kind::fast,
          {static_cast<std::uint64_t>(params.h),
           static_cast<std::uint64_t>(params.level_threshold),
           static_cast<std::uint64_t>(params.max_level)}};
}

fast_params fast_params_of(const protocol_desc& desc) {
  expects(desc.kind == protocol_kind::fast && desc.params.size() == 3,
          "artifact: descriptor is not a fast-protocol descriptor");
  fast_params p;
  p.h = param_as<int>(desc.params[0], "artifact: fast-protocol h does not fit an int");
  p.level_threshold =
      param_as<int>(desc.params[1], "artifact: fast-protocol L does not fit an int");
  p.max_level =
      param_as<int>(desc.params[2], "artifact: fast-protocol α·L does not fit an int");
  return p;
}

protocol_desc six_desc(node_id n) {
  return {protocol_kind::six, {static_cast<std::uint64_t>(n)}};
}

node_id six_population_of(const protocol_desc& desc) {
  expects(desc.kind == protocol_kind::six && desc.params.size() == 1,
          "artifact: descriptor is not a six-state-protocol descriptor");
  return param_as<node_id>(desc.params[0],
                           "artifact: six-state population does not fit a node_id");
}

protocol_desc star_desc() { return {protocol_kind::star, {}}; }

void expect_star_desc(const protocol_desc& desc) {
  expects(desc.kind == protocol_kind::star && desc.params.empty(),
          "artifact: descriptor is not a star-protocol descriptor");
}

std::vector<std::uint8_t> artifact_bytes(const sweep_artifact& artifact) {
  // Sections in fixed order (META, then the present optionals) so equal
  // artifacts always serialize to equal bytes.
  byte_writer payload;
  std::uint32_t sections = 1;
  write_section(payload, kTagMeta, meta_payload(artifact));
  if (artifact.graph) {
    write_section(payload, kTagGraph, graph_payload(*artifact.graph));
    ++sections;
  }
  if (artifact.table) {
    write_section(payload, kTagTable, table_payload(*artifact.table));
    ++sections;
  }
  if (artifact.packed) {
    write_section(payload, kTagPacked, packed_payload(*artifact.packed));
    ++sections;
  }
  if (artifact.edge) {
    write_section(payload, kTagEdge, edge_payload(*artifact.edge));
    ++sections;
  }
  if (artifact.wellmixed) {
    write_section(payload, kTagWellmixed, wellmixed_payload(*artifact.wellmixed));
    ++sections;
  }
  const std::vector<std::uint8_t> body = payload.take();

  byte_writer out;
  out.u32(kArtifactMagic);
  out.u32(kArtifactEndianTag);
  out.u32(kArtifactVersion);
  out.u32(static_cast<std::uint32_t>(artifact.engine));
  out.u32(sections);
  out.u32(0);  // reserved
  out.u64(body.size());
  out.u64(fnv1a64(body.data(), body.size()));
  out.bytes(body.data(), body.size());
  return out.take();
}

sweep_artifact artifact_from_bytes(const std::vector<std::uint8_t>& bytes) {
  expects(bytes.size() >= 40, "artifact: file shorter than the header");
  byte_reader header(bytes.data(), bytes.size());
  expects(header.u32() == kArtifactMagic, "artifact: bad magic (not a PPAF file)");
  expects(header.u32() == kArtifactEndianTag,
          "artifact: foreign endianness (artifact was written on an "
          "incompatible host)");
  // Version 2 is a strict superset of version 1 (the EDGE section is
  // optional and nothing else changed), so v1 files stay loadable; anything
  // newer than this build is rejected.
  const std::uint32_t version = header.u32();
  expects(version == 1 || version == kArtifactVersion,
          "artifact: unsupported format version");
  sweep_artifact a;
  a.engine = static_cast<artifact_engine>(header.u32());
  expects(a.engine == artifact_engine::tuned || a.engine == artifact_engine::wellmixed,
          "artifact: unknown engine");
  const std::uint32_t sections = header.u32();
  expects(header.u32() == 0, "artifact: reserved header field must be zero");
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  expects(payload_size == header.remaining(),
          "artifact: payload length does not match the file size");
  const std::uint8_t* payload = header.raw(payload_size);
  expects(fnv1a64(payload, payload_size) == checksum,
          "artifact: checksum mismatch (file is corrupt)");

  byte_reader body(payload, payload_size);
  bool saw_meta = false;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t tag = body.u32();
    expects(body.u32() == 0, "artifact: reserved section field must be zero");
    const std::uint64_t length = body.u64();
    byte_reader section(body.raw(length), length);
    switch (tag) {
      case kTagMeta:
        parse_meta(section, a);
        saw_meta = true;
        break;
      case kTagGraph: a.graph = parse_graph(section); break;
      case kTagTable: a.table = parse_table(section); break;
      case kTagPacked: a.packed = parse_packed(section); break;
      case kTagEdge: a.edge = parse_edge(section); break;
      case kTagWellmixed: a.wellmixed = parse_wellmixed(section); break;
      default: expects(false, "artifact: unknown section tag");
    }
    expects(section.remaining() == 0, "artifact: trailing bytes in a section");
  }
  expects(saw_meta, "artifact: missing META section");
  expects(body.remaining() == 0, "artifact: trailing bytes after the sections");
  return a;
}

void save_artifact(const sweep_artifact& artifact, const std::string& path) {
  const std::vector<std::uint8_t> bytes = artifact_bytes(artifact);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  expects(f != nullptr, "save_artifact: cannot open " + path);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  expects(ok && closed, "save_artifact: short write to " + path);
}

sweep_artifact load_artifact(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  expects(f != nullptr, "load_artifact: cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  expects(ok, "load_artifact: read error on " + path);
  return artifact_from_bytes(bytes);
}

graph_section snapshot_graph(const graph& g, vertex_order order,
                             const std::vector<node_id>& old_of_new) {
  graph_section s;
  s.num_nodes = static_cast<std::uint32_t>(g.num_nodes());
  s.edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const edge& e : g.edges()) {
    s.edges.emplace_back(static_cast<std::uint32_t>(e.u),
                         static_cast<std::uint32_t>(e.v));
  }
  s.order = static_cast<std::uint32_t>(order);
  s.old_of_new.reserve(old_of_new.size());
  for (const node_id v : old_of_new) {
    s.old_of_new.push_back(static_cast<std::uint32_t>(v));
  }
  return s;
}

graph rebuild_graph(const graph_section& section) {
  std::vector<edge> edges;
  edges.reserve(section.edges.size());
  for (const auto& [u, v] : section.edges) {
    edges.push_back({static_cast<node_id>(u), static_cast<node_id>(v)});
  }
  return graph::from_edges(static_cast<node_id>(section.num_nodes), edges);
}

engine_tuning tuning_of(const sweep_artifact& artifact) {
  expects(artifact.engine == artifact_engine::tuned && artifact.graph.has_value(),
          "tuning_of: not a tuned-engine sweep artifact");
  engine_tuning tuning;
  tuning.order = static_cast<vertex_order>(artifact.graph->order);
  expects(tuning.order == vertex_order::natural ||
              tuning.order == vertex_order::bfs || tuning.order == vertex_order::rcm,
          "artifact: unknown vertex order");
  tuning.pack_bits = static_cast<int>(artifact.pack_bits);
  return tuning;
}

}  // namespace pp::fleet
