#include "fleet/artifact.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <string_view>

namespace pp::fleet {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// FNV-1a 64 continued from `hash` over more bytes: the checksum of a payload
// streamed in pieces equals fnv1a64 of the whole.
std::uint64_t fnv1a64_from(std::uint64_t hash, const std::uint8_t* data,
                           std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

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
// The one section order, written by for_each_section and enforced on parse.
constexpr std::array<std::uint32_t, 6> kSectionOrder = {
    kTagMeta, kTagGraph, kTagTable, kTagPacked, kTagEdge, kTagWellmixed};

// The artifact's one writer.  Small fields are staged; bulk arrays bypass
// the stage.  Every payload byte is folded into the running FNV-1a and then
// emitted exactly once, in order — to a file descriptor, or appended to a
// presized buffer — so the two outputs of the same sections are identical.
class payload_writer {
 public:
  // Emits to `fd`, or appends to `*out` when `out` is non-null.
  payload_writer(int fd, std::vector<std::uint8_t>* out) : fd_(fd), out_(out) {}

  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    if (size > stage_.size() - staged_) flush();
    if (size <= stage_.size()) {
      if (size != 0) std::memcpy(stage_.data() + staged_, p, size);
      staged_ += size;
      return;
    }
    // A bulk array: hash and emit it straight from the caller's memory in
    // stage-sized chunks, each still in cache for its write.
    for (std::size_t at = 0; at < size; at += stage_.size()) {
      emit(p + at, std::min(stage_.size(), size - at));
    }
  }
  void flush() {
    emit(stage_.data(), staged_);
    staged_ = 0;
  }

  std::uint64_t checksum() const { return hash_; }
  std::uint64_t size() const { return size_; }
  bool ok() const { return ok_; }

 private:
  void emit(const std::uint8_t* data, std::size_t size) {
    hash_ = fnv1a64_from(hash_, data, size);
    size_ += size;
    if (out_ != nullptr) {
      out_->insert(out_->end(), data, data + size);
    } else {
      ok_ = ok_ && write_all(fd_, data, size);
    }
  }

  int fd_;
  std::vector<std::uint8_t>* out_;
  std::array<std::uint8_t, 1 << 16> stage_{};
  std::size_t staged_ = 0;
  std::uint64_t hash_ = kFnvOffset;
  std::uint64_t size_ = 0;
  bool ok_ = true;
};

// A section body run against this counts the bytes it would write: the
// length a section header declares, from the same code that writes it.
struct byte_counter {
  std::uint64_t size = 0;
  void u32(std::uint32_t) { size += 4; }
  void u64(std::uint64_t) { size += 8; }
  void bytes(const void*, std::size_t n) { size += n; }
};

// A vector's elements as one bulk write of their object representations.
template <typename Out, typename T>
void put_array(Out& w, const std::vector<T>& v) {
  static_assert(std::has_unique_object_representations_v<T>);
  w.bytes(v.data(), v.size() * sizeof(T));
}

template <typename Out>
void put_str(Out& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

// Bounds-checked reader over a parsed byte range; every short read fails
// loudly instead of reading past the buffer.
class byte_reader {
 public:
  byte_reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

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

  // The next n elements of a put_array write, in one bulk copy.
  template <typename T>
  void array(std::vector<T>& out, std::uint64_t n) {
    static_assert(std::has_unique_object_representations_v<T>);
    out.resize(count(n, sizeof(T)));
    const std::uint8_t* p = raw(n * sizeof(T));
    if (n != 0) std::memcpy(out.data(), p, n * sizeof(T));
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

template <typename Out>
void put_meta(Out& w, const sweep_artifact& a) {
  put_str(w, a.family);
  w.u32(static_cast<std::uint32_t>(a.protocol.kind));
  w.u32(static_cast<std::uint32_t>(a.protocol.params.size()));
  put_array(w, a.protocol.params);
  w.u32(a.pack_bits);
}

void parse_meta(byte_reader& r, sweep_artifact& a) {
  a.family = r.str();
  a.protocol.kind = static_cast<protocol_kind>(r.u32());
  r.array(a.protocol.params, r.u32());
  a.pack_bits = r.u32();
}

template <typename Out>
void put_graph(Out& w, const graph_section& g) {
  w.u32(g.num_nodes);
  w.u64(g.edges.size());
  for (const auto& [u, v] : g.edges) {
    w.u32(u);
    w.u32(v);
  }
  w.u32(g.order);
  w.u64(g.old_of_new.size());
  put_array(w, g.old_of_new);
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
  r.array(g.old_of_new, perm);
  return g;
}

template <typename Out>
void put_table(Out& w, const table_section& t) {
  w.u64(t.codes.size());
  w.u32(t.counters);
  put_array(w, t.codes);
  put_array(w, t.roles);
  put_array(w, t.contrib);
  put_array(w, t.entries);
}

table_section parse_table(byte_reader& r) {
  table_section t;
  // Per state: u64 code + u8 role + 4 contrib bytes, then k² 12-byte entries.
  const std::uint64_t k = r.count(r.u64(), 8 + 1 + kMaxCensusCounters);
  t.counters = r.u32();
  expects(t.counters >= 1 && t.counters <= static_cast<std::uint32_t>(kMaxCensusCounters),
          "artifact: table section has an invalid counter count");
  r.array(t.codes, k);
  r.array(t.roles, k);
  r.array(t.contrib, k);
  expects(k <= UINT32_MAX, "artifact: table section has too many states");
  r.array(t.entries, k * k);
  return t;
}

template <typename Out>
void put_packed(Out& w, const packed_section& p) {
  w.u32(p.width_bits);
  w.u64(p.num_states);
  w.u64(p.bytes.size());
  put_array(w, p.bytes);
}

packed_section parse_packed(byte_reader& r) {
  packed_section p;
  p.width_bits = r.u32();
  expects(p.width_bits == 8 || p.width_bits == 16 || p.width_bits == 32,
          "artifact: packed section has an invalid word width");
  p.num_states = r.u64();
  const std::uint64_t size = r.u64();
  // num_states² entries of 4, 8 or 12 bytes (packed_entry<W>), checked by
  // division so no product can overflow.
  const std::uint64_t entry = p.width_bits == 8 ? 4 : p.width_bits == 16 ? 8 : 12;
  const std::uint64_t cells = size / entry;
  expects(size % entry == 0 &&
              (p.num_states == 0 ? cells == 0
                                 : cells % p.num_states == 0 &&
                                       cells / p.num_states == p.num_states),
          "artifact: packed section size is not num_states² entries");
  r.array(p.bytes, size);
  return p;
}

template <typename Out>
void put_edge(Out& w, const edge_section& e) {
  w.u32(e.num_classes);
  w.u64(e.classes.size());
  put_array(w, e.classes);
}

edge_section parse_edge(byte_reader& r) {
  edge_section e;
  e.num_classes = r.u32();
  expects(e.num_classes >= 1 &&
              e.num_classes <= static_cast<std::uint32_t>(kMaxEdgeClasses),
          "artifact: edge section has an invalid class count");
  r.array(e.classes, r.u64());
  for (const std::uint8_t c : e.classes) {
    expects(c < e.num_classes,
            "artifact: edge section names a class beyond its class count");
  }
  return e;
}

template <typename Out>
void put_wellmixed(Out& w, const wellmixed_section& s) {
  w.u64(s.population);
  w.u64(s.classes.size());
  for (const auto& [code, count] : s.classes) {
    w.u64(code);
    w.u64(count);
  }
}

wellmixed_section parse_wellmixed(byte_reader& r) {
  wellmixed_section s;
  s.population = r.u64();
  const std::uint64_t classes = r.count(r.u64(), 16);  // (code, count) pairs
  s.classes.reserve(classes);
  // The multiplicities must add up to the population, checked without
  // overflow: a mismatch is a corrupt file, and rejecting it here spares a
  // worker the O(population) initial multiset it would otherwise build
  // before validation could notice.
  std::uint64_t mass = 0;
  for (std::uint64_t i = 0; i < classes; ++i) {
    const std::uint64_t code = r.u64();
    const std::uint64_t count = r.u64();
    expects(count <= s.population - mass,
            "artifact: well-mixed class counts exceed the population");
    mass += count;
    s.classes.emplace_back(code, count);
  }
  expects(mass == s.population,
          "artifact: well-mixed class counts do not sum to the population");
  return s;
}

// Calls fn(tag, body) for each present section in kSectionOrder (META, then
// the present optionals), so equal artifacts always serialize to equal
// bytes.  body(out) writes the section's payload to a payload_writer or a
// byte_counter.
template <typename Fn>
void for_each_section(const sweep_artifact& a, Fn&& fn) {
  fn(kTagMeta, [&](auto& w) { put_meta(w, a); });
  if (a.graph) fn(kTagGraph, [&](auto& w) { put_graph(w, *a.graph); });
  if (a.table) fn(kTagTable, [&](auto& w) { put_table(w, *a.table); });
  if (a.packed) fn(kTagPacked, [&](auto& w) { put_packed(w, *a.packed); });
  if (a.edge) fn(kTagEdge, [&](auto& w) { put_edge(w, *a.edge); });
  if (a.wellmixed) fn(kTagWellmixed, [&](auto& w) { put_wellmixed(w, *a.wellmixed); });
}

// Writes the sections through `w` (flushed); returns their count.
std::uint32_t write_payload(const sweep_artifact& a, payload_writer& w) {
  std::uint32_t sections = 0;
  for_each_section(a, [&](std::uint32_t tag, const auto& body) {
    byte_counter length;
    body(length);
    w.u32(tag);
    w.u32(0);  // reserved
    w.u64(length.size);
    body(w);
    ++sections;
  });
  w.flush();
  return sections;
}

constexpr std::size_t kHeaderBytes = 40;

std::array<std::uint8_t, kHeaderBytes> header_bytes(artifact_engine engine,
                                                    std::uint32_t sections,
                                                    std::uint64_t payload_size,
                                                    std::uint64_t checksum) {
  const std::uint32_t words[6] = {kArtifactMagic, kArtifactEndianTag, kArtifactVersion,
                                  static_cast<std::uint32_t>(engine), sections,
                                  0 /* reserved */};
  std::array<std::uint8_t, kHeaderBytes> h{};
  std::memcpy(h.data(), words, sizeof(words));
  std::memcpy(h.data() + 24, &payload_size, 8);
  std::memcpy(h.data() + 32, &checksum, 8);
  return h;
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
  return fnv1a64_from(kFnvOffset, data, size);
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
  std::uint64_t payload_size = 0;
  for_each_section(artifact, [&](std::uint32_t, const auto& body) {
    byte_counter length;
    body(length);
    payload_size += 16 + length.size;
  });
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload_size);
  out.resize(kHeaderBytes);
  payload_writer w(-1, &out);
  const std::uint32_t sections = write_payload(artifact, w);
  ensure(w.size() == payload_size && out.size() == kHeaderBytes + payload_size,
         "artifact_bytes: the payload's size diverges from its count");
  const auto header = header_bytes(artifact.engine, sections, w.size(), w.checksum());
  std::copy(header.begin(), header.end(), out.begin());
  return out;
}

sweep_artifact artifact_from_bytes(std::span<const std::uint8_t> bytes) {
  expects(bytes.size() >= kHeaderBytes, "artifact: file shorter than the header");
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
  // Sections must come in the writer's order, each at most once, so every
  // file this accepts is one the writer reproduces byte for byte.
  std::size_t next = 0;  // index into kSectionOrder of the next allowed tag
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t tag = body.u32();
    expects(body.u32() == 0, "artifact: reserved section field must be zero");
    const std::uint64_t length = body.u64();
    byte_reader section(body.raw(length), length);
    const auto* known = std::find(kSectionOrder.begin(), kSectionOrder.end(), tag);
    expects(known != kSectionOrder.end(), "artifact: unknown section tag");
    expects(known >= kSectionOrder.begin() + next,
            "artifact: sections out of order or repeated");
    next = static_cast<std::size_t>(known - kSectionOrder.begin()) + 1;
    switch (tag) {
      case kTagMeta:
        parse_meta(section, a);
        saw_meta = true;
        break;
      case kTagGraph: a.graph = parse_graph(section); break;
      case kTagTable: a.table = parse_table(section); break;
      case kTagPacked: a.packed = parse_packed(section); break;
      case kTagEdge: a.edge = parse_edge(section); break;
      default: a.wellmixed = parse_wellmixed(section); break;
    }
    expects(section.remaining() == 0, "artifact: trailing bytes in a section");
  }
  expects(saw_meta, "artifact: missing META section");
  expects(body.remaining() == 0, "artifact: trailing bytes after the sections");
  return a;
}

void save_artifact(const sweep_artifact& artifact, const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  expects(fd >= 0, "save_artifact: cannot open " + path);
  // A zero header holds the place until the checksum is known.
  std::array<std::uint8_t, kHeaderBytes> header{};
  bool ok = write_all(fd, header.data(), header.size());
  payload_writer w(fd, nullptr);
  const std::uint32_t sections = write_payload(artifact, w);
  header = header_bytes(artifact.engine, sections, w.size(), w.checksum());
  ok = ok && w.ok() &&
       ::pwrite(fd, header.data(), header.size(), 0) ==
           static_cast<ssize_t>(header.size());
  const bool closed = ::close(fd) == 0;
  expects(ok && closed, "save_artifact: short write to " + path);
}

std::vector<std::uint8_t> read_artifact_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  expects(fd >= 0, "load_artifact: cannot open " + path);
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 && st.st_size >= 0;
  std::vector<std::uint8_t> bytes(ok ? static_cast<std::size_t>(st.st_size) : 0);
  for (std::size_t got = 0; ok && got < bytes.size();) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    // A file that shrank under the read is as unreadable as a failed one.
    ok = n > 0;
    if (ok) got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  expects(ok, "load_artifact: read error on " + path);
  return bytes;
}

sweep_artifact load_artifact(const std::string& path) {
  return artifact_from_bytes(read_artifact_file(path));
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
