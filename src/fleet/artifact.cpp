#include "fleet/artifact.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "fleet/wire.h"

namespace pp::fleet {

std::uint64_t fnv1a64_from(std::uint64_t hash, const std::uint8_t* data,
                           std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

// The one chunk size: artifact_file reads a file in chunks of this many
// bytes, and the writer's stage is the same size.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kPrintBytes = 16;  // a table_print: {length u64, fnv u64}
// One closed-table entry on the wire: u32 a2, u32 b2, the delta bytes.
constexpr std::size_t kEntryBytes = 8 + kMaxCensusCounters;

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
// buffer — so the two outputs of the same sections are identical.
class payload_writer {
 public:
  // Emits to `fd` (a failed write throws, naming `what`), or appends to
  // `*out` when `out` is non-null.
  payload_writer(int fd, std::vector<std::uint8_t>* out, std::string_view what = {})
      : fd_(fd), out_(out), what_(what) {}

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

 private:
  void emit(const std::uint8_t* data, std::size_t size) {
    hash_ = fnv1a64_from(hash_, data, size);
    size_ += size;
    if (out_ != nullptr) {
      out_->insert(out_->end(), data, data + size);
    } else {
      write_all(fd_, data, size, what_);
    }
  }

  int fd_;
  std::vector<std::uint8_t>* out_;
  std::string_view what_;
  std::array<std::uint8_t, kChunkBytes> stage_{};
  std::size_t staged_ = 0;
  std::uint64_t hash_ = kFnvOffset;
  std::uint64_t size_ = 0;
};

// A section body run against this counts the bytes it would write: the
// length a section header declares, from the same code that writes it.
struct byte_counter {
  std::uint64_t size = 0;
  void u32(std::uint32_t) { size += 4; }
  void u64(std::uint64_t) { size += 8; }
  void bytes(const void*, std::size_t n) { size += n; }
};

// A section body run against this takes the table_print of what it would
// write, hashing the caller's memory in place and writing nothing.
struct print_writer {
  table_print print{0, kFnvOffset};
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void bytes(const void* data, std::size_t n) {
    print.length += n;
    print.fnv = fnv1a64_from(print.fnv, static_cast<const std::uint8_t*>(data), n);
  }
};

template <typename Body>
table_print print_of(Body&& body) {
  print_writer w;
  body(w);
  return w.print;
}

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

// Bounds-checked reader over a section's bytes; every short read fails
// loudly instead of reading past them.
class byte_reader {
 public:
  byte_reader(const std::uint8_t* data, std::uint64_t size) : data_(data), size_(size) {}

  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::string str() {
    const std::uint32_t len = u32();
    const std::uint8_t* p = raw(len);
    return std::string(reinterpret_cast<const char*>(p), len);
  }
  const std::uint8_t* raw(std::uint64_t size) {
    expects(size <= remaining(), "artifact: truncated section payload");
    const std::uint8_t* p = data_ + pos_;
    pos_ += size;
    return p;
  }
  std::uint64_t remaining() const { return size_ - pos_; }

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
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

template <typename Out>
void put_meta(Out& w, const artifact_meta& a) {
  put_str(w, a.family);
  w.u32(static_cast<std::uint32_t>(a.protocol.kind));
  w.u32(static_cast<std::uint32_t>(a.protocol.params.size()));
  put_array(w, a.protocol.params);
  w.u32(a.pack_bits);
}

void parse_meta(byte_reader& r, artifact_meta& a) {
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

// GRPH from the runner's graph in place: the bytes a parse of it re-writes.
template <typename Out>
void put_graph(Out& w, const graph_view& v) {
  ensure(v.g != nullptr, "artifact: a validation view has no graph to write");
  w.u32(static_cast<std::uint32_t>(v.g->num_nodes()));
  w.u64(v.g->edges().size());
  for (const edge& e : v.g->edges()) {
    w.u32(static_cast<std::uint32_t>(e.u));
    w.u32(static_cast<std::uint32_t>(e.v));
  }
  w.u32(static_cast<std::uint32_t>(v.order));
  w.u64(v.old_of_new.size());
  for (const node_id u : v.old_of_new) w.u32(static_cast<std::uint32_t>(u));
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

// What TABL's print covers, from the runner's closed table: the per-state
// arrays, then each row in place.
template <typename Out>
void put_table(Out& w, const runner_tables& t) {
  const std::size_t k = t.codes.size();
  w.u64(k);
  w.u32(t.counters);
  put_array(w, t.codes);
  put_array(w, t.roles);
  put_array(w, t.contrib);
  for (const std::uint8_t* row : t.rows) w.bytes(row, k * kEntryBytes);
}

template <typename Out>
void put_packed(Out& w, std::uint32_t width_bits, const runner_tables& t) {
  w.u32(width_bits);
  w.u64(t.codes.size());
  w.u64(t.packed.size());
  w.bytes(t.packed.data(), t.packed.size());
}

template <typename Out>
void put_edge(Out& w, const runner_tables& t) {
  w.u32(t.edge_classes);
  w.u64(t.classes.size());
  put_array(w, t.classes);
}

template <typename Out>
void put_print(Out& w, const table_print& p) {
  w.u64(p.length);
  w.u64(p.fnv);
}

table_print parse_print(byte_reader& r) {
  expects(r.remaining() == kPrintBytes, "artifact: a table print section is not 16 bytes");
  table_print p;
  p.length = r.u64();
  p.fnv = r.u64();
  return p;
}

// The prints of a runner's tables: TABL whenever they closed, PACK on the
// tuned engine, EDGE on edge-census protocols.
table_prints prints_of(const artifact_view& a) {
  table_prints p;
  if (!a.tables) return p;
  const runner_tables& t = *a.tables;
  p.table = print_of([&](auto& w) { put_table(w, t); });
  if (a.engine == artifact_engine::tuned) {
    p.packed = print_of([&](auto& w) { put_packed(w, a.pack_bits, t); });
  }
  if (t.edge_classes != 0) p.edge = print_of([&](auto& w) { put_edge(w, t); });
  return p;
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

// Calls fn(tag, body) for each present section in kSectionOrder, so a
// runner's view and a parsed artifact of it serialize to equal bytes.
// body(out) writes the section's payload to a payload_writer or a
// byte_counter.
template <typename Artifact, typename Fn>
void for_each_section(const Artifact& a, const table_prints& prints, Fn&& fn) {
  fn(kTagMeta, [&](auto& w) { put_meta(w, a); });
  if (a.graph) fn(kTagGraph, [&](auto& w) { put_graph(w, *a.graph); });
  if (prints.table) fn(kTagTable, [&](auto& w) { put_print(w, *prints.table); });
  if (prints.packed) fn(kTagPacked, [&](auto& w) { put_print(w, *prints.packed); });
  if (prints.edge) fn(kTagEdge, [&](auto& w) { put_print(w, *prints.edge); });
  if (a.wellmixed) fn(kTagWellmixed, [&](auto& w) { put_wellmixed(w, *a.wellmixed); });
}

// Writes the sections through `w` (flushed); returns their count.
template <typename Artifact>
std::uint32_t write_payload(const Artifact& a, const table_prints& prints,
                            payload_writer& w) {
  std::uint32_t sections = 0;
  for_each_section(a, prints, [&](std::uint32_t tag, const auto& body) {
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

template <typename Artifact>
std::vector<std::uint8_t> bytes_of(const Artifact& artifact, const table_prints& prints) {
  std::vector<std::uint8_t> out(kHeaderBytes);
  payload_writer w(-1, &out);
  const std::uint32_t sections = write_payload(artifact, prints, w);
  const auto header = header_bytes(artifact.engine, sections, w.size(), w.checksum());
  std::copy(header.begin(), header.end(), out.begin());
  return out;
}

// The header of a file of `file_size` bytes, whose first bytes are `head`,
// checked against that size; returns the section count and the checksum.
std::pair<std::uint32_t, std::uint64_t> parse_header(std::span<const std::uint8_t> head,
                                                     std::uint64_t file_size,
                                                     artifact_meta& a) {
  expects(head.size() >= kHeaderBytes, "artifact: file shorter than the header");
  byte_reader header(head.data(), kHeaderBytes);
  expects(header.u32() == kArtifactMagic, "artifact: bad magic (not a PPAF file)");
  expects(header.u32() == kArtifactEndianTag,
          "artifact: foreign endianness (artifact was written on an "
          "incompatible host)");
  const std::uint32_t version = header.u32();
  if (version != kArtifactVersion) {
    expects(false, "artifact: format version " + std::to_string(version) +
                       "; this build reads version " + std::to_string(kArtifactVersion) +
                       " — re-save the sweep");
  }
  a.engine = static_cast<artifact_engine>(header.u32());
  expects(a.engine == artifact_engine::tuned || a.engine == artifact_engine::wellmixed,
          "artifact: unknown engine");
  const std::uint32_t sections = header.u32();
  expects(header.u32() == 0, "artifact: reserved header field must be zero");
  expects(header.u64() == file_size - kHeaderBytes,
          "artifact: payload length does not match the file size");
  return {sections, header.u64()};
}

// The whole artifact: its header checked, its payload checksummed, then
// every section parsed.
void parse_artifact(std::span<const std::uint8_t> file, sweep_artifact& a) {
  const auto [sections, checksum] = parse_header(file, file.size(), a);
  const std::uint8_t* payload = file.data() + kHeaderBytes;
  const std::uint64_t payload_size = file.size() - kHeaderBytes;
  expects(fnv1a64(payload, payload_size) == checksum,
          "artifact: checksum mismatch (file is corrupt)");

  byte_reader records(payload, payload_size);
  bool saw_meta = false;
  // Sections must come in the writer's order, each at most once, so every
  // file this accepts is one the writer reproduces byte for byte.
  std::size_t next = 0;  // index into kSectionOrder of the next allowed tag
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t tag = records.u32();
    expects(records.u32() == 0, "artifact: reserved section field must be zero");
    const std::uint64_t length = records.u64();
    byte_reader section(records.raw(length), length);
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
      case kTagTable: a.prints.table = parse_print(section); break;
      case kTagPacked: a.prints.packed = parse_print(section); break;
      case kTagEdge: a.prints.edge = parse_print(section); break;
      default: a.wellmixed = parse_wellmixed(section); break;
    }
    expects(section.remaining() == 0, "artifact: trailing bytes in a section");
  }
  expects(saw_meta, "artifact: missing META section");
  expects(records.remaining() == 0, "artifact: trailing bytes after the sections");
}

// A descriptor param (read from an artifact or a REQ_SWEEP frame) as the
// field it constructs: rejected, not truncated, when it does not fit.
template <typename Field>
Field param_as(std::uint64_t value, std::string_view what) {
  expects(value <= static_cast<std::uint64_t>(std::numeric_limits<Field>::max()), what);
  return static_cast<Field>(value);
}

[[noreturn]] void read_error(const std::string& path) {
  detail::throw_invalid_argument("load_artifact: read error on " + path);
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

std::vector<std::uint8_t> artifact_bytes(const artifact_view& artifact) {
  return bytes_of(artifact, prints_of(artifact));
}

std::vector<std::uint8_t> artifact_bytes(const sweep_artifact& artifact) {
  return bytes_of(artifact, artifact.prints);
}

void save_artifact(const artifact_view& artifact, const std::string& path) {
  const table_prints prints = prints_of(artifact);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  expects(fd >= 0, "save_artifact: cannot open " + path);
  const std::string what = "save_artifact: short write to " + path;
  try {
    // A zero header holds the place until the checksum is known.
    std::array<std::uint8_t, kHeaderBytes> header{};
    write_all(fd, header.data(), header.size(), what);
    payload_writer w(fd, nullptr, what);
    const std::uint32_t sections = write_payload(artifact, prints, w);
    header = header_bytes(artifact.engine, sections, w.size(), w.checksum());
    ensure(::pwrite(fd, header.data(), header.size(), 0) ==
               static_cast<ssize_t>(header.size()),
           what);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ensure(::close(fd) == 0, what);
}

sweep_artifact::sweep_artifact(std::span<const std::uint8_t> bytes) {
  parse_artifact(bytes, *this);
}

sweep_artifact::sweep_artifact(const std::string& path) {
  const artifact_file file(path);
  std::vector<std::uint8_t> bytes;
  file.for_each_chunk([&](std::span<const std::uint8_t> chunk) {
    if (bytes.empty()) {
      // The header must fit the file before the file's size is allocated:
      // a file that is no artifact of this build costs one chunk.
      parse_header(chunk, file.size(), *this);
      bytes.reserve(file.size());
    }
    bytes.insert(bytes.end(), chunk.begin(), chunk.end());
  });
  parse_artifact(bytes, *this);
}

void sweep_artifact::check(const artifact_view& rebuilt) const {
  constexpr std::string_view table_skew =
      "artifact: this build's closed table diverges from the stored one "
      "(producer/worker version skew)";
  if (rebuilt.engine == artifact_engine::tuned) {
    expects(engine == artifact_engine::tuned && graph.has_value() && prints.table &&
                prints.packed,
            "artifact: not a tuned-engine sweep artifact");
    expects(rebuilt.tables.has_value(), "artifact: rebuilt runner fell back to a lazy table");
    expects(rebuilt.pack_bits == pack_bits,
            "artifact: rebuilt runner resolved a different config word width");
    const graph_view& g = *rebuilt.graph;
    expects(static_cast<std::uint32_t>(g.order) == graph->order,
            "artifact: rebuilt runner uses a different vertex order");
    expects(g.old_of_new.size() == graph->old_of_new.size(),
            "artifact: reorder permutation size diverges from this build");
    for (std::size_t v = 0; v < g.old_of_new.size(); ++v) {
      expects(static_cast<std::uint32_t>(g.old_of_new[v]) == graph->old_of_new[v],
              "artifact: reorder permutation diverges from this build");
    }
    const table_prints mine = prints_of(rebuilt);
    expects(mine.table == prints.table, table_skew);
    expects(mine.packed == prints.packed,
            "artifact: this build's packed table diverges from the stored one");
    if (mine.edge) {
      expects(prints.edge.has_value(),
              "artifact: edge-census protocol without an EDGE section");
      expects(mine.edge == prints.edge,
              "artifact: this build's edge classes diverge from the stored ones "
              "(producer/worker version skew)");
    } else {
      expects(!prints.edge, "artifact: EDGE section on a counter-shaped protocol");
    }
    return;
  }
  expects(engine == artifact_engine::wellmixed && wellmixed.has_value(),
          "artifact: not a well-mixed sweep artifact");
  // No well-mixed producer writes them, and nothing here would check their
  // prints (popsimd charges a cached sweep by the recorded lengths).
  expects(!prints.packed && !prints.edge,
          "artifact: PACK or EDGE section on a well-mixed artifact");
  expects(*rebuilt.wellmixed == *wellmixed,
          "artifact: this build's initial multiset diverges from the stored one");
  const bool shared = rebuilt.tables.has_value();
  expects(prints.table.has_value() == shared,
          shared ? "artifact: no stored table, but this build's closure closes "
                   "within the budget"
                 : "artifact: stored table is closed but this build's closure "
                   "exceeded the budget");
  if (shared) expects(prints_of(rebuilt).table == prints.table, table_skew);
}

sweep_artifact load_artifact(const std::string& path) { return sweep_artifact(path); }

artifact_file::artifact_file(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  expects(fd_ >= 0, "load_artifact: cannot open " + path);
  struct stat st {};
  if (::fstat(fd_, &st) != 0 || st.st_size < 0) {
    ::close(fd_);
    read_error(path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

artifact_file::~artifact_file() { ::close(fd_); }

void artifact_file::for_each_chunk(
    const std::function<void(std::span<const std::uint8_t>)>& fn) const {
  const auto chunk = std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes);
  for (std::uint64_t at = 0; at < size_;) {
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(size_ - at, kChunkBytes));
    for (std::size_t got = 0; got < want;) {
      const ssize_t n =
          ::pread(fd_, chunk.get() + got, want - got, static_cast<off_t>(at + got));
      if (n < 0 && errno == EINTR) continue;
      // A file that shrank under the read is as unreadable as a failed one.
      if (n <= 0) read_error(path_);
      got += static_cast<std::size_t>(n);
    }
    fn({chunk.get(), want});
    at += want;
  }
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
