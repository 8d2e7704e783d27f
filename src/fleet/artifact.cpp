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

// The one read size of an open: pass 1's checksum pass and pass 2's
// comparison read a file in chunks of this many bytes.  The writer's stage
// is the same size.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kRecordBytes = 16;  // {tag u32, reserved u32, length u64}
// Bytes of TABL and PACK pass 1 keeps: their fixed fields (12 and 20 bytes).
constexpr std::size_t kHeadBytes = 32;
// One closed-table entry on the wire: u32 a2, u32 b2, the delta bytes.
constexpr std::size_t kEntryBytes = 8 + kMaxCensusCounters;

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
  std::array<std::uint8_t, kChunkBytes> stage_{};
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

// Where an artifact's bytes come from: a buffer in memory, read in place,
// or a file read with pread, kChunkBytes at a time, into one chunk buffer.
class byte_source {
 public:
  explicit byte_source(std::span<const std::uint8_t> bytes)
      : mem_(bytes.data()), size_(bytes.size()) {}
  explicit byte_source(const std::string& path)
      : path_(path), chunk_(std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes)) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    expects(fd_ >= 0, "load_artifact: cannot open " + path);
    struct stat st {};
    if (::fstat(fd_, &st) != 0 || st.st_size < 0) {
      ::close(fd_);
      expects(false, "load_artifact: read error on " + path);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  ~byte_source() {
    if (fd_ >= 0) ::close(fd_);
  }
  byte_source(const byte_source&) = delete;
  byte_source& operator=(const byte_source&) = delete;

  std::uint64_t size() const { return size_; }

  // The bytes from `offset` on, at most `max` of them and at least one: all
  // of them from memory, one chunk from a file (valid until the next read).
  std::span<const std::uint8_t> read(std::uint64_t offset, std::uint64_t max) const {
    if (mem_ != nullptr) return {mem_ + offset, static_cast<std::size_t>(max)};
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(max, kChunkBytes));
    for (std::size_t got = 0; got < want;) {
      const ssize_t n = ::pread(fd_, chunk_.get() + got, want - got,
                                static_cast<off_t>(offset + got));
      if (n < 0 && errno == EINTR) continue;
      // A file that shrank under the read is as unreadable as a failed one.
      expects(n > 0, "load_artifact: read error on " + path_);
      got += static_cast<std::size_t>(n);
    }
    return {chunk_.get(), want};
  }

  // Calls fn(chunk) over the `length` bytes from `offset` on, in order.
  template <typename Fn>
  void for_each_chunk(std::uint64_t offset, std::uint64_t length, Fn&& fn) const {
    for (const std::uint64_t end = offset + length; offset < end;) {
      const auto chunk = read(offset, end - offset);
      fn(chunk);
      offset += chunk.size();
    }
  }

 private:
  const std::uint8_t* mem_ = nullptr;
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
  std::unique_ptr<std::uint8_t[]> chunk_;
};

// A stored section's payload: `length` bytes at `offset` of `source`.
struct stored_section {
  const byte_source* source = nullptr;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  explicit operator bool() const { return source != nullptr; }
};

struct stored_tables {
  stored_section table, packed, edge;
};

// The one comparison routine.  A section writer run into this compares
// what it writes — the runner's own serialization — with the stored
// section's bytes, read from its source chunk by chunk in step.
class section_comparer {
 public:
  explicit section_comparer(const stored_section& s)
      : source_(s.source), at_(s.offset), end_(s.offset + s.length) {}

  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (size > 0 && same_) {
      if (chunk_.empty()) {
        if (at_ == end_) {  // the stored section is shorter
          same_ = false;
          return;
        }
        chunk_ = source_->read(at_, end_ - at_);
        at_ += chunk_.size();
      }
      const std::size_t n = std::min(size, chunk_.size());
      same_ = std::memcmp(p, chunk_.data(), n) == 0;
      chunk_ = chunk_.subspan(n);
      p += n;
      size -= n;
    }
  }
  // Every stored byte matched, and none is left over.
  bool same() const { return same_ && chunk_.empty() && at_ == end_; }

 private:
  const byte_source* source_;
  std::uint64_t at_;
  std::uint64_t end_;
  std::span<const std::uint8_t> chunk_;
  bool same_ = true;
};

template <typename Body>
void expect_same(const stored_section& stored, Body&& body, std::string_view message) {
  section_comparer compare(stored);
  body(compare);
  expects(compare.same(), message);
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
// loudly instead of reading past them.  A reader over the kept head of
// TABL or PACK reads the fixed fields and skips, bounds-checked, over the
// bulk arrays behind them: `size` is the section's length, of which the
// first `available` bytes are at `data`.
class byte_reader {
 public:
  byte_reader(const std::uint8_t* data, std::size_t available, std::uint64_t size)
      : data_(data), available_(available), size_(size) {}
  byte_reader(const std::uint8_t* data, std::size_t size) : byte_reader(data, size, size) {}

  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::string str() {
    const std::uint32_t len = u32();
    const std::uint8_t* p = raw(len);
    return std::string(reinterpret_cast<const char*>(p), len);
  }
  const std::uint8_t* raw(std::uint64_t size) {
    expects(size <= remaining(), "artifact: truncated section payload");
    ensure(pos_ + size <= available_, "artifact: read past the kept bytes");
    const std::uint8_t* p = data_ + pos_;
    pos_ += size;
    return p;
  }
  void skip(std::uint64_t size) {
    expects(size <= remaining(), "artifact: truncated section payload");
    pos_ += size;
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
  std::uint64_t available_;
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

// TABL from the runner's closed table: the per-state arrays, then each row
// in place.
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

// Checks that a stored TABL is laid out as put_table writes one.
void parse_table(byte_reader& r) {
  // Per state: u64 code + u8 role + 4 contrib bytes, then k² 12-byte entries.
  const std::uint64_t k = r.count(r.u64(), 8 + 1 + kMaxCensusCounters);
  const std::uint32_t counters = r.u32();
  expects(counters >= 1 && counters <= static_cast<std::uint32_t>(kMaxCensusCounters),
          "artifact: table section has an invalid counter count");
  r.skip(r.count(k, 8) * 8);
  r.skip(r.count(k, 1));
  r.skip(r.count(k, kMaxCensusCounters) * kMaxCensusCounters);
  expects(k <= UINT32_MAX, "artifact: table section has too many states");
  r.skip(r.count(k * k, kEntryBytes) * kEntryBytes);
}

template <typename Out>
void put_packed(Out& w, std::uint32_t width_bits, const runner_tables& t) {
  w.u32(width_bits);
  w.u64(t.codes.size());
  w.u64(t.packed.size());
  w.bytes(t.packed.data(), t.packed.size());
}

void parse_packed(byte_reader& r) {
  const std::uint32_t width_bits = r.u32();
  expects(width_bits == 8 || width_bits == 16 || width_bits == 32,
          "artifact: packed section has an invalid word width");
  const std::uint64_t num_states = r.u64();
  const std::uint64_t size = r.u64();
  // num_states² entries of 4, 8 or 12 bytes (packed_entry<W>), checked by
  // division so no product can overflow.
  const std::uint64_t entry = width_bits == 8 ? 4 : width_bits == 16 ? 8 : 12;
  const std::uint64_t cells = size / entry;
  expects(size % entry == 0 &&
              (num_states == 0 ? cells == 0
                               : cells % num_states == 0 && cells / num_states == num_states),
          "artifact: packed section size is not num_states² entries");
  r.skip(r.count(size, 1));
}

template <typename Out>
void put_edge(Out& w, const runner_tables& t) {
  w.u32(t.edge_classes);
  w.u64(t.classes.size());
  put_array(w, t.classes);
}

void parse_edge(byte_reader& r) {
  const std::uint32_t num_classes = r.u32();
  expects(num_classes >= 1 && num_classes <= static_cast<std::uint32_t>(kMaxEdgeClasses),
          "artifact: edge section has an invalid class count");
  const std::uint64_t k = r.count(r.u64(), 1);
  const std::uint8_t* classes = r.raw(k);
  for (std::uint64_t id = 0; id < k; ++id) {
    expects(classes[id] < num_classes,
            "artifact: edge section names a class beyond its class count");
  }
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
// runner's view and a loaded artifact of it serialize to equal bytes.
// body(out) writes the section's payload to a payload_writer, a
// byte_counter or a section_comparer.
template <typename Fn>
void for_each_section(const artifact_view& a, Fn&& fn) {
  fn(kTagMeta, [&](auto& w) { put_meta(w, a); });
  if (a.graph) fn(kTagGraph, [&](auto& w) { put_graph(w, *a.graph); });
  if (a.tables) {
    const runner_tables& t = *a.tables;
    fn(kTagTable, [&](auto& w) { put_table(w, t); });
    if (a.engine == artifact_engine::tuned) {
      fn(kTagPacked, [&](auto& w) { put_packed(w, a.pack_bits, t); });
    }
    if (t.edge_classes != 0) fn(kTagEdge, [&](auto& w) { put_edge(w, t); });
  }
  if (a.wellmixed) fn(kTagWellmixed, [&](auto& w) { put_wellmixed(w, *a.wellmixed); });
}

// A stored section's payload written out as it lies, chunk by chunk (a
// byte_counter just takes its length).
template <typename Out>
void put_stored(Out& w, const stored_section& s) {
  if constexpr (std::is_same_v<Out, byte_counter>) {
    w.size += s.length;
  } else {
    s.source->for_each_chunk(s.offset, s.length, [&](std::span<const std::uint8_t> chunk) {
      w.bytes(chunk.data(), chunk.size());
    });
  }
}

// A stored artifact as for_each_section walks it: the parsed outline, and
// where its TABL, PACK and EDGE lie.
struct stored_view {
  const artifact_outline& outline;
  const stored_tables& tables;
};

template <typename Fn>
void for_each_section(const stored_view& a, Fn&& fn) {
  const artifact_outline& o = a.outline;
  const stored_tables& t = a.tables;
  fn(kTagMeta, [&](auto& w) { put_meta(w, o); });
  if (o.graph) fn(kTagGraph, [&](auto& w) { put_graph(w, *o.graph); });
  if (t.table) fn(kTagTable, [&](auto& w) { put_stored(w, t.table); });
  if (t.packed) fn(kTagPacked, [&](auto& w) { put_stored(w, t.packed); });
  if (t.edge) fn(kTagEdge, [&](auto& w) { put_stored(w, t.edge); });
  if (o.wellmixed) fn(kTagWellmixed, [&](auto& w) { put_wellmixed(w, *o.wellmixed); });
}

// Writes the sections through `w` (flushed); returns their count.
template <typename Artifact>
std::uint32_t write_payload(const Artifact& a, payload_writer& w) {
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
std::vector<std::uint8_t> bytes_of(const Artifact& artifact, artifact_engine engine) {
  std::uint64_t payload_size = 0;
  for_each_section(artifact, [&](std::uint32_t, const auto& body) {
    byte_counter length;
    body(length);
    payload_size += kRecordBytes + length.size;
  });
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload_size);
  out.resize(kHeaderBytes);
  payload_writer w(-1, &out);
  const std::uint32_t sections = write_payload(artifact, w);
  ensure(w.size() == payload_size && out.size() == kHeaderBytes + payload_size,
         "artifact_bytes: the payload's size diverges from its count");
  const auto header = header_bytes(engine, sections, w.size(), w.checksum());
  std::copy(header.begin(), header.end(), out.begin());
  return out;
}

// One section record as pass 1 saw it stream past.
struct section_record {
  std::array<std::uint8_t, kRecordBytes> head{};
  std::size_t head_bytes = 0;  // < kRecordBytes: the payload ended inside it
  std::uint64_t offset = 0;    // where the section's payload starts
  std::uint64_t length = 0;    // its declared length
  std::uint64_t present = 0;   // payload bytes before the end of the file
  std::vector<std::uint8_t> kept;  // all of a small section, a head of TABL/PACK
};

// Follows the section records through pass 1's stream, interpreting
// nothing but their lengths, and keeps the bytes pass 2 parses.  The
// records are checked only once the checksum has passed.
class section_walker {
 public:
  section_walker(std::uint32_t sections, std::uint64_t at, std::uint64_t end)
      : wanted_(sections), at_(at), end_(end) {}

  void feed(const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      std::size_t take = 0;
      if (body_left_ > 0) {
        section_record& r = records_.back();
        take = static_cast<std::size_t>(std::min<std::uint64_t>(n, body_left_));
        const auto keep = static_cast<std::size_t>(std::min<std::uint64_t>(take, keep_left_));
        r.kept.insert(r.kept.end(), p, p + keep);
        keep_left_ -= keep;
        body_left_ -= take;
        r.present += take;
      } else if (header_open_ || records_.size() < kept_records()) {
        if (!header_open_) {
          records_.emplace_back();
          header_open_ = true;
        }
        section_record& r = records_.back();
        take = std::min(n, kRecordBytes - r.head_bytes);
        std::memcpy(r.head.data() + r.head_bytes, p, take);
        r.head_bytes += take;
        if (r.head_bytes == kRecordBytes) begin_body(r, at_ + take);
      } else {
        trailing_ += n;
        return;
      }
      p += take;
      n -= take;
      at_ += take;
    }
  }

  const std::vector<section_record>& records() const { return records_; }
  std::uint64_t trailing() const { return trailing_; }

 private:
  // A file with more records than there are tags fails the order check by
  // its seventh record, so a hostile section count cannot make the walker
  // hold a record per 16 bytes: bytes past that record count as trailing.
  std::uint64_t kept_records() const {
    return std::min<std::uint64_t>(wanted_, kSectionOrder.size() + 1);
  }

  void begin_body(section_record& r, std::uint64_t offset) {
    header_open_ = false;
    std::uint32_t tag = 0;
    std::memcpy(&tag, r.head.data(), sizeof(tag));
    std::memcpy(&r.length, r.head.data() + 8, sizeof(r.length));
    r.offset = offset;
    body_left_ = std::min(r.length, end_ - offset);
    const bool whole = tag == kTagMeta || tag == kTagGraph || tag == kTagEdge ||
                       tag == kTagWellmixed;
    keep_left_ = whole ? body_left_ : std::min<std::uint64_t>(body_left_, kHeadBytes);
    r.kept.reserve(static_cast<std::size_t>(keep_left_));
  }

  std::uint32_t wanted_;
  std::uint64_t at_;
  std::uint64_t end_;
  std::vector<section_record> records_;
  bool header_open_ = false;
  std::uint64_t body_left_ = 0;
  std::uint64_t keep_left_ = 0;
  std::uint64_t trailing_ = 0;
};

// Pass 2's checks of a rebuilt runner's view against the stored outline
// and sections, in the order validation has always run them.
void check_stored(const artifact_outline& a, const stored_tables& s,
                  const artifact_view& rebuilt) {
  if (rebuilt.engine == artifact_engine::tuned) {
    expects(a.engine == artifact_engine::tuned && a.graph.has_value() && s.table &&
                s.packed,
            "artifact: not a tuned-engine sweep artifact");
    expects(rebuilt.tables.has_value(), "artifact: rebuilt runner fell back to a lazy table");
    expects(rebuilt.pack_bits == a.pack_bits,
            "artifact: rebuilt runner resolved a different config word width");
    const graph_view& g = *rebuilt.graph;
    expects(static_cast<std::uint32_t>(g.order) == a.graph->order,
            "artifact: rebuilt runner uses a different vertex order");
    expects(g.old_of_new.size() == a.graph->old_of_new.size(),
            "artifact: reorder permutation size diverges from this build");
    for (std::size_t v = 0; v < g.old_of_new.size(); ++v) {
      expects(static_cast<std::uint32_t>(g.old_of_new[v]) == a.graph->old_of_new[v],
              "artifact: reorder permutation diverges from this build");
    }
    const runner_tables& t = *rebuilt.tables;
    expect_same(s.table, [&](auto& w) { put_table(w, t); },
                "artifact: this build's closed table diverges from the stored one "
                "(producer/worker version skew)");
    std::uint32_t width = 0;
    if (s.packed.length >= sizeof(width)) {
      std::memcpy(&width, s.packed.source->read(s.packed.offset, sizeof(width)).data(),
                  sizeof(width));
    }
    expects(width == 8 || width == 16 || width == 32,
            "artifact: packed section has an invalid word width");
    expect_same(s.packed, [&](auto& w) { put_packed(w, rebuilt.pack_bits, t); },
                "artifact: this build's packed table diverges from the stored one");
    if (t.edge_classes != 0) {
      expects(static_cast<bool>(s.edge),
              "artifact: edge-census protocol without an EDGE section");
      expect_same(s.edge, [&](auto& w) { put_edge(w, t); },
                  "artifact: this build's edge classes diverge from the stored ones "
                  "(producer/worker version skew)");
    } else {
      expects(!s.edge, "artifact: EDGE section on a counter-shaped protocol");
    }
    return;
  }
  expects(a.engine == artifact_engine::wellmixed && a.wellmixed.has_value(),
          "artifact: not a well-mixed sweep artifact");
  expects(*rebuilt.wellmixed == *a.wellmixed,
          "artifact: this build's initial multiset diverges from the stored one");
  const bool shared = rebuilt.tables.has_value();
  expects(static_cast<bool>(s.table) == shared,
          shared ? "artifact: no stored table, but this build's closure closes "
                   "within the budget"
                 : "artifact: stored table is closed but this build's closure "
                   "exceeded the budget");
  if (shared) {
    expect_same(s.table, [&](auto& w) { put_table(w, *rebuilt.tables); },
                "artifact: this build's closed table diverges from the stored one "
                "(producer/worker version skew)");
  }
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

std::vector<std::uint8_t> artifact_bytes(const artifact_view& artifact) {
  return bytes_of(artifact, artifact.engine);
}

void save_artifact(const artifact_view& artifact, const std::string& path) {
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

namespace {

// Pass 1, then the parse of what it kept.
void read_stored(const byte_source& source, artifact_outline& outline,
                 stored_tables& tables) {
  expects(source.size() >= kHeaderBytes, "artifact: file shorter than the header");
  std::array<std::uint8_t, kHeaderBytes> h{};
  const auto first = source.read(0, kHeaderBytes);
  std::copy(first.begin(), first.end(), h.begin());
  byte_reader header(h.data(), h.size());
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
  outline.engine = static_cast<artifact_engine>(header.u32());
  expects(outline.engine == artifact_engine::tuned ||
              outline.engine == artifact_engine::wellmixed,
          "artifact: unknown engine");
  const std::uint32_t sections = header.u32();
  expects(header.u32() == 0, "artifact: reserved header field must be zero");
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  expects(payload_size == source.size() - kHeaderBytes,
          "artifact: payload length does not match the file size");

  section_walker walker(sections, kHeaderBytes, source.size());
  std::uint64_t hash = kFnvOffset;
  source.for_each_chunk(kHeaderBytes, payload_size, [&](std::span<const std::uint8_t> chunk) {
    hash = fnv1a64_from(hash, chunk.data(), chunk.size());
    walker.feed(chunk.data(), chunk.size());
  });
  expects(hash == checksum, "artifact: checksum mismatch (file is corrupt)");

  bool saw_meta = false;
  // Sections must come in the writer's order, each at most once, so every
  // file this accepts is one the writer reproduces byte for byte.
  std::size_t next = 0;  // index into kSectionOrder of the next allowed tag
  const auto& records = walker.records();
  for (std::uint32_t s = 0; s < sections; ++s) {
    expects(s < records.size(), "artifact: truncated section payload");
    const section_record& r = records[s];
    byte_reader head(r.head.data(), r.head_bytes);
    const std::uint32_t tag = head.u32();
    expects(head.u32() == 0, "artifact: reserved section field must be zero");
    const std::uint64_t length = head.u64();
    expects(r.present == length, "artifact: truncated section payload");
    const auto* known = std::find(kSectionOrder.begin(), kSectionOrder.end(), tag);
    expects(known != kSectionOrder.end(), "artifact: unknown section tag");
    expects(known >= kSectionOrder.begin() + next,
            "artifact: sections out of order or repeated");
    next = static_cast<std::size_t>(known - kSectionOrder.begin()) + 1;
    byte_reader section(r.kept.data(), r.kept.size(), length);
    const stored_section where{&source, r.offset, length};
    switch (tag) {
      case kTagMeta:
        parse_meta(section, outline);
        saw_meta = true;
        break;
      case kTagGraph: outline.graph = parse_graph(section); break;
      case kTagTable:
        parse_table(section);
        tables.table = where;
        break;
      case kTagPacked:
        parse_packed(section);
        tables.packed = where;
        break;
      case kTagEdge:
        parse_edge(section);
        tables.edge = where;
        break;
      default: outline.wellmixed = parse_wellmixed(section); break;
    }
    expects(section.remaining() == 0, "artifact: trailing bytes in a section");
  }
  expects(saw_meta, "artifact: missing META section");
  expects(walker.trailing() == 0, "artifact: trailing bytes after the sections");
}

}  // namespace

struct sweep_artifact::stored {
  explicit stored(const std::string& path) : source(path) {}
  explicit stored(std::span<const std::uint8_t> bytes) : source(bytes) {}

  byte_source source;
  stored_tables tables;
};

sweep_artifact::sweep_artifact(const std::string& path)
    : stored_(std::make_unique<stored>(path)) {
  read_stored(stored_->source, *this, stored_->tables);
}

sweep_artifact::sweep_artifact(std::span<const std::uint8_t> bytes)
    : stored_(std::make_unique<stored>(bytes)) {
  read_stored(stored_->source, *this, stored_->tables);
}

sweep_artifact::sweep_artifact(sweep_artifact&&) noexcept = default;
sweep_artifact& sweep_artifact::operator=(sweep_artifact&&) noexcept = default;
sweep_artifact::~sweep_artifact() = default;

void sweep_artifact::check(const artifact_view& rebuilt) const {
  check_stored(*this, stored_->tables, rebuilt);
}

std::vector<std::uint8_t> artifact_bytes(const sweep_artifact& artifact) {
  return bytes_of(stored_view{artifact, artifact.stored_->tables}, artifact.engine);
}

sweep_artifact load_artifact(const std::string& path) { return sweep_artifact(path); }

struct artifact_file::source {
  explicit source(const std::string& path) : bytes(path) {}

  byte_source bytes;
};

artifact_file::artifact_file(const std::string& path)
    : source_(std::make_unique<source>(path)) {}

artifact_file::~artifact_file() = default;

std::uint64_t artifact_file::size() const { return source_->bytes.size(); }

void artifact_file::for_each_chunk(
    const std::function<void(std::span<const std::uint8_t>)>& fn) const {
  source_->bytes.for_each_chunk(0, size(), fn);
}

graph rebuild_graph(const graph_section& section) {
  std::vector<edge> edges;
  edges.reserve(section.edges.size());
  for (const auto& [u, v] : section.edges) {
    edges.push_back({static_cast<node_id>(u), static_cast<node_id>(v)});
  }
  return graph::from_edges(static_cast<node_id>(section.num_nodes), edges);
}

engine_tuning tuning_of(const artifact_outline& artifact) {
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
