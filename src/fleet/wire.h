// Shared frame codec for every fleet byte stream: worker pipes, the on-disk
// journal, and the socket transport all carry the same checked frame
//
//   u32 payload_length | payload bytes | u64 fnv1a64(payload)
//
// (native-endian: pipes and sockets connect processes built from the same
// tree on same-endian hosts, and the journal header carries an endian tag).
// The length prefix frames the stream, the trailing FNV-1a checksum makes
// torn writes, bit rot and in-flight corruption detectable at every reader
// instead of only in the journal.
//
// Every consumer decodes with decode_frame, and the blocking producers
// write with write_all:
//   * decode_frame — incremental, for buffered readers (the supervisor's
//     per-slot buffers, popsimd's handshake buffers): given whatever bytes
//     have arrived so far it either yields a validated frame, asks for more,
//     or names the corruption (bad_length / bad_checksum).  Fixed-size
//     streams (limits.min == limits.max) can resync past a bad_checksum
//     frame by skipping framed_size(limits.min) bytes — the journal replay
//     does exactly that; variable-size streams must treat any bad status as
//     loss of framing.
//   * write_all — blocking fd output for the simple producers (workers
//     streaming records, the journal, the artifact writer); the socket
//     transport writes against a deadline instead (net.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace pp::fleet {

// FNV-1a 64-bit over raw bytes (defined in artifact.cpp; also the artifact
// container's integrity hash, so one hash covers every durability surface).
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);
// FNV-1a 64 continued from `hash` over more bytes: the checksum of bytes
// streamed in pieces, starting from kFnvOffset, equals fnv1a64 of the whole.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
std::uint64_t fnv1a64_from(std::uint64_t hash, const std::uint8_t* data,
                           std::size_t size);

// Writes all `size` bytes to `fd` (defined in sweep.cpp), retrying short
// writes, EINTR and EAGAIN.  Any other failure throws std::logic_error with
// "<what>: <strerror>" (notably EPIPE once a pipe's reader died and SIGPIPE
// is ignored).
void write_all(int fd, const void* data, std::size_t size, std::string_view what);

namespace wire {

inline constexpr std::size_t kLengthBytes = 4;
inline constexpr std::size_t kChecksumBytes = 8;

// Total on-wire size of a frame carrying `payload_length` payload bytes.
constexpr std::size_t framed_size(std::size_t payload_length) {
  return kLengthBytes + payload_length + kChecksumBytes;
}

// Payload lengths a decoder accepts; anything outside is bad_length (framing
// can no longer be trusted, or a foreign/version-skewed producer).
struct frame_limits {
  std::uint32_t min_payload = 0;
  std::uint32_t max_payload = 0;
};

enum class decode_status : std::uint8_t {
  ok,            // a validated frame is available
  need_more,     // prefix of a frame; read more bytes and retry
  bad_length,    // length prefix outside the caller's limits
  bad_checksum,  // framing intact but the payload bytes are corrupt
};

// One decoded frame: `payload` points into the caller's buffer and is valid
// only until that buffer changes; `frame_bytes` is how much input it spans.
struct frame_view {
  const std::uint8_t* payload = nullptr;
  std::uint32_t payload_length = 0;
  std::size_t frame_bytes = 0;
};

// Encodes payload into `out`, which must hold framed_size(length) bytes.
inline void encode_frame(const std::uint8_t* payload, std::uint32_t length,
                         std::uint8_t* out) {
  std::memcpy(out, &length, kLengthBytes);
  if (length > 0) std::memcpy(out + kLengthBytes, payload, length);
  const std::uint64_t checksum = fnv1a64(payload, length);
  std::memcpy(out + kLengthBytes + length, &checksum, kChecksumBytes);
}

inline std::vector<std::uint8_t> encode_frame(const std::uint8_t* payload,
                                              std::uint32_t length) {
  std::vector<std::uint8_t> out(framed_size(length));
  encode_frame(payload, length, out.data());
  return out;
}

// Incremental decode of the frame starting at `data`.  On ok fills `out`;
// on need_more the caller should append more input and retry; bad_length /
// bad_checksum leave `out` untouched (for fixed-size streams the caller can
// still skip framed_size(limits.min_payload) bytes to resync past a
// bad_checksum frame, because the length prefix was already validated).
inline decode_status decode_frame(const std::uint8_t* data, std::size_t available,
                                  const frame_limits& limits, frame_view& out) {
  if (available < kLengthBytes) return decode_status::need_more;
  std::uint32_t length = 0;
  std::memcpy(&length, data, kLengthBytes);
  if (length < limits.min_payload || length > limits.max_payload) {
    return decode_status::bad_length;
  }
  if (available < framed_size(length)) return decode_status::need_more;
  std::uint64_t stored = 0;
  std::memcpy(&stored, data + kLengthBytes + length, kChecksumBytes);
  if (fnv1a64(data + kLengthBytes, length) != stored) {
    return decode_status::bad_checksum;
  }
  out.payload = data + kLengthBytes;
  out.payload_length = length;
  out.frame_bytes = framed_size(length);
  return decode_status::ok;
}

}  // namespace wire
}  // namespace pp::fleet
