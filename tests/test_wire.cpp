// Shared checked framing (src/fleet/wire.h): every fleet byte stream — pipe
// records, .ppaj journal bodies, socket record streams and the net.h
// handshake — uses this one codec, so its properties are load-bearing for
// all of them: encode/decode round-trips, a torn tail never parses, a
// flipped bit never delivers a payload, and fixed-size streams resync past
// a corrupt frame deterministically.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fleet/wire.h"

namespace pp::fleet {
namespace {

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(salt + i * 37);
  }
  return p;
}

TEST(Wire, FramedSizeAddsExactlyTheOverhead) {
  EXPECT_EQ(wire::framed_size(0), 12u);
  EXPECT_EQ(wire::framed_size(29), 41u);  // the trial-record frame
  EXPECT_EQ(wire::kLengthBytes + wire::kChecksumBytes, 12u);
}

TEST(Wire, RoundTripsPayloadsOfManySizes) {
  for (const std::size_t n : {0ul, 1ul, 2ul, 29ul, 64ul, 1000ul, 65536ul}) {
    const auto payload = payload_of(n, static_cast<std::uint8_t>(n));
    const auto framed =
        wire::encode_frame(payload.data(), static_cast<std::uint32_t>(n));
    ASSERT_EQ(framed.size(), wire::framed_size(n));
    wire::frame_view view;
    const auto status = wire::decode_frame(
        framed.data(), framed.size(),
        {0, static_cast<std::uint32_t>(65536)}, view);
    ASSERT_EQ(status, wire::decode_status::ok) << n << " byte payload";
    ASSERT_EQ(view.payload_length, n);
    EXPECT_EQ(view.frame_bytes, framed.size());
    // memcmp needs non-null pointers even for 0 bytes, and an empty
    // payload's data() may be null; the length is already pinned above.
    if (n > 0) {
      EXPECT_EQ(std::memcmp(view.payload, payload.data(), n), 0);
    }
  }
}

TEST(Wire, EveryTornPrefixNeedsMore) {
  const auto payload = payload_of(29, 5);
  const auto framed = wire::encode_frame(payload.data(), 29);
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    wire::frame_view view;
    EXPECT_EQ(wire::decode_frame(framed.data(), cut, {29, 29}, view),
              wire::decode_status::need_more)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Wire, EverySingleBitFlipIsRejected) {
  const auto payload = payload_of(29, 11);
  const auto framed = wire::encode_frame(payload.data(), 29);
  // Flipping any bit of the payload or the checksum must yield
  // bad_checksum; flipping the length prefix must yield bad_length for a
  // fixed-size stream (the length no longer matches the only legal size).
  for (std::size_t byte = 0; byte < framed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = framed;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      wire::frame_view view;
      const auto status =
          wire::decode_frame(corrupt.data(), corrupt.size(), {29, 29}, view);
      if (byte < wire::kLengthBytes) {
        EXPECT_EQ(status, wire::decode_status::bad_length)
            << "length byte " << byte << " bit " << bit;
      } else {
        EXPECT_EQ(status, wire::decode_status::bad_checksum)
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(Wire, GarbagePrefixIsRejectedNotDelivered) {
  // 64 bytes of arbitrary garbage in front of a valid frame: a bounded
  // decoder must either report an illegal length immediately or fail the
  // checksum — never hand the garbage to the caller as a payload.
  const auto payload = payload_of(29, 23);
  const auto framed = wire::encode_frame(payload.data(), 29);
  std::vector<std::uint8_t> stream = payload_of(64, 77);
  stream.insert(stream.end(), framed.begin(), framed.end());
  wire::frame_view view;
  const auto status =
      wire::decode_frame(stream.data(), stream.size(), {29, 29}, view);
  EXPECT_TRUE(status == wire::decode_status::bad_length ||
              status == wire::decode_status::bad_checksum);
  // A fixed-size stream resyncs by skipping exactly one frame width; from
  // offset 64 the real frame decodes cleanly, which is how journal replay
  // counts corrupt records without losing the rest of the file.
  const std::size_t skip = wire::framed_size(29);
  ASSERT_GE(stream.size(), 64u + skip);
  EXPECT_EQ(wire::decode_frame(stream.data() + 64, stream.size() - 64,
                               {29, 29}, view),
            wire::decode_status::ok);
}

TEST(Wire, LengthOutsideTheLimitsIsBadLength) {
  const auto payload = payload_of(16, 3);
  const auto framed = wire::encode_frame(payload.data(), 16);
  wire::frame_view view;
  EXPECT_EQ(wire::decode_frame(framed.data(), framed.size(), {17, 64}, view),
            wire::decode_status::bad_length);
  EXPECT_EQ(wire::decode_frame(framed.data(), framed.size(), {0, 15}, view),
            wire::decode_status::bad_length);
  EXPECT_EQ(wire::decode_frame(framed.data(), framed.size(), {16, 16}, view),
            wire::decode_status::ok);
}

TEST(Wire, ChecksumCoversPayloadNotFraming) {
  // Two frames with equal payloads are byte-identical regardless of what
  // surrounded them on the stream — the checksum is a pure payload digest.
  const auto a = payload_of(29, 9);
  const auto f1 = wire::encode_frame(a.data(), 29);
  const auto f2 = wire::encode_frame(a.data(), 29);
  EXPECT_EQ(f1, f2);
}

}  // namespace
}  // namespace pp::fleet
