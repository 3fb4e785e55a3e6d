// Wire-protocol unit tests (DESIGN.md §14): primitive round trips are
// bit-exact, frame headers reject every malformation class, and query
// decoding validates raw parameters BEFORE any geometry object exists —
// the constructors abort on bad input, so the decoder must never reach
// them with it.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "sel/sel.h"

namespace sel {
namespace {

TEST(WirePrimitives, RoundTripBitExact) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU16(&buf, 0xBEEF);
  PutU32(&buf, 0xDEADBEEFu);
  PutU64(&buf, 0x0123456789ABCDEFull);
  const double values[] = {0.0, -0.0, 1.5, -2.25e-300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) PutF64(&buf, v);

  WireReader r(buf);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  for (double v : values) {
    double got;
    ASSERT_TRUE(r.ReadF64(&got).ok());
    // Bit identity, not ==: -0.0 and NaN must survive the wire.
    EXPECT_EQ(std::memcmp(&got, &v, sizeof(double)), 0);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(WirePrimitives, ReaderRejectsReadPastEnd) {
  std::string buf;
  PutU16(&buf, 7);
  WireReader r(buf);
  uint32_t v;
  const Status st = r.ReadU32(&v);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // A failed read does not advance: the u16 is still there.
  uint16_t u16;
  EXPECT_TRUE(r.ReadU16(&u16).ok());
  EXPECT_EQ(u16, 7);
}

TEST(FrameHeader, RoundTrip) {
  Frame frame;
  frame.type = FrameType::kEstimateBatch;
  frame.status = WireStatus::kOk;
  frame.payload = "hello";
  const std::string wire = EncodeFrame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 5);
  Frame decoded;
  uint32_t payload_len = 0;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(wire.data()), &decoded,
                  &payload_len)
                  .ok());
  EXPECT_EQ(decoded.type, FrameType::kEstimateBatch);
  EXPECT_EQ(decoded.status, WireStatus::kOk);
  EXPECT_EQ(payload_len, 5u);
}

TEST(FrameHeader, RejectsEveryMalformationClass) {
  Frame frame;
  frame.type = FrameType::kPing;
  const std::string good = EncodeFrame(frame);
  Frame out;
  uint32_t len;

  auto corrupt = [&](size_t offset, uint8_t value) {
    std::string bad = good;
    bad[offset] = static_cast<char>(value);
    return DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bad.data()),
                             &out, &len);
  };
  EXPECT_FALSE(corrupt(0, 0xFF).ok());  // magic
  EXPECT_FALSE(corrupt(4, 99).ok());    // version
  EXPECT_FALSE(corrupt(5, 0).ok());     // type 0 undefined
  EXPECT_FALSE(corrupt(5, 99).ok());    // type out of range
  // Oversized payload length.
  std::string bad = good;
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&bad[8], &huge, sizeof(huge));
  EXPECT_FALSE(DecodeFrameHeader(
                   reinterpret_cast<const uint8_t*>(bad.data()), &out, &len)
                   .ok());
}

TEST(QueryCodec, BoxHalfspaceBallRoundTrip) {
  const Query queries[] = {
      Query(Box({0.1, 0.2}, {0.8, 0.9})),
      Query(Halfspace({0.5, -1.25}, 0.75)),
      Query(Ball({0.5, 0.5}, 0.25)),
  };
  for (const Query& q : queries) {
    std::string buf;
    ASSERT_TRUE(EncodeQuery(q, &buf).ok());
    WireReader r(buf);
    Result<Query> decoded = DecodeQuery(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded.value().type(), q.type());
    EXPECT_EQ(decoded.value().dim(), q.dim());
  }
}

TEST(QueryCodec, SemiAlgebraicIsUnimplemented) {
  const Polynomial x = Polynomial::Variable(2, 0);
  const Query q(SemiAlgebraicSet::Atom(x));
  std::string buf;
  EXPECT_EQ(EncodeQuery(q, &buf).code(), StatusCode::kUnimplemented);
}

// The decoder must reject raw parameters the geometry constructors
// would abort on — reaching a constructor with them is the bug.
TEST(QueryCodec, RejectsConstructorHostileParams) {
  auto decode = [](const std::string& buf) {
    WireReader r(buf);
    return DecodeQuery(&r).status().code();
  };
  std::string buf;

  // Inverted box interval.
  buf.clear();
  PutU8(&buf, 1);
  PutU16(&buf, 1);
  PutF64(&buf, 0.9);  // lo > hi
  PutF64(&buf, 0.1);
  EXPECT_EQ(decode(buf), StatusCode::kInvalidArgument);

  // Non-finite box bound.
  buf.clear();
  PutU8(&buf, 1);
  PutU16(&buf, 1);
  PutF64(&buf, std::nan(""));
  PutF64(&buf, 0.5);
  EXPECT_EQ(decode(buf), StatusCode::kInvalidArgument);

  // Zero-normal halfspace.
  buf.clear();
  PutU8(&buf, 2);
  PutU16(&buf, 2);
  PutF64(&buf, 0.0);
  PutF64(&buf, 0.0);
  PutF64(&buf, 0.3);
  EXPECT_EQ(decode(buf), StatusCode::kInvalidArgument);

  // Negative ball radius.
  buf.clear();
  PutU8(&buf, 3);
  PutU16(&buf, 1);
  PutF64(&buf, 0.5);
  PutF64(&buf, -0.25);
  EXPECT_EQ(decode(buf), StatusCode::kInvalidArgument);

  // Unknown tag.
  buf.clear();
  PutU8(&buf, 9);
  PutU16(&buf, 1);
  EXPECT_EQ(decode(buf), StatusCode::kInvalidArgument);

  // Absurd dimension (allocation bomb guard).
  buf.clear();
  PutU8(&buf, 1);
  PutU16(&buf, 5000);
  EXPECT_EQ(decode(buf), StatusCode::kInvalidArgument);

  // Truncated parameters.
  buf.clear();
  PutU8(&buf, 1);
  PutU16(&buf, 2);
  PutF64(&buf, 0.1);  // 3 of 4 doubles missing
  EXPECT_EQ(decode(buf), StatusCode::kInvalidArgument);
}

TEST(WireStatusMapping, RoundTripsThroughStatusCodes) {
  EXPECT_EQ(WireStatusFromCode(StatusCode::kOk), WireStatus::kOk);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kInvalidArgument),
            WireStatus::kInvalidArgument);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kUnimplemented),
            WireStatus::kUnimplemented);
  EXPECT_EQ(StatusCodeFromWire(WireStatus::kResourceExhausted),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusCodeFromWire(WireStatus::kDeadlineExceeded),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusCodeFromWire(WireStatus::kInvalidArgument),
            StatusCode::kInvalidArgument);
  // Every wire status has a printable name.
  for (uint8_t s = 0; s <= 6; ++s) {
    EXPECT_NE(std::string(WireStatusName(static_cast<WireStatus>(s))),
              "");
  }
}

// A peer that hung up before its response is written must cost that
// write an IOError, not raise SIGPIPE (whose default action would kill
// the whole serving process).
TEST(SocketIo, WriteToClosedPeerIsIOErrorNotSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const char byte = 'x';
  const Status st = WriteFull(fds[0], &byte, 1);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  ::close(fds[0]);
}

}  // namespace
}  // namespace sel
