// Wire-protocol unit tests (DESIGN.md §14): primitive round trips are
// bit-exact, frame headers reject every malformation class, query
// decoding validates raw parameters BEFORE any geometry object exists —
// the constructors abort on bad input, so the decoder must never reach
// them with it — the batch format is pinned byte for byte, and seeded
// mutations of batch payloads end in a Status, never an abort.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
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

TEST(WirePrimitives, BulkF64sRoundTripAndBoundsCheck) {
  const double values[] = {-0.0, std::numeric_limits<double>::denorm_min(),
                           1.0, -3.5};
  std::string buf;
  PutF64s(&buf, values, 4);
  ASSERT_EQ(buf.size(), 4 * sizeof(double));
  std::string one_by_one;
  for (double v : values) PutF64(&one_by_one, v);
  EXPECT_EQ(buf, one_by_one);

  WireReader r(buf);
  double got[5];
  EXPECT_EQ(r.ReadF64s(got, 5).code(), StatusCode::kInvalidArgument);
  // The failed read did not advance.
  ASSERT_TRUE(r.ReadF64s(got, 4).ok());
  EXPECT_EQ(std::memcmp(got, values, sizeof(values)), 0);
  EXPECT_TRUE(r.AtEnd());
  // A count whose byte size wraps to 8 is a truncation, not an 8-byte
  // read.
  WireReader r2(buf);
  EXPECT_FALSE(r2.ReadF64s(got, (size_t{1} << 61) + 1).ok());
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

/// Bit identity of two coordinate arrays (== would equate -0.0 and 0.0).
void ExpectSameBits(const Point& got, const Point& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)),
            0);
}

void ExpectSameBits(double got, double want) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0);
}

// Every decoded parameter must carry the encoded bits in the encoded
// slot: a codec that swapped lo/hi, reversed an array or dropped a sign
// fails here. -0.0 and subnormals ride along in each array.
TEST(QueryCodec, BoxHalfspaceBallRoundTrip) {
  const double kSub = std::numeric_limits<double>::denorm_min();
  for (const int dim : {1, 2, 4, 7, 12}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    Point lo(dim), hi(dim), normal(dim), center(dim);
    for (int i = 0; i < dim; ++i) {
      lo[i] = i == 0 ? -0.0 : 0.01 * i;
      hi[i] = i == 0 ? kSub : 0.5 + 0.03 * i;
      normal[i] = i % 3 == 0 ? 1.0 + i : (i % 3 == 1 ? -0.0 : -kSub * i);
      center[i] = i % 2 == 0 ? -0.0 : 3 * kSub + 0.1 * i;
    }
    const Query queries[] = {
        Query(Box(lo, hi)),
        Query(Halfspace(normal, -0.0)),
        Query(Ball(center, kSub)),
    };
    for (const Query& q : queries) {
      std::string buf;
      ASSERT_TRUE(EncodeQuery(q, &buf).ok());
      WireReader r(buf);
      Result<Query> decoded = DecodeQuery(&r);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_TRUE(r.AtEnd());
      const Query& d = decoded.value();
      ASSERT_EQ(d.type(), q.type());
      EXPECT_EQ(d.dim(), q.dim());
      switch (q.type()) {
        case QueryType::kBox:
          ExpectSameBits(d.box().lo(), lo);
          ExpectSameBits(d.box().hi(), hi);
          break;
        case QueryType::kHalfspace:
          ExpectSameBits(d.halfspace().normal(), normal);
          ExpectSameBits(d.halfspace().offset(), -0.0);
          break;
        case QueryType::kBall:
          ExpectSameBits(d.ball().center(), center);
          ExpectSameBits(d.ball().radius(), kSub);
          break;
        case QueryType::kSemiAlgebraic:
          FAIL() << "not wire-encodable";
      }
    }
  }
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// The exact bytes of one EstimateBatch frame, written by hand from the
// layout in proto.h: any change to the wire format fails here.
TEST(QueryCodec, GoldenBatchFrameBytes) {
  const std::vector<Query> queries = {
      Query(Box({0.25, 0.5}, {0.75, 1.0})),
      Query(Ball({0.5, 0.25}, 0.125)),
  };
  Frame frame;
  frame.type = FrameType::kEstimateBatch;
  ASSERT_TRUE(EncodeQueryBatch(queries, &frame.payload).ok());
  const std::string golden =
      // header: magic "SEL1", version 1, type 5, status 0, reserved 0,
      // payload length 66
      "53454c31" "01" "05" "00" "00" "42000000"
      // count 2
      "02000000"
      // box: tag 1, dim 2, lo {0.25, 0.5}, hi {0.75, 1.0}
      "01" "0200"
      "000000000000d03f" "000000000000e03f"
      "000000000000e83f" "000000000000f03f"
      // ball: tag 3, dim 2, centre {0.5, 0.25}, radius 0.125
      "03" "0200"
      "000000000000e03f" "000000000000d03f"
      "000000000000c03f";
  EXPECT_EQ(Hex(EncodeFrame(frame)), golden);

  std::vector<Query> decoded;
  ASSERT_TRUE(DecodeQueryBatch(frame.payload, 2, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  ExpectSameBits(decoded[0].box().hi(), Point{0.75, 1.0});
  ExpectSameBits(decoded[1].ball().radius(), 0.125);
}

TEST(QueryBatchCodec, EncodeRejectsBadSizesAndKeepsOutput) {
  std::string out = "prefix";
  EXPECT_EQ(EncodeQueryBatch({}, &out).code(), StatusCode::kInvalidArgument);
  const Polynomial x = Polynomial::Variable(2, 0);
  const std::vector<Query> mixed = {Query(Box({0.1, 0.1}, {0.2, 0.2})),
                                    Query(SemiAlgebraicSet::Atom(x))};
  EXPECT_EQ(EncodeQueryBatch(mixed, &out).code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(out, "prefix");
}

TEST(QueryBatchCodec, DecodeChecksCountDimensionAndTrailingBytes) {
  const std::vector<Query> queries = {Query(Box({0.1, 0.2}, {0.3, 0.4})),
                                      Query(Halfspace({1.0, -1.0}, 0.0))};
  std::string payload;
  ASSERT_TRUE(EncodeQueryBatch(queries, &payload).ok());
  std::vector<Query> out;
  ASSERT_TRUE(DecodeQueryBatch(payload, 2, &out).ok());
  EXPECT_EQ(out.size(), 2u);

  Status st = DecodeQueryBatch(payload, 3, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "query dimension 2 != served model dimension 3");

  st = DecodeQueryBatch(payload + "x", 2, &out);
  EXPECT_EQ(st.message(), "trailing bytes after query");

  // A count the remaining bytes cannot hold is refused before any
  // decoding (or reservation) happens: here 3 queries in 2 queries' bytes,
  // then the largest count with no bytes at all.
  std::string lying = payload;
  lying[0] = 3;
  st = DecodeQueryBatch(lying.substr(0, 4 + 2 * kMinEncodedQueryBytes - 1),
                        2, &out);
  EXPECT_EQ(st.message(), "bad batch count");
  std::string bomb;
  PutU32(&bomb, kMaxBatchQueries);
  st = DecodeQueryBatch(bomb, 2, &out);
  EXPECT_EQ(st.message(), "bad batch count");
  EXPECT_TRUE(out.empty());
  std::string zero;
  PutU32(&zero, 0);
  EXPECT_EQ(DecodeQueryBatch(zero, 2, &out).message(), "bad batch count");

  // The single-query decoder applies the same checks to one query.
  std::string one;
  ASSERT_TRUE(EncodeQuery(queries[1], &one).ok());
  ASSERT_TRUE(DecodeEstimateQuery(one, 2, &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(DecodeEstimateQuery(one + "x", 2, &out).message(),
            "trailing bytes after query");
  EXPECT_FALSE(DecodeEstimateQuery(one, 1, &out).ok());
}

/// A valid batch of 1-5 mixed box/halfspace/ball queries of `dim`.
std::vector<Query> RandomBatch(int dim, Rng* rng) {
  std::vector<Query> batch;
  const size_t n = 1 + rng->UniformInt(5);
  for (size_t i = 0; i < n; ++i) {
    Point a(dim), b(dim);
    for (int j = 0; j < dim; ++j) {
      a[j] = rng->Uniform(0.0, 0.5);
      b[j] = a[j] + rng->Uniform(0.0, 0.5);
    }
    switch (rng->UniformInt(3)) {
      case 0: batch.emplace_back(Box(a, b)); break;
      case 1:
        batch.emplace_back(
            Halfspace(rng->UnitVector(dim), rng->Uniform(-1.0, 1.0)));
        break;
      default: batch.emplace_back(Ball(a, rng->Uniform(0.0, 0.5))); break;
    }
  }
  return batch;
}

// Seeded mutation fuzzing of the EstimateBatch trust boundary: byte
// flips, truncation at every length, and splices of two payloads. Every
// outcome must be a Status (an abort kills the test binary), and a batch
// the decoder accepts must re-encode to exactly the bytes it came from.
TEST(QueryBatchCodec, SeededMutationsYieldStatusOrFaithfulBatch) {
  Rng rng(20261018);
  struct Seed {
    std::string payload;
    int dim;
  };
  std::vector<Seed> seeds;
  for (int dim = 1; dim <= 4; ++dim) {
    for (int k = 0; k < 4; ++k) {
      Seed s{std::string(), dim};
      ASSERT_TRUE(EncodeQueryBatch(RandomBatch(dim, &rng), &s.payload).ok());
      seeds.push_back(std::move(s));
    }
  }
  size_t accepted = 0, rejected = 0;
  auto check = [&](const std::string& payload, int dim) {
    std::vector<Query> out;
    const Status st = DecodeQueryBatch(payload, dim, &out);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      ++rejected;
      return;
    }
    ++accepted;
    std::string again;
    ASSERT_TRUE(EncodeQueryBatch(out, &again).ok());
    EXPECT_EQ(Hex(again), Hex(payload));
  };
  for (const Seed& s : seeds) {
    check(s.payload, s.dim);
    for (size_t len = 0; len < s.payload.size(); ++len) {
      check(s.payload.substr(0, len), s.dim);
    }
  }
  for (int iter = 0; iter < 4000; ++iter) {
    const Seed& s = seeds[rng.UniformInt(seeds.size())];
    std::string m = s.payload;
    const size_t flips = 1 + rng.UniformInt(4);
    for (size_t f = 0; f < flips; ++f) {
      m[rng.UniformInt(m.size())] ^=
          static_cast<char>(1 + rng.UniformInt(255));
    }
    check(m, s.dim);
  }
  for (int iter = 0; iter < 2000; ++iter) {
    const Seed& a = seeds[rng.UniformInt(seeds.size())];
    const Seed& b = seeds[rng.UniformInt(seeds.size())];
    check(a.payload.substr(0, rng.UniformInt(a.payload.size() + 1)) +
              b.payload.substr(rng.UniformInt(b.payload.size() + 1)),
          a.dim);
  }
  // The budget exercised both outcomes, not just one.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
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
