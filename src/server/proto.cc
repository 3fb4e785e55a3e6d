#include "server/proto.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/fault.h"

namespace sel {

namespace {

/// Wire tags of the three encodable query classes.
constexpr uint8_t kTagBox = 1;
constexpr uint8_t kTagHalfspace = 2;
constexpr uint8_t kTagBall = 3;

/// Dimensions above this are rejected at decode: no model in the system
/// is remotely that wide, and the cap keeps a hostile frame from forcing
/// large allocations.
constexpr uint16_t kMaxWireDim = 1024;

bool AllFinite(const Point& p) {
  for (double v : p) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Status ReadPoint(WireReader* r, int dim, Point* out) {
  out->resize(static_cast<size_t>(dim));
  return r->ReadF64s(out->data(), out->size());
}

void PutPoint(std::string* out, const Point& p) {
  PutF64s(out, p.data(), p.size());
}

/// Appends the host bytes of `v`: the wire bytes on a little-endian host.
template <typename T>
void PutRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Decodes `count` queries of dimension `dim` and requires the payload
/// to end there; shared by the Estimate and EstimateBatch decoders.
Status DecodeServedQueries(WireReader* reader, uint32_t count, int dim,
                           std::vector<Query>* out) {
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Result<Query> q = DecodeQuery(reader);
    SEL_RETURN_IF_ERROR(q.status());
    if (q.value().dim() != dim) {
      return Status::InvalidArgument(
          "query dimension " + std::to_string(q.value().dim()) +
          " != served model dimension " + std::to_string(dim));
    }
    out->push_back(std::move(q).value());
  }
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes after query");
  }
  return Status::OK();
}

}  // namespace

const char* FrameTypeName(FrameType t) {
  switch (t) {
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kEstimate: return "estimate";
    case FrameType::kEstimateResponse: return "estimate_response";
    case FrameType::kEstimateBatch: return "estimate_batch";
    case FrameType::kEstimateBatchResponse: return "estimate_batch_response";
    case FrameType::kFeedback: return "feedback";
    case FrameType::kFeedbackResponse: return "feedback_response";
    case FrameType::kStats: return "stats";
    case FrameType::kStatsResponse: return "stats_response";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

bool FrameTypeIsValid(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kPing) &&
         raw <= static_cast<uint8_t>(FrameType::kError);
}

const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kInvalidArgument: return "INVALID_ARGUMENT";
    case WireStatus::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case WireStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireStatus::kUnavailable: return "UNAVAILABLE";
    case WireStatus::kInternal: return "INTERNAL";
    case WireStatus::kUnimplemented: return "UNIMPLEMENTED";
  }
  return "unknown";
}

WireStatus WireStatusFromCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange: return WireStatus::kInvalidArgument;
    case StatusCode::kUnimplemented: return WireStatus::kUnimplemented;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNotFound: return WireStatus::kUnavailable;
    case StatusCode::kNotConverged:
    case StatusCode::kInternal:
    case StatusCode::kIOError: return WireStatus::kInternal;
  }
  return WireStatus::kInternal;
}

StatusCode StatusCodeFromWire(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return StatusCode::kOk;
    case WireStatus::kInvalidArgument: return StatusCode::kInvalidArgument;
    // Overload and deadline expiry are transient serving conditions; the
    // client surfaces both as FailedPrecondition ("try again later").
    case WireStatus::kResourceExhausted:
    case WireStatus::kDeadlineExceeded:
    case WireStatus::kUnavailable: return StatusCode::kFailedPrecondition;
    case WireStatus::kInternal: return StatusCode::kInternal;
    case WireStatus::kUnimplemented: return StatusCode::kUnimplemented;
  }
  return StatusCode::kInternal;
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) { PutRaw(out, v); }

void PutU32(std::string* out, uint32_t v) { PutRaw(out, v); }

void PutU64(std::string* out, uint64_t v) { PutRaw(out, v); }

void PutF64(std::string* out, double v) {
  static_assert(sizeof(v) == 8 && std::numeric_limits<double>::is_iec559);
  PutRaw(out, v);
}

void PutF64s(std::string* out, const double* v, size_t n) {
  out->append(reinterpret_cast<const char*>(v), n * sizeof(double));
}

Status WireReader::Truncated() {
  return Status::InvalidArgument("truncated frame payload");
}

std::string EncodeFrame(const Frame& frame) {
  std::string wire;
  wire.reserve(kFrameHeaderBytes + frame.payload.size());
  PutU32(&wire, kProtoMagic);
  PutU8(&wire, kProtoVersion);
  PutU8(&wire, static_cast<uint8_t>(frame.type));
  PutU8(&wire, static_cast<uint8_t>(frame.status));
  PutU8(&wire, 0);  // reserved
  PutU32(&wire, static_cast<uint32_t>(frame.payload.size()));
  wire += frame.payload;
  return wire;
}

Status DecodeFrameHeader(const uint8_t* header, Frame* out,
                         uint32_t* payload_len) {
  WireReader r(header, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0, type = 0, status = 0, reserved = 0;
  (void)r.ReadU32(&magic);
  (void)r.ReadU8(&version);
  (void)r.ReadU8(&type);
  (void)r.ReadU8(&status);
  (void)r.ReadU8(&reserved);
  (void)r.ReadU32(payload_len);
  if (magic != kProtoMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (version != kProtoVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  if (!FrameTypeIsValid(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (*payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(*payload_len));
  }
  out->type = static_cast<FrameType>(type);
  out->status = static_cast<WireStatus>(status);
  return Status::OK();
}

Status EncodeQuery(const Query& query, std::string* out) {
  const int dim = query.dim();
  if (dim < 1 || dim > static_cast<int>(kMaxWireDim)) {
    return Status::InvalidArgument("query dimension not wire-encodable: " +
                                   std::to_string(dim));
  }
  switch (query.type()) {
    case QueryType::kBox: {
      PutU8(out, kTagBox);
      PutU16(out, static_cast<uint16_t>(dim));
      PutPoint(out, query.box().lo());
      PutPoint(out, query.box().hi());
      return Status::OK();
    }
    case QueryType::kHalfspace: {
      PutU8(out, kTagHalfspace);
      PutU16(out, static_cast<uint16_t>(dim));
      PutPoint(out, query.halfspace().normal());
      PutF64(out, query.halfspace().offset());
      return Status::OK();
    }
    case QueryType::kBall: {
      PutU8(out, kTagBall);
      PutU16(out, static_cast<uint16_t>(dim));
      PutPoint(out, query.ball().center());
      PutF64(out, query.ball().radius());
      return Status::OK();
    }
    case QueryType::kSemiAlgebraic:
      return Status::Unimplemented(
          "semi-algebraic queries are not wire-encodable");
  }
  return Status::Internal("unreachable query type");
}

Result<Query> DecodeQuery(WireReader* reader) {
  uint8_t tag = 0;
  uint16_t dim16 = 0;
  SEL_RETURN_IF_ERROR(reader->ReadU8(&tag));
  SEL_RETURN_IF_ERROR(reader->ReadU16(&dim16));
  if (dim16 < 1 || dim16 > kMaxWireDim) {
    return Status::InvalidArgument("query dimension out of range: " +
                                   std::to_string(dim16));
  }
  const int dim = dim16;
  // Raw parameters are validated here, BEFORE any geometry object is
  // constructed: Box/Halfspace/Ball constructors SEL_CHECK-abort on the
  // very malformations a hostile frame would carry.
  switch (tag) {
    case kTagBox: {
      Point lo, hi;
      SEL_RETURN_IF_ERROR(ReadPoint(reader, dim, &lo));
      SEL_RETURN_IF_ERROR(ReadPoint(reader, dim, &hi));
      if (!AllFinite(lo) || !AllFinite(hi)) {
        return Status::InvalidArgument("box query has non-finite corner");
      }
      for (int i = 0; i < dim; ++i) {
        if (lo[i] > hi[i]) {
          return Status::InvalidArgument("box query has inverted interval");
        }
      }
      Query q(Box(std::move(lo), std::move(hi)));
      SEL_RETURN_IF_ERROR(ValidateQuery(q));
      return q;
    }
    case kTagHalfspace: {
      Point normal;
      double offset = 0.0;
      SEL_RETURN_IF_ERROR(ReadPoint(reader, dim, &normal));
      SEL_RETURN_IF_ERROR(reader->ReadF64(&offset));
      if (!AllFinite(normal) || !std::isfinite(offset)) {
        return Status::InvalidArgument(
            "halfspace query has non-finite parameter");
      }
      double norm2 = 0.0;
      for (double v : normal) norm2 += v * v;
      if (!(norm2 > 0.0)) {
        return Status::InvalidArgument("halfspace query has zero normal");
      }
      Query q(Halfspace(std::move(normal), offset));
      SEL_RETURN_IF_ERROR(ValidateQuery(q));
      return q;
    }
    case kTagBall: {
      Point center;
      double radius = 0.0;
      SEL_RETURN_IF_ERROR(ReadPoint(reader, dim, &center));
      SEL_RETURN_IF_ERROR(reader->ReadF64(&radius));
      if (!AllFinite(center) || !std::isfinite(radius) || radius < 0.0) {
        return Status::InvalidArgument(
            "ball query has non-finite parameter or negative radius");
      }
      Query q(Ball(std::move(center), radius));
      SEL_RETURN_IF_ERROR(ValidateQuery(q));
      return q;
    }
    default:
      return Status::InvalidArgument("unknown query tag " +
                                     std::to_string(tag));
  }
}

Status EncodeQueryBatch(const std::vector<Query>& queries,
                        std::string* out) {
  if (queries.empty() || queries.size() > kMaxBatchQueries) {
    return Status::InvalidArgument(
        "batch size must lie in [1, " + std::to_string(kMaxBatchQueries) +
        "]");
  }
  const size_t start = out->size();
  PutU32(out, static_cast<uint32_t>(queries.size()));
  for (const Query& q : queries) {
    const Status st = EncodeQuery(q, out);
    if (!st.ok()) {
      out->resize(start);
      return st;
    }
  }
  return Status::OK();
}

Status DecodeQueryBatch(const std::string& payload, int dim,
                        std::vector<Query>* out) {
  WireReader reader(payload);
  uint32_t count = 0;
  const Status st = reader.ReadU32(&count);
  // The count is bounded by the bytes that follow before anything is
  // reserved for it.
  if (!st.ok() || count == 0 || count > kMaxBatchQueries ||
      count > reader.remaining() / kMinEncodedQueryBytes) {
    out->clear();
    return Status::InvalidArgument("bad batch count");
  }
  return DecodeServedQueries(&reader, count, dim, out);
}

Status DecodeEstimateQuery(const std::string& payload, int dim,
                           std::vector<Query>* out) {
  WireReader reader(payload);
  return DecodeServedQueries(&reader, 1, dim, out);
}

Status WriteFull(int fd, const void* data, size_t n) {
  if (SEL_FAULT_POINT("net.write")) {
    return Status::IOError("injected fault: net.write (short write)");
  }
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < n) {
    // send(MSG_NOSIGNAL), not write(): a peer that hung up must cost an
    // EPIPE error on this connection, not a SIGPIPE that kills the
    // process.
    const ssize_t w = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("socket write failed: ") +
                             std::strerror(errno));
    }
    if (w == 0) return Status::IOError("socket write wrote zero bytes");
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReadFull(int fd, void* data, size_t n) {
  if (SEL_FAULT_POINT("net.read")) {
    return Status::IOError("injected fault: net.read (short read)");
  }
  char* p = static_cast<char*>(data);
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, p + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("socket read failed: ") +
                             std::strerror(errno));
    }
    if (r == 0) {
      if (off == 0) return Status::NotFound("connection closed");
      return Status::IOError("short read: connection closed mid-record");
    }
    off += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFrame(int fd, const Frame& frame) {
  const std::string wire = EncodeFrame(frame);
  return WriteFull(fd, wire.data(), wire.size());
}

Status ReadFrame(int fd, Frame* out) {
  uint8_t header[kFrameHeaderBytes];
  SEL_RETURN_IF_ERROR(ReadFull(fd, header, sizeof(header)));
  uint32_t payload_len = 0;
  SEL_RETURN_IF_ERROR(DecodeFrameHeader(header, out, &payload_len));
  out->payload.resize(payload_len);
  if (payload_len > 0) {
    const Status st = ReadFull(fd, out->payload.data(), payload_len);
    if (!st.ok()) {
      // EOF between header and payload is a torn record, not a clean
      // close.
      if (st.code() == StatusCode::kNotFound) {
        return Status::IOError("short read: connection closed mid-frame");
      }
      return st;
    }
  }
  return Status::OK();
}

Frame MakeErrorFrame(WireStatus status, const std::string& message) {
  Frame f;
  f.type = FrameType::kError;
  f.status = status;
  f.payload = message;
  return f;
}

}  // namespace sel
