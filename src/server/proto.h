// Wire protocol of the networked estimator service (DESIGN.md §14).
//
// Frames are length-prefixed binary records over a byte stream, fixed
// little-endian encoding:
//
//   offset  size  field
//   0       4     magic   0x314C4553 ("SEL1")
//   4       1     version (kProtoVersion)
//   5       1     type    (FrameType)
//   6       1     status  (WireStatus; kOk in requests)
//   7       1     reserved (0)
//   8       4     payload length (<= kMaxFramePayload)
//   12      n     payload
//
// Request payloads:
//   Ping           — empty (Pong echoes empty).
//   Estimate       — one encoded query.
//   EstimateBatch  — u32 count, then `count` encoded queries.
//   Feedback       — one encoded query, then f64 true selectivity.
//   Stats          — empty.
//
// Response payloads:
//   EstimateResponse      — f64 (raw IEEE bits, so a round-tripped
//                           estimate is bit-identical to the in-process
//                           CompiledPlan result).
//   EstimateBatchResponse — u32 count, then `count` f64.
//   FeedbackResponse      — empty (outcome in the header status).
//   StatsResponse         — MetricsSnapshot::ToJson() bytes.
//   Error                 — UTF-8 message; status in the header says why
//                           (RESOURCE_EXHAUSTED under overload,
//                           INVALID_ARGUMENT for malformed input, ...).
//
// Queries encode as: u8 type tag (1 box, 2 halfspace, 3 ball), u16 dim,
// then the f64 parameters (box lo[dim] hi[dim]; halfspace normal[dim]
// offset; ball center[dim] radius). The smallest encoded query is
// kMinEncodedQueryBytes (19) long. Semi-algebraic ranges are not wire-
// encodable (Unimplemented). Decoding validates every raw parameter
// BEFORE constructing geometry (the constructors SEL_CHECK-abort on
// inverted intervals and the like), then runs the decoded query through
// ValidateQuery — the same admission path the in-process edges use — so
// a malformed frame is rejected at the edge, never served.
//
// The codec is bulk: each scalar and each coordinate array (lo, hi,
// normal, centre) is one append on encode and one bounds check plus a
// memcpy on decode. That relies on a little-endian host (static_assert
// below), where the in-memory bytes are the wire bytes.
// The EstimateBatch layout lives only here: EncodeQueryBatch (count,
// then each query) on the client, DecodeQueryBatch (count bound,
// per-query dimension check, trailing-byte check) on the server. A batch
// count above remaining_bytes / kMinEncodedQueryBytes is rejected before
// anything is reserved, so a short frame cannot make the reader allocate
// for 65536 queries.
//
// The Read/Write helpers plant the `net.read` / `net.write` fault sites
// (short reads/writes) used by the fault lane to prove a per-connection
// failure never takes the server down.
#ifndef SEL_SERVER_PROTO_H_
#define SEL_SERVER_PROTO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/query.h"

namespace sel {

// The bulk codec copies host bytes straight to and from the wire.
static_assert(std::endian::native == std::endian::little,
              "the wire codec assumes a little-endian host");

inline constexpr uint32_t kProtoMagic = 0x314C4553u;  // "SEL1"
inline constexpr uint8_t kProtoVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Upper bound on one frame's payload: a malformed length field must
/// never make the peer allocate unboundedly.
inline constexpr uint32_t kMaxFramePayload = 4u << 20;
/// Upper bound on queries in one EstimateBatch frame.
inline constexpr uint32_t kMaxBatchQueries = 65536;
/// Bytes of the smallest encoded query: u8 tag, u16 dim 1, two f64.
inline constexpr size_t kMinEncodedQueryBytes = 1 + 2 + 2 * 8;

/// Frame discriminator. Requests are odd, their responses even (Error
/// answers any request).
enum class FrameType : uint8_t {
  kPing = 1,
  kPong = 2,
  kEstimate = 3,
  kEstimateResponse = 4,
  kEstimateBatch = 5,
  kEstimateBatchResponse = 6,
  kFeedback = 7,
  kFeedbackResponse = 8,
  kStats = 9,
  kStatsResponse = 10,
  kError = 11,
};

/// Returns a display name ("estimate", "error", ...).
const char* FrameTypeName(FrameType t);

/// True iff `raw` is a defined FrameType value.
bool FrameTypeIsValid(uint8_t raw);

/// Outcome code carried in response headers.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kResourceExhausted = 2,
  kDeadlineExceeded = 3,
  kUnavailable = 4,
  kInternal = 5,
  kUnimplemented = 6,
};

/// Returns a display name ("OK", "RESOURCE_EXHAUSTED", ...).
const char* WireStatusName(WireStatus s);

/// Maps a library Status onto the wire (overload has no StatusCode;
/// callers pass WireStatus::kResourceExhausted directly).
WireStatus WireStatusFromCode(StatusCode code);

/// Maps a wire status back to a library StatusCode for client callers.
StatusCode StatusCodeFromWire(WireStatus s);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kPing;
  WireStatus status = WireStatus::kOk;
  std::string payload;
};

// --- Primitive little-endian appenders (used by the encoders and by
// tests constructing malformed frames on purpose). ---
void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
/// Raw IEEE-754 bits, so doubles round-trip bit-exactly.
void PutF64(std::string* out, double v);
/// Appends `n` doubles as one block.
void PutF64s(std::string* out, const double* v, size_t n);

/// Bounds-checked cursor over a payload; every Read fails with
/// InvalidArgument("truncated frame payload") instead of reading past
/// the end.
class WireReader {
 public:
  WireReader(const void* data, size_t size)
      : p_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit WireReader(const std::string& payload)
      : WireReader(payload.data(), payload.size()) {}

  Status ReadU8(uint8_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadU16(uint16_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadF64(double* v) { return ReadBytes(v, sizeof(*v)); }
  /// Reads `n` doubles into `v` with one bounds check.
  Status ReadF64s(double* v, size_t n) {
    if (n > remaining() / sizeof(double)) return Truncated();
    return ReadBytes(v, n * sizeof(double));
  }

  size_t remaining() const { return size_ - off_; }
  bool AtEnd() const { return off_ == size_; }

 private:
  /// Copies `n` bytes out, or fails without advancing. Inline, so the
  /// OK path costs a compare and a memcpy at every call site.
  Status ReadBytes(void* v, size_t n) {
    if (remaining() < n) return Truncated();
    std::memcpy(v, p_ + off_, n);
    off_ += n;
    return Status::OK();
  }
  /// InvalidArgument("truncated frame payload"), kept out of line.
  static Status Truncated();

  const uint8_t* p_;
  size_t size_;
  size_t off_ = 0;
};

/// Serializes header + payload into one contiguous wire record.
std::string EncodeFrame(const Frame& frame);

/// Parses a 12-byte header: magic, version, defined type, and a payload
/// length within kMaxFramePayload. InvalidArgument otherwise.
Status DecodeFrameHeader(const uint8_t* header, Frame* out,
                         uint32_t* payload_len);

/// Appends the wire form of `query`. Unimplemented for semi-algebraic
/// ranges (their polynomial structure is not wire-encodable).
Status EncodeQuery(const Query& query, std::string* out);

/// Decodes one query, validating raw parameters before any geometry
/// object is constructed and finishing with ValidateQuery — malformed
/// input yields InvalidArgument, never an abort.
Result<Query> DecodeQuery(WireReader* reader);

/// Appends an EstimateBatch payload: u32 count, then each query. The
/// count must lie in [1, kMaxBatchQueries] (InvalidArgument otherwise);
/// a query EncodeQuery rejects fails the whole batch. `out` is left as
/// it was on error.
Status EncodeQueryBatch(const std::vector<Query>& queries,
                        std::string* out);

/// Decodes an EstimateBatch payload into `out` (replacing its contents),
/// every query of dimension `dim`. InvalidArgument, with the message the
/// server answers, on: a count of 0, above kMaxBatchQueries, or above
/// what the remaining bytes could hold ("bad batch count"); any query
/// DecodeQuery rejects; a query of another dimension; trailing bytes.
Status DecodeQueryBatch(const std::string& payload, int dim,
                        std::vector<Query>* out);

/// Decodes an Estimate payload — exactly one query of dimension `dim` —
/// into `out` (replacing its contents), with DecodeQueryBatch's checks.
Status DecodeEstimateQuery(const std::string& payload, int dim,
                           std::vector<Query>* out);

// --- Blocking socket IO (fault sites net.read / net.write). ---

/// Writes all `n` bytes to socket `fd`. IOError on any short write or
/// socket error, including a peer that already hung up (never SIGPIPE);
/// fault site `net.write` injects one.
Status WriteFull(int fd, const void* data, size_t n);

/// Reads exactly `n` bytes. NotFound("connection closed") on clean EOF
/// before the first byte, IOError on a short read mid-record or a socket
/// error (fault site `net.read` injects one).
Status ReadFull(int fd, void* data, size_t n);

/// Writes one frame (header + payload).
Status WriteFrame(int fd, const Frame& frame);

/// Reads one frame. NotFound on clean EOF at a frame boundary,
/// InvalidArgument on a malformed header, IOError on torn reads.
Status ReadFrame(int fd, Frame* out);

/// Convenience: an Error frame carrying `status` and `message`.
Frame MakeErrorFrame(WireStatus status, const std::string& message);

}  // namespace sel

#endif  // SEL_SERVER_PROTO_H_
