#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace sel {

namespace {

Status WireError(const Frame& frame) {
  const std::string msg = std::string(WireStatusName(frame.status)) +
                          ": " + frame.payload;
  switch (StatusCodeFromWire(frame.status)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(msg);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
    default:
      return Status::Internal(msg);
  }
}

}  // namespace

Result<std::unique_ptr<EstimatorClient>> EstimatorClient::Connect(
    const std::string& host, int port, long timeout_ms) {
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("client port must lie in [1, 65535]");
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 host: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  if (timeout_ms > 0) {
    // Receive/send timeouts turn a dead peer into a failed call instead
    // of a wedged caller (the fault lane relies on this to keep
    // injected net.* failures from hanging tests).
    timeval tv;
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Status::IOError(
        "connect(" + host + ":" + std::to_string(port) +
        ") failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<EstimatorClient>(new EstimatorClient(fd));
}

EstimatorClient::~EstimatorClient() { Close(); }

void EstimatorClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Frame> EstimatorClient::RoundTrip(const Frame& request,
                                         FrameType expected) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client connection is closed");
  }
  Status st = WriteFrame(fd_, request);
  if (!st.ok()) {
    Close();
    return st;
  }
  Frame response;
  st = ReadFrame(fd_, &response);
  if (!st.ok()) {
    Close();
    if (st.code() == StatusCode::kNotFound) {
      return Status::IOError("server closed the connection");
    }
    return st;
  }
  if (response.type == FrameType::kError) return WireError(response);
  if (response.type != expected) {
    Close();
    return Status::Internal(std::string("unexpected response frame: ") +
                            FrameTypeName(response.type));
  }
  if (response.status != WireStatus::kOk) return WireError(response);
  return response;
}

Result<double> EstimatorClient::Estimate(const Query& query) {
  Frame request;
  request.type = FrameType::kEstimate;
  SEL_RETURN_IF_ERROR(EncodeQuery(query, &request.payload));
  Result<Frame> response = RoundTrip(request, FrameType::kEstimateResponse);
  SEL_RETURN_IF_ERROR(response.status());
  WireReader reader(response.value().payload);
  double value = 0.0;
  SEL_RETURN_IF_ERROR(reader.ReadF64(&value));
  SEL_RETURN_IF_ERROR(ExpectEnd(reader));
  return value;
}

Result<std::vector<double>> EstimatorClient::EstimateBatch(
    const std::vector<Query>& queries) {
  Frame request;
  request.type = FrameType::kEstimateBatch;
  SEL_RETURN_IF_ERROR(EncodeQueryBatch(queries, &request.payload));
  Result<Frame> response =
      RoundTrip(request, FrameType::kEstimateBatchResponse);
  SEL_RETURN_IF_ERROR(response.status());
  WireReader reader(response.value().payload);
  uint32_t count = 0;
  SEL_RETURN_IF_ERROR(reader.ReadU32(&count));
  if (count != queries.size()) {
    return Status::Internal("batch response count mismatch");
  }
  std::vector<double> values(count);
  SEL_RETURN_IF_ERROR(reader.ReadF64s(values.data(), values.size()));
  SEL_RETURN_IF_ERROR(ExpectEnd(reader));
  return values;
}

Status EstimatorClient::ExpectEnd(const WireReader& reader) {
  if (reader.AtEnd()) return Status::OK();
  // The stream is framed correctly, but the peer is not speaking this
  // protocol: do not trust the connection with another request.
  Close();
  return Status::Internal("trailing bytes in response");
}

Status EstimatorClient::Feedback(const Query& query,
                                 double true_selectivity) {
  Frame request;
  request.type = FrameType::kFeedback;
  SEL_RETURN_IF_ERROR(EncodeQuery(query, &request.payload));
  PutF64(&request.payload, true_selectivity);
  return RoundTrip(request, FrameType::kFeedbackResponse).status();
}

Result<std::string> EstimatorClient::Stats() {
  Frame request;
  request.type = FrameType::kStats;
  Result<Frame> response = RoundTrip(request, FrameType::kStatsResponse);
  SEL_RETURN_IF_ERROR(response.status());
  return std::move(response.value().payload);
}

Status EstimatorClient::Ping() {
  Frame request;
  request.type = FrameType::kPing;
  return RoundTrip(request, FrameType::kPong).status();
}

}  // namespace sel
