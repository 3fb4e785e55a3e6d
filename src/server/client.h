// Blocking client for the networked estimator service (DESIGN.md §14).
//
// One EstimatorClient owns one TCP connection and speaks the frame
// protocol of server/proto.h synchronously: request out, response in.
// It is intentionally small — tests, the bench harness, and the
// `selcli query` subcommand all drive the server through it, so the
// client is also the reference implementation of the protocol's peer
// side. Not thread-safe: one connection, one caller (open one client
// per thread; connections are cheap).
//
// Every call maps the response's wire status back onto a library
// Status, so an overloaded server surfaces as FailedPrecondition
// ("RESOURCE_EXHAUSTED: ...") rather than a hang, and a malformed-input
// reject as InvalidArgument. Socket reads honor a receive timeout so a
// dead peer fails the call instead of wedging the caller.
#ifndef SEL_SERVER_CLIENT_H_
#define SEL_SERVER_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/query.h"
#include "server/proto.h"

namespace sel {

class EstimatorClient {
 public:
  /// Connects to `host:port` (numeric IPv4 host, e.g. "127.0.0.1").
  /// `timeout_ms` bounds connect and every subsequent send/receive;
  /// <= 0 means no timeout.
  static Result<std::unique_ptr<EstimatorClient>> Connect(
      const std::string& host, int port, long timeout_ms = 5000);

  ~EstimatorClient();

  EstimatorClient(const EstimatorClient&) = delete;
  EstimatorClient& operator=(const EstimatorClient&) = delete;

  /// One estimate round trip. The returned double carries the server's
  /// IEEE bits verbatim. A response with bytes past the double is
  /// Internal ("trailing bytes in response") and closes the connection.
  Result<double> Estimate(const Query& query);

  /// Batch round trip: one EstimateBatch frame, `queries.size()`
  /// results in order. A response with bytes past its last result is
  /// Internal and closes the connection (as for Estimate).
  Result<std::vector<double>> EstimateBatch(
      const std::vector<Query>& queries);

  /// Reports one executed query's true selectivity; drives the server's
  /// online gate→publish→rollback pipeline.
  Status Feedback(const Query& query, double true_selectivity);

  /// Fetches the server's metrics snapshot as JSON.
  Result<std::string> Stats();

  /// Liveness round trip.
  Status Ping();

  /// Closes the connection; later calls fail with FailedPrecondition.
  void Close();

  bool connected() const { return fd_ >= 0; }

 private:
  explicit EstimatorClient(int fd) : fd_(fd) {}

  /// Writes `request`, reads one frame back. An Error frame becomes the
  /// mapped non-OK Status; a response of unexpected type is
  /// InternalError. IO failures close the connection.
  Result<Frame> RoundTrip(const Frame& request, FrameType expected);

  /// OK iff `reader` consumed the whole response payload; otherwise
  /// closes the connection and returns Internal.
  Status ExpectEnd(const WireReader& reader);

  int fd_ = -1;
};

}  // namespace sel

#endif  // SEL_SERVER_CLIENT_H_
