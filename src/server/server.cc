#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/env.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "serve/compiled_plan.h"

namespace sel {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Largest payload buffer a connection keeps between frames. It holds a
// 256-query batch up to 12-D (50 KB); a larger frame's buffer is freed
// once answered, so idle connections pin at most this much each.
constexpr size_t kKeptPayloadBytes = 64u << 10;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                   start)
      .count();
}

}  // namespace

EstimatorServer::Options EstimatorServer::Options::FromEnv() {
  Options o;
  o.port = static_cast<int>(GetEnvInt("SEL_SERVE_PORT", o.port));
  o.max_pending = static_cast<size_t>(std::max(
      1L, GetEnvInt("SEL_SERVE_MAX_PENDING",
                    static_cast<long>(o.max_pending))));
  o.request_deadline_ms =
      GetEnvInt("SEL_SERVE_REQUEST_DEADLINE_MS", o.request_deadline_ms);
  return o;
}

Status EstimatorServer::Options::Validate() const {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("server port must lie in [0, 65535]");
  }
  if (request_deadline_ms < 0) {
    return Status::InvalidArgument("request_deadline_ms must be >= 0");
  }
  if (max_pending == 0) {
    return Status::InvalidArgument("max_pending must be positive");
  }
  if (max_batch_queries == 0) {
    return Status::InvalidArgument("max_batch_queries must be positive");
  }
  if (max_connections == 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  return Status::OK();
}

EstimatorServer::EstimatorServer(OnlineEstimator* estimator,
                                 const Options& options)
    : estimator_(estimator), options_(options) {}

Result<std::unique_ptr<EstimatorServer>> EstimatorServer::Start(
    OnlineEstimator* estimator, const Options& options) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("EstimatorServer needs an estimator");
  }
  SEL_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<EstimatorServer> server(
      new EstimatorServer(estimator, options));
  SEL_RETURN_IF_ERROR(server->Listen());
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

EstimatorServer::~EstimatorServer() { Shutdown(); }

Status EstimatorServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st = Status::IOError(
        std::string("bind(127.0.0.1:") + std::to_string(options_.port) +
        ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status st = Status::IOError(std::string("listen() failed: ") +
                                      std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    const Status st = Status::IOError(
        std::string("getsockname() failed: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

size_t EstimatorServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  size_t n = 0;
  for (const auto& c : connections_) {
    if (!c->done.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void EstimatorServer::ReapConnections() {
  // Holding conn_mu_. Finished handlers marked themselves done; joining
  // them here (never from their own thread) keeps close-after-join the
  // only fd release point, so a kernel-reused fd can never be shut down
  // twice.
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void EstimatorServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      // Only a dead listener ends the acceptor. Everything else —
      // ECONNABORTED, fd or buffer exhaustion, the pending network
      // errors Linux reports through accept() — costs at most the one
      // connection; on exhaustion, back off so the loop does not spin
      // while the process has no fd to spare.
      const int err = errno;
      if (err == EBADF || err == EINVAL || err == ENOTSOCK) return;
      if (err == EINTR) continue;
      SEL_METRIC_COUNTER_INC("server.net_errors_total");
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    if (SEL_FAULT_POINT("net.accept")) {
      // An injected accept failure costs one connection, never the
      // acceptor.
      SEL_METRIC_COUNTER_INC("server.net_errors_total");
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapConnections();
    size_t active = 0;
    for (const auto& c : connections_) {
      if (!c->done.load(std::memory_order_acquire)) ++active;
    }
    if (active >= options_.max_connections) {
      SEL_METRIC_COUNTER_INC("server.overload_total");
      (void)WriteFrame(fd, MakeErrorFrame(WireStatus::kResourceExhausted,
                                          "too many connections"));
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    SEL_METRIC_GAUGE_SET("server.connections",
                         static_cast<int64_t>(active + 1));
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

void EstimatorServer::ConnectionLoop(Connection* conn) {
  // One frame for the connection's life: its payload buffer keeps its
  // capacity (up to kKeptPayloadBytes), so a steady stream of batch
  // frames is not reallocated per frame.
  Frame frame;
  for (;;) {
    const Status st = ReadFrame(conn->fd, &frame);
    if (!st.ok()) {
      if (st.code() == StatusCode::kInvalidArgument) {
        // Malformed header: answer once, then close — the byte stream
        // has lost frame alignment.
        (void)WriteFrame(conn->fd,
                         MakeErrorFrame(WireStatus::kInvalidArgument,
                                        st.message()));
      } else if (st.code() != StatusCode::kNotFound) {
        // Torn read or socket error; NotFound is the clean close.
        SEL_METRIC_COUNTER_INC("server.net_errors_total");
      }
      break;
    }
    if (!HandleFrame(conn->fd, frame)) break;
    if (frame.payload.capacity() > kKeptPayloadBytes) {
      std::string().swap(frame.payload);
    }
  }
  // FIN the peer now — it must not wait for the next accept to learn
  // this connection is over. Only ::shutdown, never ::close: the fd
  // number is released after join (ReapConnections / Shutdown()), which
  // keeps kernel fd reuse race-free.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

bool EstimatorServer::HandleFrame(int fd, const Frame& frame) {
  SEL_METRIC_COUNTER_INC("server.requests_total");
  switch (frame.type) {
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.payload = frame.payload;
      return WriteFrame(fd, pong).ok();
    }
    case FrameType::kEstimate:
      return HandleEstimate(fd, frame, /*batch=*/false);
    case FrameType::kEstimateBatch:
      return HandleEstimate(fd, frame, /*batch=*/true);
    case FrameType::kFeedback:
      return HandleFeedback(fd, frame);
    case FrameType::kStats:
      return HandleStats(fd);
    default:
      // A response-type frame from a client is a protocol violation.
      SEL_METRIC_COUNTER_INC("server.protocol_errors_total");
      return WriteFrame(fd, MakeErrorFrame(
                                WireStatus::kInvalidArgument,
                                std::string("unexpected frame type: ") +
                                    FrameTypeName(frame.type)))
          .ok();
  }
}

bool EstimatorServer::HandleEstimate(int fd, const Frame& frame,
                                     bool batch) {
  std::vector<Query> queries;
  const Status st =
      batch ? DecodeQueryBatch(frame.payload, estimator_->dim(), &queries)
            : DecodeEstimateQuery(frame.payload, estimator_->dim(), &queries);
  if (!st.ok()) {
    SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
    return WriteFrame(fd, MakeErrorFrame(WireStatus::kInvalidArgument,
                                         st.message()))
        .ok();
  }
  return WriteFrame(fd, AdmitAndWait(std::move(queries), batch)).ok();
}

Frame EstimatorServer::AdmitAndWait(std::vector<Query> queries,
                                    bool batch) {
  PendingRequest request;
  request.queries = std::move(queries);
  request.deadline = options_.request_deadline_ms > 0
                         ? Deadline::AfterMillis(options_.request_deadline_ms)
                         : Deadline::Infinite();
  request.enqueued_at = SteadyClock::now();
  std::vector<PendingRequest*> taken;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      return MakeErrorFrame(WireStatus::kUnavailable, "server draining");
    }
    if (pending_.size() >= options_.max_pending) {
      // Load shedding, not queueing: the queue never grows past its
      // bound, the caller hears RESOURCE_EXHAUSTED right away.
      SEL_METRIC_COUNTER_INC("server.overload_total");
      return MakeErrorFrame(WireStatus::kResourceExhausted,
                            "pending request queue is full");
    }
    pending_.push_back(&request);
    SEL_METRIC_GAUGE_SET("server.queue_depth",
                         static_cast<int64_t>(pending_.size()));
    if (!leader_active_) {
      // No batch is running, so the queue was empty and this request is
      // at its front: lead.
      leader_active_ = true;
      request.leader = true;
    }
    request.cv.wait(lock, [&] { return request.done || request.leader; });
    if (!request.done) {
      // Leading: our own request is the front. Take everything queued
      // up to the batch bound; later arrivals wait for the next leader.
      size_t total = 0;
      while (!pending_.empty()) {
        const size_t q = pending_.front()->queries.size();
        if (!taken.empty() && total + q > options_.max_batch_queries) break;
        total += q;
        taken.push_back(pending_.front());
        pending_.pop_front();
      }
      SEL_METRIC_GAUGE_SET("server.queue_depth",
                           static_cast<int64_t>(pending_.size()));
    }
  }
  if (!taken.empty()) {
    if (SEL_FAULT_POINT("server.batch_stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    ExecuteBatch(taken);
    std::lock_guard<std::mutex> lock(queue_mu_);
    // Notify while holding the lock: a follower's request (and its cv)
    // lives on its reader's stack, which may unwind as soon as it can
    // observe `done`.
    for (PendingRequest* r : taken) {
      r->done = true;
      r->cv.notify_one();
    }
    // Hand off, keeping the invariant: the oldest queued request leads
    // the next batch, or nobody leads because nothing is queued.
    if (pending_.empty()) {
      leader_active_ = false;
    } else {
      pending_.front()->leader = true;
      pending_.front()->cv.notify_one();
    }
  }
  SEL_METRIC_HIST_RECORD("server.request_us",
                         MicrosSince(request.enqueued_at));
  if (request.status != WireStatus::kOk) {
    return MakeErrorFrame(request.status, request.message);
  }
  Frame response;
  response.type = batch ? FrameType::kEstimateBatchResponse
                        : FrameType::kEstimateResponse;
  response.payload.reserve(4 + request.values.size() * sizeof(double));
  if (batch) {
    PutU32(&response.payload,
           static_cast<uint32_t>(request.values.size()));
  }
  PutF64s(&response.payload, request.values.data(), request.values.size());
  return response;
}

bool EstimatorServer::HandleFeedback(int fd, const Frame& frame) {
  WireReader reader(frame.payload);
  Result<Query> q = DecodeQuery(&reader);
  double truth = 0.0;
  Status st = q.status();
  if (st.ok()) st = reader.ReadF64(&truth);
  if (st.ok() && !reader.AtEnd()) {
    st = Status::InvalidArgument("trailing bytes after feedback record");
  }
  if (st.ok()) {
    // OnlineEstimator's window mutation (and any retrain it triggers) is
    // single-writer; concurrent feedback frames serialize here while
    // estimates keep flowing lock-free from the published snapshot.
    std::lock_guard<std::mutex> lock(feedback_mu_);
    st = estimator_->Feedback(q.value(), truth);
  }
  Frame response;
  response.type = FrameType::kFeedbackResponse;
  response.status = WireStatusFromCode(st.code());
  if (!st.ok()) {
    SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
    response.payload = st.message();
  }
  return WriteFrame(fd, response).ok();
}

bool EstimatorServer::HandleStats(int fd) {
  Frame response;
  response.type = FrameType::kStatsResponse;
  response.payload = MetricsRegistry::Global().Snapshot().ToJson();
  return WriteFrame(fd, response).ok();
}

void EstimatorServer::ExecuteBatch(
    const std::vector<PendingRequest*>& batch) {
  SEL_TRACE_SPAN("server.batch");
  // A request whose budget lapsed while queued is answered
  // DEADLINE_EXCEEDED instead of spending compute on an answer nobody
  // is waiting for.
  std::vector<PendingRequest*> live;
  live.reserve(batch.size());
  for (PendingRequest* request : batch) {
    if (request->deadline.expired()) {
      SEL_METRIC_COUNTER_INC("server.deadline_expired_total");
      request->status = WireStatus::kDeadlineExceeded;
      request->message = "request deadline expired before execution";
    } else {
      live.push_back(request);
    }
  }
  if (live.empty()) return;
  // Each request's answer array is sized first, which records its count
  // before its queries are moved.
  size_t total = 0;
  for (PendingRequest* r : live) {
    r->values.resize(r->queries.size());
    total += r->queries.size();
  }
  // The queries reach EstimateMany without a copy: the first request's
  // array is moved in and the others are move-appended to it.
  std::vector<Query> flat = std::move(live.front()->queries);
  flat.reserve(total);
  for (size_t i = 1; i < live.size(); ++i) {
    std::move(live[i]->queries.begin(), live[i]->queries.end(),
              std::back_inserter(flat));
  }
  SEL_METRIC_HIST_RECORD("server.batch_size",
                         static_cast<double>(total));
  std::vector<double> out(total);
  {
    // FIFO admission makes the first live request's budget the tightest;
    // arming it over the whole dispatch keeps the batch cooperative with
    // the deadline machinery (QMC volume loops poll it).
    ScopedDeadline scope(live.front()->deadline);
    const std::shared_ptr<const CompiledPlan> plan =
        estimator_->serving_plan();
    if (plan != nullptr) {
      // THE serving fast path: one batch kernel call over the coalesced
      // queries; results are bit-identical to an in-process
      // EstimateMany on the same plan (per-query evaluation is
      // independent of batch composition).
      plan->EstimateMany(flat.data(), total, out.data());
    } else {
      for (size_t i = 0; i < total; ++i) {
        out[i] = estimator_->Estimate(flat[i]);
      }
    }
  }
  const double* next = out.data();
  for (PendingRequest* r : live) {
    std::copy_n(next, r->values.size(), r->values.data());
    next += r->values.size();
  }
}

void EstimatorServer::Shutdown() {
  // Serializing callers makes Shutdown idempotent: a second caller
  // blocks until the first finished, then finds everything joined.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    // Wakes the blocking accept(); the acceptor sees stopping_ and
    // exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    // EOF every open connection: readers finish the frame (and request)
    // they are on, then see a clean close — the in-flight drain. A
    // reader waiting on a queued request returns only once it is
    // answered, which the leader invariant guarantees.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& conn : connections_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  SEL_METRIC_GAUGE_SET("server.connections", 0);
  SEL_METRIC_GAUGE_SET("server.queue_depth", 0);
}

}  // namespace sel
