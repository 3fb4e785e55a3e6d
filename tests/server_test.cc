// Networked estimator service suite (DESIGN.md §14): the server's wire
// answers must be bit-identical to an in-process CompiledPlan batch on
// the same snapshot; overload must shed with RESOURCE_EXHAUSTED instead
// of queueing or aborting; malformed frames and injected net.* faults
// must cost at most one connection, never the server; and serving must
// stay uninterrupted while feedback-driven retrains republish the model
// underneath (the TSAN matrix lane checks the whole dance is race-free).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "sel/sel.h"

namespace sel {
namespace {

struct Fixture {
  Fixture() : data(MakePowerLike(3000, 1300).Project({0, 1})), index(data.rows()) {}

  Workload MakeWorkload(size_t n, uint64_t seed) const {
    WorkloadOptions opts;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  /// A trained online estimator with automatic retraining off (tests
  /// that need retrains set their own interval).
  std::unique_ptr<OnlineEstimator> MakeTrained(size_t n = 200,
                                               uint64_t seed = 17) const {
    OnlineOptions opts;
    opts.retrain_interval = 0;
    auto est = OnlineEstimator::Create(data.dim(), opts);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
    for (const auto& z : MakeWorkload(n, seed)) {
      EXPECT_TRUE(est.value()->Feedback(z.query, z.selectivity).ok());
    }
    EXPECT_TRUE(est.value()->Retrain().ok());
    EXPECT_TRUE(est.value()->trained());
    return std::move(est).value();
  }

  Dataset data;
  CountingKdTree index;
};

EstimatorServer::Options QuietOptions() {
  EstimatorServer::Options opts;
  opts.port = 0;  // ephemeral: tests never collide
  return opts;
}

struct FaultGuard {
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

/// Arms server.batch_stall to fire on its next hit, so the next batch's
/// leader sleeps before dispatching while later requests queue behind
/// it. Returns the site's fire count before arming (for AwaitStall).
uint64_t StallNextBatch() {
  FaultRegistry& faults = FaultRegistry::Global();
  const uint64_t fires = faults.FireCount("server.batch_stall");
  faults.Arm("server.batch_stall", faults.HitCount("server.batch_stall") + 1);
  return fires;
}

/// Waits (20s cap) until the stall armed by StallNextBatch has fired.
bool AwaitStall(uint64_t fires_before) {
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (FaultRegistry::Global().FireCount("server.batch_stall") <=
         fires_before) {
    if (std::chrono::steady_clock::now() > cap) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

Result<std::unique_ptr<EstimatorClient>> Dial(const EstimatorServer& server) {
  return EstimatorClient::Connect("127.0.0.1", server.port());
}

/// Raw TCP connection for writing deliberately malformed bytes.
int DialRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// 12-byte header with caller-controlled fields (for malformed input).
std::string RawHeader(uint32_t magic, uint8_t version, uint8_t type,
                      uint32_t payload_len) {
  std::string h;
  PutU32(&h, magic);
  PutU8(&h, version);
  PutU8(&h, type);
  PutU8(&h, 0);  // status
  PutU8(&h, 0);  // reserved
  PutU32(&h, payload_len);
  return h;
}

TEST(ServerLifecycle, StartsOnEphemeralPortAndShutsDownIdempotently) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT(server.value()->port(), 0);
  EXPECT_TRUE(server.value()->running());
  server.value()->Shutdown();
  EXPECT_FALSE(server.value()->running());
  server.value()->Shutdown();  // second call is a no-op, not a crash
}

TEST(ServerLifecycle, OptionsValidateRejectsBadValues) {
  EstimatorServer::Options opts;
  opts.max_pending = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = EstimatorServer::Options();
  opts.port = 70000;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(ServerLifecycle, OptionsFromEnvReadsKnobs) {
  ::setenv("SEL_SERVE_PORT", "12345", 1);
  ::setenv("SEL_SERVE_MAX_PENDING", "9", 1);
  ::setenv("SEL_SERVE_REQUEST_DEADLINE_MS", "250", 1);
  const EstimatorServer::Options opts = EstimatorServer::Options::FromEnv();
  ::unsetenv("SEL_SERVE_PORT");
  ::unsetenv("SEL_SERVE_MAX_PENDING");
  ::unsetenv("SEL_SERVE_REQUEST_DEADLINE_MS");
  EXPECT_EQ(opts.port, 12345);
  EXPECT_EQ(opts.max_pending, 9u);
  EXPECT_EQ(opts.request_deadline_ms, 250);
}

TEST(ServerRoundTrip, Ping) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value()->Ping().ok());
}

TEST(ServerRoundTrip, SingleEstimateBitIdenticalToCompiledPlan) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());

  const Workload probes = fx.MakeWorkload(40, 99);
  for (const auto& z : probes) {
    auto remote = client.value()->Estimate(z.query);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    double direct = 0.0;
    plan->EstimateMany(&z.query, 1, &direct);
    // Bit identity, not tolerance: doubles travel as raw IEEE bits and
    // the batch kernel is independent of batch composition.
    EXPECT_EQ(std::memcmp(&remote.value(), &direct, sizeof(double)), 0)
        << "remote " << remote.value() << " != direct " << direct;
  }
}

TEST(ServerRoundTrip, BatchEstimateBitIdenticalToCompiledPlan) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());

  std::vector<Query> queries;
  for (const auto& z : fx.MakeWorkload(64, 123)) queries.push_back(z.query);
  auto remote = client.value()->EstimateBatch(queries);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote.value().size(), queries.size());
  std::vector<double> direct(queries.size(), 0.0);
  plan->EstimateMany(queries.data(), queries.size(), direct.data());
  EXPECT_EQ(std::memcmp(remote.value().data(), direct.data(),
                        sizeof(double) * direct.size()),
            0);
}

TEST(ServerRoundTrip, StatsFrameIsJson) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("\"counters\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"histograms\""), std::string::npos);
  EXPECT_EQ(stats.value().front(), '{');
  EXPECT_EQ(stats.value().back(), '}');
}

// Multi-client hammer: every concurrent wire answer must match the
// in-process plan bit for bit. Under the TSAN matrix lane this is also
// the race check on the acceptor / connection / batcher threads.
TEST(ServerConcurrency, MultiClientHammerBitIdentical) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());

  constexpr int kClients = 6;
  constexpr int kRequests = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Dial(*server.value());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const Workload probes = fx.MakeWorkload(kRequests, 1000 + t);
      for (int i = 0; i < kRequests; ++i) {
        const Query& q = probes[i].query;
        double direct = 0.0;
        plan->EstimateMany(&q, 1, &direct);
        if (i % 3 == 0) {
          auto r = client.value()->EstimateBatch({q});
          if (!r.ok() ||
              std::memcmp(r.value().data(), &direct, sizeof(double)) != 0) {
            (r.ok() ? mismatches : failures).fetch_add(1);
          }
        } else {
          auto r = client.value()->Estimate(q);
          if (!r.ok() ||
              std::memcmp(&r.value(), &direct, sizeof(double)) != 0) {
            (r.ok() ? mismatches : failures).fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

// Concurrent single-query frames still coalesce: requests that arrive
// while a batch computes ride the next batch together, so the server
// runs fewer batches than it answers requests — serving has not
// degenerated into request-at-a-time — and every answer stays bit
// identical to the in-process plan.
TEST(ServerConcurrency, ConcurrentSinglesCoalesceIntoFewerBatches) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  struct MetricsOn {
    const bool was = MetricsEnabled();
    MetricsOn() {
      SetMetricsEnabled(true);
      MetricsRegistry::Global().Reset();
    }
    ~MetricsOn() { SetMetricsEnabled(was); }
  } metrics_on;

  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::vector<Workload> probes;
  for (int t = 0; t < kClients; ++t) {
    probes.push_back(fx.MakeWorkload(kRequests, 2000 + t));
  }
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  uint64_t sent = 0;
  uint64_t batches = 0;
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  // Rounds of the hammer until a batch is seen to carry more than one
  // request (practically the first round).
  do {
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        auto client = Dial(*server.value());
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (const auto& z : probes[t]) {
          double direct = 0.0;
          plan->EstimateMany(&z.query, 1, &direct);
          auto r = client.value()->Estimate(z.query);
          if (!r.ok() ||
              std::memcmp(&r.value(), &direct, sizeof(double)) != 0) {
            (r.ok() ? mismatches : failures).fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    sent += kClients * kRequests;
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    const HistogramSnapshot* h = snap.FindHistogram("server.batch_size");
    batches = h == nullptr ? 0 : h->count;
  } while (batches >= sent && failures.load() == 0 &&
           std::chrono::steady_clock::now() < cap);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(batches, 0u);
  EXPECT_LT(batches, sent) << "every request ran as its own batch";
}

// Batch frames of different sizes coalesced into one dispatch are moved,
// not copied, into the flat batch; each reader must still get exactly
// its own answers, bit identical to the in-process plan.
TEST(ServerConcurrency, CoalescedBatchesOfMixedSizesBitIdentical) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  struct MetricsOn {
    const bool was = MetricsEnabled();
    MetricsOn() {
      SetMetricsEnabled(true);
      MetricsRegistry::Global().Reset();
    }
    ~MetricsOn() { SetMetricsEnabled(was); }
  } metrics_on;

  const size_t kSizes[] = {1, 5, 17, 64};
  constexpr int kRequests = 20;
  std::vector<std::vector<Query>> frames;
  std::vector<std::vector<double>> direct;
  for (size_t t = 0; t < std::size(kSizes); ++t) {
    frames.emplace_back();
    for (const auto& z : fx.MakeWorkload(kSizes[t], 3000 + t)) {
      frames.back().push_back(z.query);
    }
    direct.emplace_back(kSizes[t]);
    plan->EstimateMany(frames[t].data(), kSizes[t], direct[t].data());
  }
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  uint64_t sent = 0;
  uint64_t batches = 0;
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  do {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < frames.size(); ++t) {
      threads.emplace_back([&, t] {
        auto client = Dial(*server.value());
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kRequests; ++i) {
          auto r = client.value()->EstimateBatch(frames[t]);
          if (!r.ok() || r.value().size() != kSizes[t]) {
            failures.fetch_add(1);
          } else if (std::memcmp(r.value().data(), direct[t].data(),
                                 sizeof(double) * kSizes[t]) != 0) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    sent += frames.size() * kRequests;
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    const HistogramSnapshot* h = snap.FindHistogram("server.batch_size");
    batches = h == nullptr ? 0 : h->count;
  } while (batches >= sent && failures.load() == 0 &&
           std::chrono::steady_clock::now() < cap);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LT(batches, sent) << "no batch carried more than one request";
}

// Serving keeps answering while feedback frames drive retrains (and the
// gate→publish pipeline) underneath; every concurrent answer stays a
// valid selectivity.
TEST(ServerConcurrency, RetrainWhileServing) {
  Fixture fx;
  OnlineOptions oopts;
  oopts.retrain_interval = 8;
  oopts.window_capacity = 256;
  auto est = OnlineEstimator::Create(fx.data.dim(), oopts);
  ASSERT_TRUE(est.ok());
  for (const auto& z : fx.MakeWorkload(64, 5)) {
    ASSERT_TRUE(est.value()->Feedback(z.query, z.selectivity).ok());
  }
  ASSERT_TRUE(est.value()->trained());
  const size_t retrains_before = est.value()->retrain_count();

  auto server = EstimatorServer::Start(est.value().get(), QuietOptions());
  ASSERT_TRUE(server.ok());

  // Feedback round trips pay for synchronous retrains server-side, and
  // a loaded CI box (ctest -j on few cores) can stretch one past the
  // default 5s receive timeout; a generous budget keeps the test about
  // correctness under retrain, not scheduler luck.
  const long kSlowBoxTimeoutMs = 120000;

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      auto client = EstimatorClient::Connect(
          "127.0.0.1", server.value()->port(), kSlowBoxTimeoutMs);
      if (!client.ok()) {
        bad.fetch_add(1);
        return;
      }
      const Workload probes = fx.MakeWorkload(32, 300 + t);
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client.value()->Estimate(probes[i++ % probes.size()].query);
        if (!r.ok() || !(r.value() >= 0.0 && r.value() <= 1.0)) {
          bad.fetch_add(1);
          return;
        }
      }
    });
  }

  // Feedback over the wire: each record may trigger a retrain + publish.
  // No ASSERT before the joins — an early return would terminate on the
  // joinable reader threads (the ambient-fault lane exercises this).
  auto writer = EstimatorClient::Connect(
      "127.0.0.1", server.value()->port(), kSlowBoxTimeoutMs);
  size_t fed = 0;
  if (writer.ok()) {
    for (const auto& z : fx.MakeWorkload(64, 777)) {
      if (!writer.value()->Feedback(z.query, z.selectivity).ok()) break;
      ++fed;
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ(fed, 64u);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(est.value()->retrain_count(), retrains_before);
}

// Admission control: a full pending queue answers RESOURCE_EXHAUSTED
// immediately — overload degrades throughput, never memory, and the
// server keeps serving afterwards.
TEST(ServerOverload, ShedsLoadWithResourceExhausted) {
  Fixture fx;
  auto est = fx.MakeTrained();
  EstimatorServer::Options opts = QuietOptions();
  opts.max_pending = 1;
  opts.max_batch_queries = 1;  // one query per dispatch: backlog builds
  auto server = EstimatorServer::Start(est.get(), opts);
  ASSERT_TRUE(server.ok());

  const Query probe = fx.MakeWorkload(1, 1).front().query;
  std::atomic<int> shed{0};
  std::atomic<int> served{0};
  std::atomic<int> other{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  // Rounds of a concurrent burst against a capacity-1 queue until at
  // least one request is shed (practically the first round).
  while (shed.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        auto client = Dial(*server.value());
        if (!client.ok()) return;
        for (int i = 0; i < 25; ++i) {
          auto r = client.value()->Estimate(probe);
          if (r.ok()) {
            served.fetch_add(1);
          } else if (r.status().message().find("RESOURCE_EXHAUSTED") !=
                     std::string::npos) {
            shed.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_GT(shed.load(), 0) << "no request was ever shed";
  EXPECT_GT(served.load(), 0) << "overload must not starve everything";
  EXPECT_EQ(other.load(), 0);
  // The server survived the storm.
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
}

// A request whose deadline lapses while it waits for its batch is
// answered DEADLINE_EXCEEDED instead of computed: A's leader stalls
// 200ms before dispatching, B queues behind it, and both 20ms budgets
// have lapsed by the time their batches' triage runs.
TEST(ServerDeadline, QueuedPastBudgetAnswersDeadlineExceeded) {
  Fixture fx;
  auto est = fx.MakeTrained();
  EstimatorServer::Options opts = QuietOptions();
  opts.request_deadline_ms = 20;
  auto server = EstimatorServer::Start(est.get(), opts);
  ASSERT_TRUE(server.ok());
  auto a = Dial(*server.value());
  auto b = Dial(*server.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Query probe = fx.MakeWorkload(1, 1).front().query;
  FaultGuard guard;
  const uint64_t fires = StallNextBatch();
  std::string a_outcome;
  std::thread first([&] {
    auto r = a.value()->Estimate(probe);
    a_outcome = r.ok() ? "OK" : r.status().message();
  });
  const bool stalled = AwaitStall(fires);
  auto r = b.value()->Estimate(probe);
  first.join();
  ASSERT_TRUE(stalled) << "server.batch_stall never fired";
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("DEADLINE_EXCEEDED"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(a_outcome.find("DEADLINE_EXCEEDED"), std::string::npos)
      << a_outcome;
}

TEST(ServerMalformed, BadMagicGetsErrorThenClose) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  const std::string h = RawHeader(0xDEADBEEF, kProtoVersion,
                                  static_cast<uint8_t>(FrameType::kPing), 0);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  // The stream lost frame alignment: the server closes after answering.
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
}

TEST(ServerMalformed, OversizedPayloadRejected) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  const std::string h =
      RawHeader(kProtoMagic, kProtoVersion,
                static_cast<uint8_t>(FrameType::kEstimate),
                kMaxFramePayload + 1);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  ::close(fd);
}

TEST(ServerMalformed, UnknownFrameTypeRejected) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  const std::string h = RawHeader(kProtoMagic, kProtoVersion, 99, 0);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  ::close(fd);
}

TEST(ServerMalformed, TruncatedFrameCostsOnlyThatConnection) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  // Half a header, then hang up mid-frame.
  const int fd = DialRaw(server.value()->port());
  const std::string h = RawHeader(
      kProtoMagic, kProtoVersion,
      static_cast<uint8_t>(FrameType::kEstimate), 64);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  ::close(fd);  // payload never arrives
  // The server is unharmed: a fresh client round-trips.
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
}

// Malformed query parameters (inverted box interval) must be rejected
// at the wire edge with INVALID_ARGUMENT — the geometry constructors
// would abort on them.
TEST(ServerMalformed, InvertedBoxIntervalRejectedAtEdge) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  Frame request;
  request.type = FrameType::kEstimate;
  PutU8(&request.payload, 1);   // box tag
  PutU16(&request.payload, 2);  // dim
  PutF64(&request.payload, 0.9);  // lo[0] > hi[0]: inverted
  PutF64(&request.payload, 0.2);  // lo[1]
  PutF64(&request.payload, 0.1);  // hi[0]
  PutF64(&request.payload, 0.8);  // hi[1]
  ASSERT_TRUE(WriteFrame(fd, request).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  // A frame-aligned reject keeps the connection usable.
  Frame ping;
  ping.type = FrameType::kPing;
  ASSERT_TRUE(WriteFrame(fd, ping).ok());
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kPong);
  ::close(fd);
}

// A batch count the payload cannot hold is refused before the reader
// reserves anything for it: a 16-byte frame claiming 65536 queries must
// not cost ~3.7 MB. The reject is frame-aligned, so the connection goes
// on serving.
TEST(ServerMalformed, BatchCountBeyondPayloadRejected) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  Frame request;
  request.type = FrameType::kEstimateBatch;
  PutU32(&request.payload, kMaxBatchQueries);
  ASSERT_EQ(EncodeFrame(request).size(), 16u);
  ASSERT_TRUE(WriteFrame(fd, request).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  EXPECT_EQ(reply.payload, "bad batch count");

  Frame estimate;
  estimate.type = FrameType::kEstimate;
  ASSERT_TRUE(
      EncodeQuery(Query(Box({0.1, 0.1}, {0.6, 0.7})), &estimate.payload)
          .ok());
  ASSERT_TRUE(WriteFrame(fd, estimate).ok());
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kEstimateResponse);
  EXPECT_EQ(reply.payload.size(), sizeof(double));
  ::close(fd);
}

TEST(ServerMalformed, DimensionMismatchRejected) {
  Fixture fx;
  auto est = fx.MakeTrained();  // 2-dim model
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  const Query q3(Box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}));
  auto r = client.value()->Estimate(q3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The client holds responses to the standard the server holds requests
// to: bytes past the last result mean the peer is not speaking this
// protocol, so the call fails Internal and the connection is dropped.
TEST(ClientMalformed, TrailingResponseBytesAreInternalAndClose) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);
  const Query q(Box({0.1, 0.1}, {0.6, 0.7}));

  // Each case connects first (the handshake completes in the backlog),
  // then one peer thread accepts, reads the request, and answers it
  // with a well-framed response carrying 8 extra bytes.
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "EstimateBatch" : "Estimate");
    auto client = EstimatorClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    std::thread peer([listener, batch] {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) return;
      Frame request;
      if (ReadFrame(fd, &request).ok()) {
        Frame response;
        response.type = batch ? FrameType::kEstimateBatchResponse
                              : FrameType::kEstimateResponse;
        if (batch) PutU32(&response.payload, 1);
        PutF64(&response.payload, 0.5);
        PutU64(&response.payload, 0);  // trailing
        (void)WriteFrame(fd, response);
      }
      ::close(fd);
    });
    const Status st = batch ? client.value()->EstimateBatch({q}).status()
                            : client.value()->Estimate(q).status();
    peer.join();
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    EXPECT_EQ(st.message(), "trailing bytes in response");
    EXPECT_FALSE(client.value()->connected());
  }
  ::close(listener);
}

// An injected read/write/accept failure costs one connection, never the
// server: a fresh client still round-trips after the blast.
TEST(ServerFaults, InjectedNetReadFailureSurvives) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  FaultGuard guard;
  {
    auto client = Dial(*server.value());
    ASSERT_TRUE(client.ok());
    FaultRegistry::Global().Arm("net.read", FaultRegistry::kEveryHit);
    const Query probe = fx.MakeWorkload(1, 1).front().query;
    // Either side's read may fire first; the call must fail, not hang.
    EXPECT_FALSE(client.value()->Estimate(probe).ok());
    FaultRegistry::Global().DisarmAll();
  }
  auto fresh = Dial(*server.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

TEST(ServerFaults, InjectedNetWriteFailureSurvives) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  FaultGuard guard;
  {
    auto client = Dial(*server.value());
    ASSERT_TRUE(client.ok());
    FaultRegistry::Global().Arm("net.write", FaultRegistry::kEveryHit);
    const Query probe = fx.MakeWorkload(1, 1).front().query;
    EXPECT_FALSE(client.value()->Estimate(probe).ok());
    FaultRegistry::Global().DisarmAll();
  }
  auto fresh = Dial(*server.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

TEST(ServerFaults, InjectedAcceptFailureDropsOneConnection) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  FaultGuard guard;
  FaultRegistry::Global().Arm("net.accept", 1);  // first accept only
  {
    // The TCP handshake completes in the kernel, so Connect succeeds;
    // the injected fault closes the connection server-side and the
    // first call fails.
    auto doomed = Dial(*server.value());
    if (doomed.ok()) EXPECT_FALSE(doomed.value()->Ping().ok());
  }
  auto fresh = Dial(*server.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

// Graceful drain: a request admitted before Shutdown is answered, bit
// for bit, even when Shutdown lands while its batch's leader is stalled
// — the client never sees a hang or a dropped connection.
TEST(ServerShutdown, DrainAnswersInFlightRequests) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());

  const Query probe = fx.MakeWorkload(1, 1).front().query;
  FaultGuard guard;
  const uint64_t fires = StallNextBatch();
  bool answered = false;
  double remote = 0.0;
  std::thread requester([&] {
    auto r = client.value()->Estimate(probe);
    answered = r.ok();
    if (r.ok()) remote = r.value();
  });
  // Drain underneath the admitted, stalled request.
  const bool stalled = AwaitStall(fires);
  server.value()->Shutdown();
  requester.join();
  EXPECT_TRUE(stalled) << "server.batch_stall never fired";
  ASSERT_TRUE(answered);
  double direct = 0.0;
  plan->EstimateMany(&probe, 1, &direct);
  EXPECT_EQ(std::memcmp(&remote, &direct, sizeof(double)), 0);
}

TEST(ServerShutdown, NewConnectionsFailAfterShutdown) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int port = server.value()->port();
  server.value()->Shutdown();
  auto client = EstimatorClient::Connect("127.0.0.1", port, 1000);
  if (client.ok()) {
    // A racing TCP handshake may still succeed against a dying listener
    // backlog; the round trip must fail regardless.
    EXPECT_FALSE(client.value()->Ping().ok());
  }
}

// Child body of the fd-exhaustion test: exit code 0 iff the acceptor
// rode out EMFILE and kept serving.
int ServeThroughFdExhaustion() {
  SetMetricsEnabled(true);
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  if (!server.ok()) return 1;
  // Made before fds run out: connect() needs no new fd, but the
  // acceptor's accept() does.
  const int waiting = ::socket(AF_INET, SOCK_STREAM, 0);
  const timeval recv_timeout{5, 0};
  rlimit saved;
  if (waiting < 0 ||
      ::setsockopt(waiting, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
                   sizeof(recv_timeout)) != 0 ||
      ::getrlimit(RLIMIT_NOFILE, &saved) != 0) {
    return 2;
  }
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(waiting) + 1;
  if (::setrlimit(RLIMIT_NOFILE, &low) != 0) return 3;
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(waiting)) >= 0;) fillers.push_back(fd);
  if (errno != EMFILE) return 4;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.value()->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(waiting, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return 5;
  }
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (MetricsRegistry::Global().Snapshot().CounterValue(
             "server.net_errors_total") == 0) {
    if (std::chrono::steady_clock::now() > cap) return 6;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int fd : fillers) ::close(fd);
  if (::setrlimit(RLIMIT_NOFILE, &saved) != 0) return 7;
  // The connection that met EMFILE is accepted once fds free up, and a
  // new one is served too.
  Frame ping;
  ping.type = FrameType::kPing;
  Frame pong;
  if (!WriteFrame(waiting, ping).ok() || !ReadFrame(waiting, &pong).ok() ||
      pong.type != FrameType::kPong) {
    return 8;
  }
  auto fresh = Dial(*server.value());
  if (!fresh.ok() || !fresh.value()->Ping().ok()) return 9;
  ::close(waiting);
  server.value()->Shutdown();
  return 0;
}

// Transient accept() failures (here EMFILE: the process is out of fds)
// cost at most the connection that met them, never the acceptor. Runs
// in a death-test child so the lowered fd limit cannot leak into other
// tests.
TEST(ServerAcceptDeathTest, AcceptorSurvivesFdExhaustion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(::_exit(ServeThroughFdExhaustion()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace sel
