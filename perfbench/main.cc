// perfbench: the repository benchmark.
//
//   perfbench --workload <wire_single|wire_batch|feedback_drift>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Builds a deployment (dataset, kd-tree, ground truth, initial training,
// server bind) several times and reports the median as setup_s, checks
// that the served estimates are correct, then drives an EstimatorServer
// on loopback with the workload's traffic. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it times every layer from outside,
// around calls into that layer's public functions, and prints the
// per-layer metrics. The last stdout line is the JSON result; a failed
// correctness check makes it {"correct": false, ...} and the exit code 1.
//
// Inputs: the dataset, the initial training window and the feedback
// replay come from fixed seeds, so every seed sets up and retrains the
// same model (the PG weight solve's cost swings several-fold between
// training sets, which would drown set-up and retrain time in input
// noise). --seed draws everything the server is asked: query pools,
// arrival times, holdouts.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sel/sel.h"
#include "span_log.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sel::Box;
using sel::CountingKdTree;
using sel::Dataset;
using sel::EstimatorClient;
using sel::EstimatorServer;
using sel::LabeledQuery;
using sel::OnlineEstimator;
using sel::Query;
using sel::Workload;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Fixed configuration; perfbench/METRICS.md explains the choices.

constexpr size_t kRows = 200000;
constexpr uint64_t kDataSeed = 7001;
constexpr uint64_t kTrainSeed = 4242;
constexpr uint64_t kFeedbackSeed = 5151;
/// The shared pool's size. The 4 vCPUs also carry up to 4 client
/// threads and the server's reader and batcher threads; a 4-thread pool
/// oversubscribes them and adds scheduler waits to every tail.
constexpr int kPoolThreads = 2;
constexpr int kClientThreads = 4;
constexpr int kSetupRepeats = 3;
/// Retrain budget of the online estimator: a retrain that exceeds it is
/// rejected and the incumbent keeps serving (PtsHist's NNLS solve can
/// run for minutes on an unlucky bucket sample).
constexpr long kTrainDeadlineMs = 2000;
/// Latency limit on the p99 of single-query requests. It sits above the
/// host's own wake-up stalls (up to ~15 ms seen on a shared 4-vCPU VM) so
/// that the ladder finds the saturation knee rather than host noise.
constexpr double kLatencyLimitUs = 20000.0;
/// Offered-rate ladder (queries/s) of single-query Estimate frames.
const std::vector<double> kLadderQps = {5000,  10000, 12000, 13000,
                                        14000, 15000, 16000, 17000,
                                        18000, 19000, 20000, 22000};
constexpr int kLadderPasses = 5;
/// Latency percentiles are medians over windows of this many samples
/// (the fewest that leave ten beyond p99), at most kMaxLatencyWindows.
/// Host stalls on a shared VM hit some windows and spare others; short
/// windows keep the median among the spared ones.
constexpr size_t kWindowSamples = 1000;
constexpr size_t kMaxLatencyWindows = 200;
/// wire_single's open-loop rate for the est_* metrics.
constexpr double kNominalQps = 5000;
/// feedback_drift's open-loop estimate stream rate.
constexpr double kDriftStreamQps = 2500;
constexpr int kDriftSegments = 96;
constexpr size_t kBatchFrameQueries = 256;
constexpr int kBatchConnections = 2;
constexpr size_t kPoolQueries = 2048;
constexpr size_t kHoldoutQueries = 4096;

struct Band {
  const char* name;
  double lo, hi;  ///< exact-selectivity interval
};
const Band kBands[] = {{"sel_0.1pct", 0.0005, 0.002},
                       {"sel_1pct", 0.005, 0.02},
                       {"sel_10pct", 0.05, 0.2},
                       {"sel_50pct", 0.35, 0.65}};
constexpr size_t kBandQueries = 512;

struct WorkloadSpec {
  std::string name;
  std::vector<int> attrs;  ///< projection of the Power dataset
  std::string estimator;   ///< registry spec the server trains
  size_t window;           ///< window_capacity == retrain_interval
  double ladder_share;     ///< share of --seconds spent on the ladder
  int retrain_probes;      ///< retrains timed after serving (not drift)
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kSpecs[] = {
      {"wire_single", {0, 1}, "quadhist", 64, 0.6, 25},
      {"wire_batch", {0, 1, 2, 3}, "ptshist:solver=nnls", 400, 0.4, 3},
      {"feedback_drift", {0, 1}, "quadhist", 64, 0.4, 0},
  };
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Small helpers.

double NowUs(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Keeps every CPU busy at the lowest scheduling class while the
/// benchmark runs. On a virtual machine an idle vCPU halts, and waking it
/// again can take milliseconds when the host is busy (measured here: p99
/// sleep overshoot 2.8-6 ms idle, 0.4 ms with this poller), which would
/// drown a ~200 us round trip in host noise. SCHED_IDLE threads run only
/// when nothing else is runnable and are preempted on every wakeup, so
/// they take no time from the threads being measured. A CPU that refuses
/// SCHED_IDLE simply gets no poller.
class IdlePoller {
 public:
  explicit IdlePoller(unsigned threads) {
    for (unsigned i = 0; i < threads; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdlePoller() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // after stop_, which they read
};

/// Collects correctness failures; the first few are printed.
struct Gate {
  uint64_t violations = 0;
  std::mutex mu;
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (++violations <= 5) std::printf("CORRECTNESS: %s\n", what.c_str());
  }
};

/// The predicate text a client would send for `box`: one BETWEEN per
/// attribute, bounds printed with round-trip precision.
std::string PredicateText(const Box& box, const std::vector<std::string>& names) {
  std::string out;
  char buf[96];
  for (int j = 0; j < box.dim(); ++j) {
    std::snprintf(buf, sizeof buf, "%s%s BETWEEN %.17g AND %.17g",
                  j == 0 ? "" : " AND ", names[j].c_str(), box.lo(j),
                  box.hi(j));
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------
// Deployment: everything set-up builds, in set-up order.

struct Deployment {
  Dataset data;
  std::unique_ptr<CountingKdTree> index;
  std::vector<std::string> names;
  Workload window;  ///< the initial training window (fixed seed)
  std::unique_ptr<OnlineEstimator> est;
  std::unique_ptr<EstimatorServer> server;
  double gen_ms = 0, build_ms = 0, label_ms = 0, train_ms = 0, bind_ms = 0;
};

sel::WorkloadOptions DriftOptions(int segment, uint64_t seed) {
  sel::WorkloadOptions wo;
  wo.centers = sel::CenterDistribution::kGaussian;
  // Fig. 16's shift: the centre mean walks along the diagonal.
  wo.gaussian_mean = 0.15 + 0.3 * segment / kDriftSegments;
  wo.gaussian_stddev = 0.1;
  wo.max_width = 0.3;
  wo.seed = seed;
  return wo;
}

/// The initial window of wire_single / feedback_drift (wire_batch trains
/// on the selectivity bands it serves).
sel::WorkloadOptions InitialWindowOptions(const WorkloadSpec& spec) {
  if (spec.name == "feedback_drift") return DriftOptions(0, kTrainSeed);
  sel::WorkloadOptions wo;
  wo.seed = kTrainSeed;
  return wo;
}

/// Queries drawn in equal shares from the exact-selectivity bands:
/// data-centred boxes whose side scale walks towards each band.
std::vector<Workload> BandWorkloads(const Dataset& data,
                                    const CountingKdTree& index,
                                    uint64_t seed, size_t per_band) {
  std::vector<Workload> out;
  sel::Rng rng(seed);
  const int dim = data.dim();
  for (const Band& band : kBands) {
    Workload w;
    double scale = std::pow(std::sqrt(band.lo * band.hi), 1.0 / dim);
    size_t attempts = 0;
    while (w.size() < per_band) {
      SEL_CHECK_MSG(++attempts < per_band * 200, "band %s unreachable",
                    band.name);
      const sel::Point& row =
          data.rows()[rng.UniformInt(data.num_rows())];
      sel::Point widths(dim);
      for (int j = 0; j < dim; ++j) widths[j] = scale * rng.Uniform(0.6, 1.4);
      Box box = Box::FromCenterAndWidths(row, widths, data.Domain());
      const double sel = index.Selectivity(box);
      if (sel < band.lo) {
        scale = std::min(1.0, scale * 1.05);
      } else if (sel > band.hi) {
        scale /= 1.05;
      } else {
        w.push_back(LabeledQuery{Query(std::move(box)), sel});
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

/// Round-robin merge of the bands, so any slice of the result (such as
/// the online gate's most recent holdout) mixes every band.
Workload Interleave(const std::vector<Workload>& bands) {
  Workload out;
  for (size_t i = 0; out.size() < bands.size() * bands[0].size(); ++i) {
    for (const Workload& b : bands) out.push_back(b[i]);
  }
  return out;
}

std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec, SpanLog* log) {
  auto d = std::make_unique<Deployment>();
  auto t = Clock::now();
  {
    SpanLog::Scope span(log, "data.gen");
    auto full = sel::MakeDatasetByName("power", kRows, kDataSeed);
    SEL_CHECK_MSG(full.ok(), "%s", full.status().ToString().c_str());
    d->data = full.value().Project(spec.attrs);
  }
  d->gen_ms = SecondsSince(t) * 1e3;
  for (int j = 0; j < d->data.dim(); ++j) {
    d->names.push_back(d->data.attribute(j).name);
  }
  t = Clock::now();
  {
    SpanLog::Scope span(log, "index.build");
    d->index = std::make_unique<CountingKdTree>(d->data.rows());
  }
  d->build_ms = SecondsSince(t) * 1e3;
  t = Clock::now();
  {
    SpanLog::Scope span(log, "index.label");
    if (spec.name == "wire_batch") {
      d->window = Interleave(BandWorkloads(d->data, *d->index, kTrainSeed,
                                           spec.window / std::size(kBands)));
    } else {
      sel::WorkloadGenerator gen(&d->data, d->index.get(),
                                 InitialWindowOptions(spec));
      d->window = gen.Generate(spec.window);
    }
  }
  d->label_ms = SecondsSince(t) * 1e3;
  t = Clock::now();
  {
    // The window fills exactly once, so its last record triggers the
    // one initial retrain (build + train + compile + publish).
    SpanLog::Scope span(log, "online.initial_train");
    sel::OnlineOptions oo;
    oo.estimator = spec.estimator;
    oo.retrain_interval = spec.window;
    oo.window_capacity = spec.window;
    oo.train_deadline_ms = kTrainDeadlineMs;
    auto est = OnlineEstimator::Create(d->data.dim(), oo);
    SEL_CHECK_MSG(est.ok(), "%s", est.status().ToString().c_str());
    d->est = std::move(est).value();
    for (const LabeledQuery& z : d->window) {
      SEL_CHECK(d->est->Feedback(z.query, z.selectivity).ok());
    }
    SEL_CHECK_MSG(d->est->retrain_count() == 1 && d->est->serving_plan(),
                  "initial training did not publish a plan: %s",
                  d->est->last_error().ToString().c_str());
  }
  d->train_ms = SecondsSince(t) * 1e3;
  t = Clock::now();
  {
    SpanLog::Scope span(log, "server.bind");
    EstimatorServer::Options so;  // defaults: port 0, 100 us window
    auto server = EstimatorServer::Start(d->est.get(), so);
    SEL_CHECK_MSG(server.ok(), "%s", server.status().ToString().c_str());
    d->server = std::move(server).value();
  }
  d->bind_ms = SecondsSince(t) * 1e3;
  return d;
}

/// Labeled, seed-drawn query pool with its predicate texts.
struct QueryPool {
  Workload queries;
  std::vector<std::string> texts;
  std::vector<double> expected;  ///< in-process plan estimates
};

void FinishPool(const Deployment& d, QueryPool* pool) {
  for (const LabeledQuery& z : pool->queries) {
    pool->texts.push_back(PredicateText(z.query.box(), d.names));
  }
  pool->expected =
      d.est->serving_plan()->EstimateMany(sel::QueriesOf(pool->queries));
}

QueryPool ServedPool(const WorkloadSpec& spec, const Deployment& d,
                     uint64_t seed) {
  QueryPool pool;
  if (spec.name == "wire_batch") {
    pool.queries = Interleave(BandWorkloads(d.data, *d.index, seed,
                                            kBandQueries));
  } else {
    sel::WorkloadOptions wo = spec.name == "feedback_drift"
                                  ? DriftOptions(kDriftSegments / 2, seed)
                                  : sel::WorkloadOptions{};
    wo.seed = seed;
    sel::WorkloadGenerator gen(&d.data, d.index.get(), wo);
    pool.queries = gen.Generate(kPoolQueries);
  }
  FinishPool(d, &pool);
  return pool;
}

// ---------------------------------------------------------------------
// Correctness gate.

std::unique_ptr<EstimatorClient> Connect(const Deployment& d) {
  auto c = EstimatorClient::Connect("127.0.0.1", d.server->port(), 10000);
  SEL_CHECK_MSG(c.ok(), "%s", c.status().ToString().c_str());
  return std::move(c).value();
}

/// Serves `pool` over the wire as EstimateBatch frames and checks each
/// value bit for bit against CompiledPlan::EstimateMany on the serving
/// plan, plus the [0,1] range. Returns the wire values.
std::vector<double> GateWire(const Deployment& d, const Workload& pool,
                             Gate* gate, Tally* tally) {
  auto client = Connect(d);
  const std::vector<Query> queries = sel::QueriesOf(pool);
  const std::vector<double> in_process =
      d.est->serving_plan()->EstimateMany(queries);
  std::vector<double> wire;
  for (size_t at = 0; at < queries.size(); at += kBatchFrameQueries) {
    const size_t end = std::min(queries.size(), at + kBatchFrameQueries);
    std::vector<Query> frame(queries.begin() + at, queries.begin() + end);
    auto r = client->EstimateBatch(frame);
    tally->Add(r.ok());
    if (!r.ok() || r.value().size() != frame.size()) {
      gate->Fail("gate EstimateBatch failed: " + r.status().ToString());
      wire.insert(wire.end(), frame.size(), -1.0);
      continue;
    }
    wire.insert(wire.end(), r.value().begin(), r.value().end());
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!SameBits(wire[i], in_process[i])) {
      gate->Fail("wire estimate differs from EstimateMany at query " +
                 std::to_string(i));
    }
    if (!(wire[i] >= 0.0 && wire[i] <= 1.0)) {
      gate->Fail("estimate outside [0,1] at query " + std::to_string(i));
    }
  }
  return wire;
}

/// Every predicate text must parse back to exactly the generated box.
void GateParser(const Deployment& d, const QueryPool& pool, Gate* gate) {
  sel::PredicateParser parser(d.names);
  for (size_t i = 0; i < pool.texts.size(); ++i) {
    auto q = parser.Parse(pool.texts[i]);
    if (!q.ok() || q.value().type() != sel::QueryType::kBox ||
        !(q.value().box() == pool.queries[i].query.box())) {
      gate->Fail("parsed predicate does not reproduce query " +
                 std::to_string(i) + ": " + pool.texts[i]);
    }
  }
}

/// The library's §4 error measures of served estimates against exact
/// truth, q-error floored at one-tuple resolution.
sel::ErrorReport ErrorsOf(const std::vector<double>& estimates,
                          const Workload& truth) {
  std::vector<double> truths;
  for (const LabeledQuery& z : truth) truths.push_back(z.selectivity);
  return sel::ComputeErrors(estimates, truths, 1.0 / kRows);
}

// ---------------------------------------------------------------------
// Load generators.

/// Single-query Estimate frames on an open-loop Poisson schedule, sent
/// by kClientThreads client threads that each take the next due request.
/// Each request parses its predicate text client-side, then calls
/// EstimatorClient::Estimate. When `expected` is non-empty every answer
/// is compared bit for bit; otherwise only the [0,1] range is checked.
struct OpenLoopRun {
  std::vector<OpenLoopSample> samples;  ///< in due order
};

OpenLoopRun RunOpenLoop(const Deployment& d, const QueryPool& pool,
                        double rate_qps, double seconds, uint64_t seed,
                        int threads, const std::atomic<bool>* stop,
                        Gate* gate, SpanLog* log,
                        std::atomic<uint64_t>* request_ids) {
  sel::Rng rng(seed);
  std::vector<double> due;
  std::vector<uint32_t> which;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate_qps * 1e6;
    if (t > seconds * 1e6) break;
    due.push_back(t);
    which.push_back(static_cast<uint32_t>(rng.UniformInt(pool.texts.size())));
  }
  OpenLoopRun run;
  run.samples.resize(due.size());
  std::vector<char> attempted(due.size(), 0);
  std::atomic<size_t> next{0};
  const sel::PredicateParser parser(d.names);
  // The schedule starts once every client is connected, so connection
  // set-up never shows as generator lag.
  std::atomic<int> connected{0};
  std::atomic<bool> go{false};
  Clock::time_point origin;
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // precise sleeps
      auto client = Connect(d);
      connected.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= due.size()) return;
        OpenLoopSample& s = run.samples[i];
        s.due_us = due[i];
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(due[i])));
        if (stop != nullptr && stop->load(std::memory_order_acquire)) return;
        attempted[i] = 1;
        const uint64_t id = request_ids->fetch_add(1);
        SpanLog::Scope request(log, "request", id);
        s.sent_us = NowUs(origin);
        const uint32_t q = which[i];
        sel::Result<Query> parsed = sel::Status::Internal("unparsed");
        {
          SpanLog::Scope span(log, "parser.parse", id);
          parsed = parser.Parse(pool.texts[q]);
        }
        if (!parsed.ok() ||
            !(parsed.value().box() == pool.queries[q].query.box())) {
          gate->Fail("parse mismatch on " + pool.texts[q]);
          s.done_us = NowUs(origin);
          continue;
        }
        sel::Result<double> r = 0.0;
        {
          SpanLog::Scope span(log, "client.estimate", id);
          if (!client->connected()) client = Connect(d);
          r = client->Estimate(parsed.value());
        }
        s.done_us = NowUs(origin);
        s.ok = r.ok();
        if (!r.ok()) continue;
        if (!pool.expected.empty() && !SameBits(r.value(), pool.expected[q])) {
          gate->Fail("served estimate differs from the in-process plan");
        }
        if (!(r.value() >= 0.0 && r.value() <= 1.0)) {
          gate->Fail("served estimate outside [0,1]");
        }
      }
    });
  }
  while (connected.load() < threads) std::this_thread::yield();
  origin = Clock::now() + std::chrono::milliseconds(1);
  go.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  // Requests due after `stop` were never attempted: drop them.
  size_t kept = 0;
  for (size_t i = 0; i < due.size(); ++i) {
    if (attempted[i]) run.samples[kept++] = run.samples[i];
  }
  run.samples.resize(kept);
  return run;
}

/// Closed-loop EstimateBatch frames from kBatchConnections connections.
struct ClosedLoopRun {
  /// (start, latency) of each frame in us; failed frames as +inf.
  std::vector<std::pair<double, double>> frames;
  uint64_t queries = 0;
  double seconds = 0;
  Tally tally;
};

ClosedLoopRun RunClosedLoop(const Deployment& d, const QueryPool& pool,
                            double seconds, uint64_t seed, Gate* gate,
                            SpanLog* log, std::atomic<uint64_t>* request_ids) {
  // Frames are seed-drawn mixes of the band pool.
  sel::Rng rng(seed);
  std::vector<std::vector<uint32_t>> frames(64);
  for (auto& f : frames) {
    for (size_t i = 0; i < kBatchFrameQueries; ++i) {
      f.push_back(static_cast<uint32_t>(rng.UniformInt(pool.queries.size())));
    }
  }
  std::vector<ClosedLoopRun> per(kBatchConnections);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (int c = 0; c < kBatchConnections; ++c) {
    workers.emplace_back([&, c] {
      auto client = Connect(d);
      ClosedLoopRun& mine = per[c];
      std::vector<Query> frame;
      for (size_t k = static_cast<size_t>(c) * 17; Clock::now() < end; ++k) {
        const auto& idx = frames[k % frames.size()];
        frame.clear();
        for (uint32_t q : idx) frame.push_back(pool.queries[q].query);
        const uint64_t id = request_ids->fetch_add(1);
        SpanLog::Scope request(log, "request", id);
        const auto t0 = Clock::now();
        sel::Result<std::vector<double>> r = std::vector<double>{};
        {
          SpanLog::Scope span(log, "client.estimate_batch", id);
          if (!client->connected()) client = Connect(d);
          r = client->EstimateBatch(frame);
        }
        const double us = SecondsSince(t0) * 1e6;
        const bool ok = r.ok() && r.value().size() == frame.size();
        mine.tally.Add(ok);
        mine.frames.emplace_back(
            std::chrono::duration<double, std::micro>(t0 - start).count(),
            ok ? us : INFINITY);
        if (!ok) continue;
        mine.queries += frame.size();
        for (size_t i = 0; i < idx.size(); ++i) {
          if (!SameBits(r.value()[i], pool.expected[idx[i]])) {
            gate->Fail("served batch estimate differs from the plan");
            break;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  ClosedLoopRun out;
  out.seconds = SecondsSince(start);
  for (const ClosedLoopRun& p : per) {
    out.frames.insert(out.frames.end(), p.frames.begin(), p.frames.end());
    out.queries += p.queries;
    out.tally.Merge(p.tally);
  }
  return out;
}

/// Replays `records` as Feedback round trips on one connection and
/// returns the wall time of each round trip that ran a retrain (the
/// server retrains inline, so that round trip spans retrain + gate +
/// publish or reject).
std::vector<double> ReplayFeedback(const Deployment& d, const Workload& records,
                                   Tally* tally, SpanLog* log,
                                   std::atomic<uint64_t>* request_ids) {
  auto client = Connect(d);
  std::vector<double> retrain_s;
  for (const LabeledQuery& z : records) {
    const size_t before =
        d.est->retrain_count() + d.est->failed_retrain_count();
    const uint64_t id = request_ids->fetch_add(1);
    const auto t0 = Clock::now();
    sel::Status st;
    {
      SpanLog::Scope span(log, "client.feedback", id);
      if (!client->connected()) client = Connect(d);
      st = client->Feedback(z.query, z.selectivity);
    }
    const double s = SecondsSince(t0);
    tally->Add(st.ok());
    if (d.est->retrain_count() + d.est->failed_retrain_count() != before) {
      retrain_s.push_back(s);
    }
  }
  return retrain_s;
}

/// The fixed feedback replay of feedback_drift: one window per segment,
/// the centre mean moving along the diagonal segment by segment.
Workload DriftFeedback(const Deployment& d, const WorkloadSpec& spec) {
  Workload out;
  for (int seg = 1; seg <= kDriftSegments; ++seg) {
    sel::WorkloadGenerator gen(&d.data, d.index.get(),
                               DriftOptions(seg, kFeedbackSeed + seg));
    for (LabeledQuery& z : gen.Generate(spec.window)) {
      out.push_back(std::move(z));
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintPhase(const std::string& phase, const Tally& t) {
  std::printf("phase %-28s sent=%" PRIu64 " succeeded=%" PRIu64
              " failed=%" PRIu64 "\n",
              phase.c_str(), t.sent, t.succeeded, t.failed);
}

void PrintRung(const RungResult& r) {
  std::printf("  rung %7.0f qps: n=%zu p50=%.1fus p%.4g=%.1fus "
              "lag_p99=%.1fus backlog=%s sent=%" PRIu64 " failed=%" PRIu64
              "\n",
              r.rate_qps, r.samples, r.p50_us, r.tail_pct, r.tail_us,
              r.lag_p99_us, r.backlog_growing ? "growing" : "no", r.tally.sent,
              r.tally.failed);
}

// ---------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Everything one run measures, shared by the untraced and traced modes.
struct Run {
  const WorkloadSpec* spec = nullptr;
  Args args;
  Gate gate;
  Tally total;
  std::atomic<uint64_t> request_ids{1};
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Client-observed latency of one phase of estimate traffic, as medians
/// over consecutive windows (see Windowed in stats.h).
struct ServeResult {
  WindowedLatency latency;
  double qps = 0;
  double lag_p99_us = 0;  ///< open loop only
  double mean_us = 0;     ///< mean charged latency of the successes
  Tally tally;
};

size_t WindowsFor(size_t samples) {
  return std::clamp<size_t>(samples / kWindowSamples, 1, kMaxLatencyWindows);
}

ServeResult FromOpenLoop(const std::vector<OpenLoopSample>& samples) {
  ServeResult out;
  std::vector<double> lat, lag;
  double last_done = 0, sum = 0;
  for (const OpenLoopSample& s : samples) {
    out.tally.Add(s.ok);
    lat.push_back(ChargedLatencyUs(s));
    lag.push_back(LagUs(s));
    last_done = std::max(last_done, s.done_us);
    if (s.ok) sum += ChargedLatencyUs(s);
  }
  out.latency = Windowed(lat, WindowsFor(lat.size()));
  out.lag_p99_us = Percentile(lag, std::min(99.0, TailPercentileFor(lag.size())));
  if (last_done > 0) out.qps = out.tally.succeeded / (last_done * 1e-6);
  if (out.tally.succeeded > 0) out.mean_us = sum / out.tally.succeeded;
  return out;
}

ServeResult FromClosedLoop(const ClosedLoopRun& cl) {
  ServeResult out;
  std::vector<std::pair<double, double>> by_start = cl.frames;
  std::sort(by_start.begin(), by_start.end());
  std::vector<double> lat;
  double sum = 0;
  for (const auto& [start, us] : by_start) {
    lat.push_back(us);
    if (std::isfinite(us)) sum += us;
  }
  out.latency = Windowed(lat, WindowsFor(lat.size()));
  // Throughput as the median over the same windows: queries answered in
  // the window over the time from its first send to its last answer.
  std::vector<double> rates;
  const size_t windows = out.latency.windows;
  const size_t per = by_start.size() / windows;
  for (size_t w = 0; w < windows && per > 0; ++w) {
    const size_t begin = w * per;
    const size_t end = w + 1 == windows ? by_start.size() : begin + per;
    double last = 0, answered = 0;
    for (size_t i = begin; i < end; ++i) {
      if (!std::isfinite(by_start[i].second)) continue;
      last = std::max(last, by_start[i].first + by_start[i].second);
      answered += kBatchFrameQueries;
    }
    const double span_us = last - by_start[begin].first;
    if (span_us > 0) rates.push_back(answered / (span_us * 1e-6));
  }
  out.qps = rates.empty() ? cl.queries / cl.seconds : Median(rates);
  if (cl.tally.succeeded > 0) out.mean_us = sum / cl.tally.succeeded;
  out.tally = cl.tally;
  return out;
}

/// Runs kLadderPasses passes over the single-frame offered-rate ladder,
/// each stopping once past the knee. Returns the median over passes of
/// each pass's max_rate.
double RunLadder(Run& run, const Deployment& d, const QueryPool& pool,
                 double seconds) {
  const double per_rung = seconds / (kLadderPasses * kLadderQps.size());
  std::vector<double> max_rates;
  Tally ladder_tally;
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    std::vector<RungResult> ladder;
    for (size_t r = 0; r < kLadderQps.size(); ++r) {
      const OpenLoopRun ol =
          RunOpenLoop(d, pool, kLadderQps[r], per_rung,
                      run.args.seed * 1000 + pass * 100 + r, kClientThreads,
                      nullptr, &run.gate, nullptr, &run.request_ids);
      ladder.push_back(
          SummarizeRung(kLadderQps[r], ol.samples, kLatencyLimitUs));
      PrintRung(ladder.back());
      ladder_tally.Merge(ladder.back().tally);
      if (LadderExhausted(ladder, kLatencyLimitUs)) break;
    }
    max_rates.push_back(MaxRateMeetingLimit(ladder, kLatencyLimitUs));
    std::printf("ladder pass %d: max_rate %.0f qps\n", pass,
                max_rates.back());
  }
  run.total.Merge(ladder_tally);
  PrintPhase("ladder", ladder_tally);
  return Median(max_rates);
}

/// The workload's estimate traffic alone for `seconds`: the closed batch
/// loop on wire_batch, the open loop at the workload's nominal rate on
/// the others.
ServeResult Serve(Run& run, const Deployment& d, const QueryPool& pool,
                  double seconds, SpanLog* log) {
  ServeResult out;
  if (run.spec->name == "wire_batch") {
    out = FromClosedLoop(RunClosedLoop(d, pool, seconds, run.args.seed,
                                       &run.gate, log, &run.request_ids));
  } else {
    const double rate = run.spec->name == "wire_single" ? kNominalQps
                                                        : kDriftStreamQps;
    out = FromOpenLoop(RunOpenLoop(d, pool, rate, seconds, run.args.seed + 31,
                                   kClientThreads, nullptr, &run.gate, log,
                                   &run.request_ids)
                           .samples);
  }
  run.total.Merge(out.tally);
  return out;
}

/// Retrain probe of wire_single/wire_batch: replays the fixed initial
/// window `retrain_probes` times; each replay's last record crosses the
/// retrain interval and the server retrains inline.
std::vector<double> RetrainProbe(Run& run, const Deployment& d, SpanLog* log) {
  Workload probe;
  for (int k = 0; k < run.spec->retrain_probes; ++k) {
    probe.insert(probe.end(), d.window.begin(), d.window.end());
  }
  Tally tally;
  std::vector<double> retrain_s =
      ReplayFeedback(d, probe, &tally, log, &run.request_ids);
  PrintPhase("retrain_probe", tally);
  run.total.Merge(tally);
  return retrain_s;
}

struct DriftResult {
  ServeResult serve;
  std::vector<double> retrain_s;
  sel::ErrorReport qe;
};

/// feedback_drift's measured phase, writes beside reads: the fixed
/// feedback replay on one connection while an open-loop estimate stream
/// runs on the others; then the final published model is scored over
/// the wire on a seed-drawn post-drift holdout.
DriftResult RunDrift(Run& run, const Deployment& d, const QueryPool& pool,
                     SpanLog* log) {
  const Workload feedback = DriftFeedback(d, *run.spec);
  sel::WorkloadGenerator holdout_gen(
      &d.data, d.index.get(),
      DriftOptions(kDriftSegments, run.args.seed * 7919 + 1));
  const Workload holdout = holdout_gen.Generate(kHoldoutQueries);
  QueryPool stream = pool;
  stream.expected.clear();  // the model changes under the stream
  std::atomic<bool> stop{false};
  OpenLoopRun ol;
  std::thread estimates([&] {
    ol = RunOpenLoop(d, stream, kDriftStreamQps, 120.0, run.args.seed + 77,
                     kClientThreads - 1, &stop, &run.gate, log,
                     &run.request_ids);
  });
  DriftResult out;
  Tally fb_tally;
  const auto t0 = Clock::now();
  out.retrain_s = ReplayFeedback(d, feedback, &fb_tally, log, &run.request_ids);
  const double seconds = SecondsSince(t0);
  stop.store(true, std::memory_order_release);
  estimates.join();
  out.serve = FromOpenLoop(ol.samples);
  PrintPhase("drift_feedback", fb_tally);
  PrintPhase("drift_estimates", out.serve.tally);
  std::printf("drift: %.3fs, %zu retrains, accepted=%zu rejected=%zu\n",
              seconds, out.retrain_s.size(), d.est->publish_accepted_count(),
              d.est->publish_rejected_quality_count() +
                  d.est->publish_rejected_deadline_count());
  run.total.Merge(fb_tally);
  run.total.Merge(out.serve.tally);
  Tally holdout_tally;
  const std::vector<double> final_wire =
      GateWire(d, holdout, &run.gate, &holdout_tally);
  PrintPhase("holdout", holdout_tally);
  run.total.Merge(holdout_tally);
  out.qe = ErrorsOf(final_wire, holdout);
  return out;
}

struct SetupResult {
  std::unique_ptr<Deployment> d;
  double setup_s = 0;
};

SetupResult SetUpRepeatedly(const WorkloadSpec& spec, int repeats) {
  SetupResult out;
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    out.d.reset();  // shut the previous deployment down first
    const auto t0 = Clock::now();
    out.d = SetUp(spec, nullptr);
    times.push_back(SecondsSince(t0));
  }
  out.setup_s = Median(times);
  std::printf("setup_s samples:");
  for (double t : times) std::printf(" %.4f", t);
  std::printf(" (gen %.1fms kd %.1fms label %.1fms train %.1fms bind %.2fms)\n",
              out.d->gen_ms, out.d->build_ms, out.d->label_ms,
              out.d->train_ms, out.d->bind_ms);
  return out;
}

/// Serves the pool once over the wire for the correctness gate and the
/// q-error; returns the wire values.
std::vector<double> GatePool(Run& run, const Deployment& d,
                             const QueryPool& pool) {
  Tally tally;
  GateParser(d, pool, &run.gate);
  std::vector<double> wire = GateWire(d, pool.queries, &run.gate, &tally);
  PrintPhase("gate", tally);
  run.total.Merge(tally);
  return wire;
}

void PrintServe(const char* what, const ServeResult& r) {
  std::printf("%s: %zu samples in %zu windows, median p50=%.1fus "
              "p90=%.1fus p%.4g=%.1fus qps=%.1f lag_p99=%.1fus\n",
              what, r.latency.samples, r.latency.windows, r.latency.p50_us,
              r.latency.p90_us, r.latency.tail_pct, r.latency.tail_us, r.qps,
              r.lag_p99_us);
  const std::vector<double>& tails = r.latency.window_tails_us;
  if (!tails.empty()) {
    std::printf("  window p%.4g quartiles (us): %.0f %.0f %.0f, max %.0f\n",
                r.latency.tail_pct, Percentile(tails, 25),
                Percentile(tails, 50), Percentile(tails, 75),
                Percentile(tails, 100));
  }
}

void RunUntraced(Run& run) {
  const WorkloadSpec& spec = *run.spec;
  const double T = run.args.seconds;
  SetupResult setup = SetUpRepeatedly(spec, kSetupRepeats);
  const Deployment& d = *setup.d;
  run.Add("setup_s", setup.setup_s, "s");

  const QueryPool pool = ServedPool(spec, d, run.args.seed);
  const std::vector<double> wire = GatePool(run, d, pool);

  const double max_rate = RunLadder(run, d, pool, T * spec.ladder_share);

  std::vector<double> retrain_s;
  sel::ErrorReport qe = ErrorsOf(wire, pool.queries);
  ServeResult serve;
  if (spec.name == "feedback_drift") {
    DriftResult drift = RunDrift(run, d, pool, nullptr);
    serve = drift.serve;
    retrain_s = drift.retrain_s;
    qe = drift.qe;
  } else {
    serve = Serve(run, d, pool, T * (1 - spec.ladder_share), nullptr);
    PrintPhase("serve", serve.tally);
    retrain_s = RetrainProbe(run, d, nullptr);
  }
  PrintServe("est latency", serve);

  run.Add("est_p50_us", serve.latency.p50_us, "us");
  run.Add("est_p90_us", serve.latency.p90_us, "us");
  run.Add("est_qps", serve.qps, "1/s");
  run.Add("max_rate_qps", max_rate, "1/s");
  run.Add("ok_frac", 1.0 - run.total.FailFrac(), "ratio");
  run.Add("qerror_p50", qe.q50, "ratio");
  run.Add("qerror_p95", qe.q95, "ratio");
  run.Add("retrain_p50_s", retrain_s.empty() ? NAN : Median(retrain_s), "s");
  run.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("fail_frac: %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              run.total.FailFrac(), run.total.failed, run.total.sent);
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics.

/// Median over five blocks of the per-item time of `fn`, in ns. Each
/// block repeats the whole item set until it has run >= 5 ms.
double TimePerItemNs(size_t items, const std::function<void()>& fn) {
  if (items == 0) return 0;
  std::vector<double> blocks;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    size_t reps = 0;
    do {
      fn();
      ++reps;
    } while (SecondsSince(t0) < 0.005);
    blocks.push_back(SecondsSince(t0) * 1e9 / (reps * items));
  }
  return Median(blocks);
}

volatile double g_sink = 0;  // keeps timed results observable

double HistSum(const sel::MetricsSnapshot& snap, const std::string& name) {
  const sel::HistogramSnapshot* h = snap.FindHistogram(name);
  return h == nullptr ? 0.0 : h->sum;
}

double HistCount(const sel::MetricsSnapshot& snap, const std::string& name) {
  const sel::HistogramSnapshot* h = snap.FindHistogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->count);
}

double HistQuantile(const sel::MetricsSnapshot& snap, const std::string& name,
                    double p) {
  const sel::HistogramSnapshot* h = snap.FindHistogram(name);
  return h == nullptr ? 0.0 : h->Quantile(p);
}

/// Builds, trains and compiles the serving estimator from outside on the
/// exact inputs of the initial retrain (window minus the gate's holdout,
/// first retrain's seed), so its counts match the served model's.
void ReplayTraining(Run& run, const Deployment& d, SpanLog* log) {
  sel::OnlineOptions defaults;
  const size_t n = d.window.size();
  const size_t holdout =
      n >= defaults.gate_min_window
          ? std::max<size_t>(1, static_cast<size_t>(
                                    n * defaults.gate_holdout_fraction))
          : 0;
  const Workload train(d.window.begin(), d.window.end() - holdout);
  auto spec = sel::EstimatorSpec::Parse(run.spec->estimator);
  SEL_CHECK(spec.ok());
  spec.value().seed += 1;
  spec.value().seed_set = true;
  sel::MetricsRegistry::Global().Reset();
  std::unique_ptr<sel::SelectivityModel> model;
  {
    SpanLog::Scope span(log, "registry.build");
    auto m = sel::EstimatorRegistry::Build(spec.value(), d.data.dim(),
                                           train.size());
    SEL_CHECK_MSG(m.ok(), "%s", m.status().ToString().c_str());
    model = std::move(m).value();
  }
  {
    sel::ScopedDeadline budget(sel::Deadline::AfterMillis(kTrainDeadlineMs));
    SpanLog::Scope span(log, "model.train");
    SEL_CHECK(model->Train(train).ok());
  }
  const auto t0 = Clock::now();
  {
    SpanLog::Scope span(log, "model.compile");
    SEL_CHECK(model->Compile().ok());
  }
  const double compile_ms = SecondsSince(t0) * 1e3;
  const sel::MetricsSnapshot snap = sel::MetricsRegistry::Global().Snapshot();
  const sel::TrainStats& ts = model->train_stats();
  run.Add("train.assemble_ms", HistSum(snap, "train.assemble_us") / 1e3, "ms");
  run.Add("train.solve_ms", HistSum(snap, "train.solve_us") / 1e3, "ms");
  run.Add("train.compile_ms", compile_ms, "ms");
  run.Add("train.buckets", model->NumBuckets(), "count");
  run.Add("train.solver_iters", ts.solver_iterations, "count");
  run.Add("train.fallback_level", ts.fallback_level, "count");
  run.Add("solver.retries_total", snap.CounterValue("solver.retries_total"),
          "count");
}

/// Lays the plan's entries out coordinate-major (the SIMD kernels'
/// input form) and times one kernel pass over all of them per query.
double KernelNsPerEntry(const sel::CompiledPlan& plan,
                        const std::vector<Query>& queries, bool box,
                        SpanLog* log) {
  const size_t n = box ? plan.num_box_entries() : plan.num_point_entries();
  if (n == 0) return 0;
  const int dim = plan.dim();
  const size_t stride = sel::SimdPaddedCount(n);
  // Padding never intersects: lo=+2 > hi=-2 and zero weight.
  sel::AlignedVector lo(stride * dim, 2.0), hi(stride * dim, -2.0);
  sel::AlignedVector weight(stride, 0.0), inv_vol(stride, 0.0);
  for (size_t j = 0; j < n; ++j) {
    for (int c = 0; c < dim; ++c) {
      if (box) {
        lo[c * stride + j] = plan.box_lo()[j * dim + c];
        hi[c * stride + j] = plan.box_hi()[j * dim + c];
      } else {
        lo[c * stride + j] = plan.point_coord(j, c);
      }
    }
    weight[j] = box ? plan.box_weight()[j] : plan.point_weight()[j];
    if (box) inv_vol[j] = plan.box_inv_vol()[j];
  }
  SpanLog::Scope span(log, box ? "simd.box_leaf" : "simd.point_leaf");
  return TimePerItemNs(queries.size() * n, [&] {
    double sum = 0;
    for (const Query& q : queries) {
      const double* qlo = q.box().lo().data();
      const double* qhi = q.box().hi().data();
      sum += box ? sel::SimdBoxLeafSum(qlo, qhi, dim, lo.data(), hi.data(),
                                       weight.data(), inv_vol.data(), stride,
                                       0, n)
                 : sel::SimdPointLeafSum(qlo, qhi, dim, lo.data(),
                                         weight.data(), stride, 0, n);
    }
    g_sink = sum;
  });
}

/// EstimateOne/EstimateMany timings and pruning counts of `queries` on
/// the serving plan, named with `suffix`.
void ReplayPlan(Run& run, const sel::CompiledPlan& plan,
                const std::vector<Query>& queries, const std::string& suffix,
                SpanLog* log) {
  sel::PlanEvalStats stats;
  for (const Query& q : queries) g_sink = plan.EstimateOne(q, &stats);
  double one_ns, many_ns;
  {
    SpanLog::Scope span(log, "plan.estimate_one");
    one_ns = TimePerItemNs(queries.size(), [&] {
      double sum = 0;
      for (const Query& q : queries) sum += plan.EstimateOne(q);
      g_sink = sum;
    });
  }
  {
    SpanLog::Scope span(log, "plan.estimate_many");
    std::vector<double> out(queries.size());
    many_ns = TimePerItemNs(queries.size(), [&] {
      plan.EstimateMany(queries.data(), queries.size(), out.data());
      g_sink = out[0];
    });
  }
  run.Add("plan.one_ns_per_query" + suffix, one_ns, "ns");
  run.Add("plan.many_ns_per_query" + suffix, many_ns, "ns");
  run.Add("plan.entries_visited_per_query" + suffix,
          static_cast<double>(stats.entries_visited) / queries.size(),
          "count");
  run.Add("plan.prune_ratio" + suffix, stats.PruneRatio(), "ratio");
}

void RunTraced(Run& run) {
  const WorkloadSpec& spec = *run.spec;
  const double T = run.args.seconds;
  SpanLog log(true);
  sel::SetMetricsEnabled(true);

  std::unique_ptr<Deployment> owned = SetUp(spec, &log);
  const Deployment& d = *owned;
  const auto plan = d.est->serving_plan();
  const QueryPool pool = ServedPool(spec, d, run.args.seed);
  GatePool(run, d, pool);

  // data / index / workload.
  run.Add("data.gen_ms", d.gen_ms, "ms");
  run.Add("index.build_ms", d.build_ms, "ms");
  {
    const std::vector<Query> qs = sel::QueriesOf(pool.queries);
    const auto t0 = Clock::now();
    SpanLog::Scope span(&log, "index.label_queries");
    const Workload labeled = sel::LabelQueries(qs, *d.index);
    run.Add("index.label_us_per_query", SecondsSince(t0) * 1e6 / qs.size(),
            "us");
  }

  // core + solver, replayed from outside.
  ReplayTraining(run, d, &log);

  // Serving: the same phase untraced (metrics off, no spans) and traced;
  // the difference in p50 is the tracing overhead.
  sel::SetMetricsEnabled(false);
  const ServeResult plain = Serve(run, d, pool, T * 0.3, nullptr);
  PrintServe("untraced", plain);
  sel::MetricsRegistry::Global().Reset();
  sel::SetMetricsEnabled(true);
  const ServeResult traced = Serve(run, d, pool, T * 0.3, &log);
  PrintServe("traced", traced);
  const sel::MetricsSnapshot serve_snap =
      sel::MetricsRegistry::Global().Snapshot();
  const std::map<std::string, double> self_us = log.SelfTimeUs();
  const double requests = traced.tally.sent;
  const double batches = HistCount(serve_snap, "server.batch_size");

  // Per-request time account. Client side from the spans; server side
  // from the server's own histograms (request = enqueue..answer; plan =
  // the EstimateMany call of the batch the request rode in).
  auto per_request = [&](const char* name) {
    auto it = self_us.find(name);
    return it == self_us.end() || requests == 0 ? 0.0 : it->second / requests;
  };
  const double total_us = traced.mean_us;
  const double parse_us = per_request("parser.parse");
  const double client_us = per_request("client.estimate") +
                           per_request("client.estimate_batch");
  const double server_us = HistSum(serve_snap, "server.request_us") /
                           std::max(1.0, HistCount(serve_snap,
                                                   "server.request_us"));
  const double plan_us =
      HistSum(serve_snap, "serve.plan.batch_us") / std::max(1.0, batches);
  const double loadgen_us = total_us - client_us - parse_us;
  auto share = [&](double us) { return total_us > 0 ? us / total_us : 0.0; };
  std::printf("time account per request (us): total %.1f = loadgen %.1f + "
              "parse %.2f + wire %.1f + server %.1f + plan %.1f\n",
              total_us, loadgen_us, parse_us, client_us - server_us,
              server_us - plan_us, plan_us);

  // parser
  {
    sel::PredicateParser parser(d.names);
    uint64_t failures = 0;
    for (size_t i = 0; i < pool.texts.size(); ++i) {
      auto q = parser.Parse(pool.texts[i]);
      if (!q.ok() || !(q.value().box() == pool.queries[i].query.box())) {
        ++failures;
      }
    }
    SpanLog::Scope span(&log, "replay.parser");
    run.Add("parser.parse_ns", TimePerItemNs(pool.texts.size(), [&] {
              for (const std::string& t : pool.texts) {
                g_sink = parser.Parse(t).ok();
              }
            }),
            "ns");
    run.Add("parser.fail_total", failures, "count");
  }

  // server: proto, client, batcher.
  {
    std::vector<std::string> frames;
    size_t bytes = 0;
    for (const LabeledQuery& z : pool.queries) {
      std::string payload;
      SEL_CHECK(sel::EncodeQuery(z.query, &payload).ok());
      frames.push_back(sel::EncodeFrame(
          sel::Frame{sel::FrameType::kEstimate, sel::WireStatus::kOk,
                     std::move(payload)}));
      bytes += frames.back().size();
    }
    SpanLog::Scope span(&log, "replay.proto");
    run.Add("proto.encode_ns_per_query", TimePerItemNs(frames.size(), [&] {
              for (const LabeledQuery& z : pool.queries) {
                std::string payload;
                g_sink = sel::EncodeQuery(z.query, &payload).ok();
                g_sink = sel::EncodeFrame(sel::Frame{sel::FrameType::kEstimate,
                                                     sel::WireStatus::kOk,
                                                     std::move(payload)})
                             .size();
              }
            }),
            "ns");
    run.Add("proto.decode_ns_per_query", TimePerItemNs(frames.size(), [&] {
              for (const std::string& f : frames) {
                sel::Frame header;
                uint32_t len = 0;
                g_sink = sel::DecodeFrameHeader(
                             reinterpret_cast<const uint8_t*>(f.data()),
                             &header, &len)
                             .ok();
                sel::WireReader reader(f.data() + sel::kFrameHeaderBytes, len);
                g_sink = sel::DecodeQuery(&reader).ok();
              }
            }),
            "ns");
    run.Add("proto.bytes_per_query",
            static_cast<double>(bytes) / frames.size(), "bytes");
  }
  {
    auto client = Connect(d);
    std::vector<double> rtt;
    SpanLog::Scope span(&log, "replay.client.ping");
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      const bool ok = client->Ping().ok();
      run.total.Add(ok);
      if (ok) rtt.push_back(SecondsSince(t0) * 1e6);
    }
    run.Add("client.ping_rtt_p50_us", Percentile(rtt, 50), "us");
  }
  run.Add("server.batch_queries_mean",
          HistSum(serve_snap, "server.batch_size") / std::max(1.0, batches),
          "count");
  run.Add("server.request_p50_us",
          HistQuantile(serve_snap, "server.request_us", 0.5), "us");
  run.Add("server.request_p99_us",
          HistQuantile(serve_snap, "server.request_us", 0.99), "us");
  run.Add("server.overload_total", serve_snap.CounterValue("server.overload_total"),
          "count");
  run.Add("server.deadline_expired_total",
          serve_snap.CounterValue("server.deadline_expired_total"), "count");

  // serve: the serving plan, overall and per selectivity band.
  run.Add("plan.entries", plan->size(), "count");
  const std::vector<Query> all = sel::QueriesOf(pool.queries);
  ReplayPlan(run, *plan, all, "", &log);
  const std::vector<Workload> bands =
      BandWorkloads(d.data, *d.index, run.args.seed + 5, 64);
  for (size_t b = 0; b < bands.size(); ++b) {
    ReplayPlan(run, *plan, sel::QueriesOf(bands[b]),
               std::string(".") + kBands[b].name, &log);
  }

  // common: SIMD leaf kernels on the plan's own entries, pool fan-out.
  run.Add("simd.box_leaf_ns_per_entry", KernelNsPerEntry(*plan, all, true, &log),
          "ns");
  run.Add("simd.point_leaf_ns_per_entry",
          KernelNsPerEntry(*plan, all, false, &log), "ns");
  run.Add("pool.tasks_per_batch",
          serve_snap.CounterValue("pool.tasks_total") / std::max(1.0, batches),
          "count");

  // online: retrains under the traced run.
  sel::MetricsRegistry::Global().Reset();
  std::vector<double> retrain_s;
  if (spec.name == "feedback_drift") {
    retrain_s = RunDrift(run, d, pool, &log).retrain_s;
  } else {
    retrain_s = RetrainProbe(run, d, &log);
  }
  const sel::MetricsSnapshot online = sel::MetricsRegistry::Global().Snapshot();
  const double retrain_us = HistSum(online, "online.retrain_us");
  run.Add("online.retrain_ms",
          retrain_us / 1e3 / std::max(1.0, HistCount(online, "online.retrain_us")),
          "ms");
  run.Add("online.publish_accepted",
          online.CounterValue("online.publish.accepted_total"), "count");
  run.Add("online.publish_rejected",
          online.CounterValue("online.publish.rejected_quality_total") +
              online.CounterValue("online.publish.rejected_deadline_total"),
          "count");
  run.Add("online.solve_share",
          retrain_us > 0 ? HistSum(online, "train.solve_us") / retrain_us : 0,
          "ratio");

  run.Add("loadgen.lag_p99_us", plain.lag_p99_us, "us");
  run.Add("loadgen.est_p99_us", plain.latency.tail_us, "us");
  run.Add("self.loadgen_share", share(loadgen_us), "ratio");
  run.Add("self.parse_share", share(parse_us), "ratio");
  run.Add("self.wire_share", share(client_us - server_us), "ratio");
  run.Add("self.server_share", share(server_us - plan_us), "ratio");
  run.Add("self.plan_share", share(plan_us), "ratio");
  run.Add("trace.overhead_us", traced.latency.p50_us - plain.latency.p50_us,
          "us");
  std::printf("trace: %" PRIu64 " spans dropped\n", log.dropped());

  owned.reset();  // stop the server before writing
  if (!run.args.trace_out.empty()) {
    if (log.WriteChromeTrace(run.args.trace_out)) {
      std::printf("trace written to %s\n", run.args.trace_out.c_str());
    } else {
      run.gate.Fail("cannot write trace " + run.args.trace_out);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Pin the shared pool before its first use.
  setenv("SEL_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  Run run;
  run.spec = spec;
  run.args = args;
  std::printf("env: {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d, \"simd\": \"%s\", "
              "\"pool_threads\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
              "\"client_threads\": %d, \"latency_limit_us\": %g, "
              "\"idle_poll\": true}\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0,
              sel::SimdLevelName(sel::ActiveSimdLevel()),
              sel::DefaultPool()->size(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, kClientThreads, kLatencyLimitUs);
  IdlePoller poller(std::thread::hardware_concurrency());
  if (args.trace) {
    RunTraced(run);
  } else {
    RunUntraced(run);
  }
  const bool correct = run.gate.violations == 0;
  PrintResult(correct, run.total.sent, run.total.failed, run.metrics);
  return correct ? 0 : 1;
}
