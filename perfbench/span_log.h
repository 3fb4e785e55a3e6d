// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer (parse, client call, plan
// evaluation, training, ...). Spans nest per thread; spans of one
// request share its request id. Nothing is written until WriteChromeTrace
// at exit, so recording costs two clock reads and a vector append.
#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  /// A disabled log records nothing; every Scope on it is inert.
  explicit SpanLog(bool enabled, size_t max_spans = 400000)
      : enabled_(enabled),
        max_spans_(max_spans),
        id_(NextLogId()),
        origin_(std::chrono::steady_clock::now()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread, nested under the thread's open
  /// span (if any).
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint64_t request_id = 0)
        : log_(log != nullptr && log->enabled() ? log : nullptr) {
      if (log_ != nullptr) index_ = log_->Open(name, request_id);
    }
    ~Scope() {
      if (log_ != nullptr) log_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    size_t index_ = 0;
  };

  /// Self time per span name in microseconds: each span's duration
  /// minus the part covered by its direct children. Call only while no
  /// thread is recording.
  std::map<std::string, double> SelfTimeUs() const {
    std::map<std::string, double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      std::vector<double> child_us(buf->spans.size(), 0.0);
      for (const Span& s : buf->spans) {
        if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
      }
      for (size_t i = 0; i < buf->spans.size(); ++i) {
        const Span& s = buf->spans[i];
        out[s.name] += (s.end_us - s.start_us) - child_us[i];
      }
    }
    return out;
  }

  /// Spans dropped after the cap was reached.
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const auto& buf : buffers_) n += buf->dropped;
    return n;
  }

  /// Writes every span as a Chrome trace ("X" events, request id in
  /// args). Returns false if the file cannot be written. Call only while
  /// no thread is recording.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      for (const Span& s : buf->spans) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu}}",
                     first ? "" : ",\n", s.name, buf->tid, s.start_us,
                     s.end_us - s.start_us,
                     static_cast<unsigned long long>(s.request_id));
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint64_t request_id;
    double start_us;
    double end_us;
    int64_t parent;  ///< index in the same thread buffer, -1 for a root
  };
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  ///< stack of open span indices
    uint64_t dropped = 0;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  static uint64_t NextLogId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  /// The calling thread's buffer, registered on first use. Buffers are
  /// owned by the log, so they outlive the threads that filled them;
  /// the per-thread index is keyed by a process-unique log id, never by
  /// an address a later log could reuse.
  ThreadBuffer* Buffer() {
    thread_local std::map<uint64_t, ThreadBuffer*> mine;
    auto it = mine.find(id_);
    if (it != mine.end()) return it->second;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    ThreadBuffer* buf = buffers_.back().get();
    buf->tid = static_cast<uint32_t>(buffers_.size());
    buf->spans.reserve(4096);
    mine[id_] = buf;
    return buf;
  }

  static constexpr size_t kDropped = static_cast<size_t>(-1);

  size_t Open(const char* name, uint64_t request_id) {
    ThreadBuffer* buf = Buffer();
    if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
      ++buf->dropped;
      return kDropped;
    }
    const int64_t parent =
        buf->open.empty() ? -1 : static_cast<int64_t>(buf->open.back());
    buf->spans.push_back(Span{name, request_id, NowUs(), 0.0, parent});
    buf->open.push_back(buf->spans.size() - 1);
    return buf->spans.size() - 1;
  }

  void Close(size_t index) {
    if (index == kDropped) return;
    ThreadBuffer* buf = Buffer();
    buf->spans[index].end_us = NowUs();
    buf->open.pop_back();
  }

  const bool enabled_;
  const size_t max_spans_;
  const uint64_t id_;
  std::atomic<size_t> recorded_{0};
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards buffers_ (the list, not the spans)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
