// In-memory span recorder for pieck_benchmark.
//
// A span is one call into a library layer, timed from the benchmark's own
// code: name ("<layer>.<call>"), start, end, the span that caused it, and
// the round (or serving call) it belongs to, plus up to four counters read
// at the same boundary. Spans are appended to per-lane buffers -- lane 0
// is the round thread, lane k the k-th pool slot or caller thread -- so
// recording takes no lock; every lane is written by one thread at a time.
// The whole trace is written once, at the end of the run, as Chrome
// trace-event JSON (chrome://tracing and Perfetto open it), and
// benchmark/run.py reduces it to the per-layer metrics.
#ifndef PIECK_BENCHMARK_SPAN_TRACE_H_
#define PIECK_BENCHMARK_SPAN_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace pieck_benchmark {

using Clock = std::chrono::steady_clock;

struct Span {
  static constexpr int kMaxArgs = 4;
  const char* name = nullptr;  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t id = 0;
  int32_t parent = -1;  // -1: root span
  int32_t round = -1;   // round or call index; -1: none
  int32_t lane = 0;
  int num_args = 0;
  std::array<std::pair<const char*, double>, kMaxArgs> args{};
};

class Tracer {
 public:
  explicit Tracer(int num_lanes)
      : origin_(Clock::now()), lanes_(static_cast<size_t>(num_lanes)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  int32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const Span& span) {
    lanes_[static_cast<size_t>(span.lane)].push_back(span);
  }

  /// Writes every span as a complete ("X") event; `other_data` is a JSON
  /// object body (without braces) placed under "otherData". Returns false
  /// when the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_data) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": {%s},\n",
                 other_data.c_str());
    std::fprintf(f, "\"traceEvents\": [\n");
    bool first = true;
    for (const std::vector<Span>& lane : lanes_) {
      for (const Span& s : lane) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %d, \"parent\": %d, \"round\": %d",
                     first ? "" : ",\n", s.name, s.lane, s.start_ns / 1e3,
                     (s.end_ns - s.start_ns) / 1e3, s.id, s.parent, s.round);
        for (int a = 0; a < s.num_args; ++a) {
          std::fprintf(f, ", \"%s\": %.17g", s.args[static_cast<size_t>(a)].first,
                       s.args[static_cast<size_t>(a)].second);
        }
        std::fprintf(f, "}}");
        first = false;
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::atomic<int32_t> next_id_{0};
  std::vector<std::vector<Span>> lanes_;
};

/// Records one span from construction to destruction. A null tracer makes
/// it a no-op, so traced and untraced code paths share one body.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int lane, const char* name, int32_t parent,
             int32_t round)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.lane = lane;
    span_.parent = parent;
    span_.round = round;
    span_.id = tracer_->NewId();
    span_.start_ns = tracer_->NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->NowNs();
    tracer_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return tracer_ != nullptr ? span_.id : -1; }

  /// Attaches a counter read at this boundary (ignored past kMaxArgs).
  void Arg(const char* key, double value) {
    if (tracer_ == nullptr || span_.num_args >= Span::kMaxArgs) return;
    span_.args[static_cast<size_t>(span_.num_args++)] = {key, value};
  }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace pieck_benchmark

#endif  // PIECK_BENCHMARK_SPAN_TRACE_H_
