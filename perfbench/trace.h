// In-memory span recorder for the benchmark's traced run.
//
// The harness wraps each of its own calls into a library layer's public
// functions in a Span named "<layer>.<function>" (core.graph_build,
// engine.batch, service.whatif, ...) and each closed-loop operation in a
// root span "bench.<operation>" that starts a request. Nothing inside the
// library is instrumented. Spans are kept per thread and written out at
// exit; when tracing is off a Span costs one relaxed load.

#ifndef OLAPIDX_PERFBENCH_TRACE_H_
#define OLAPIDX_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // enclosing span on the same thread; 0 = root
  uint64_t request = 0;  // closed-loop operation it belongs to; 0 = none
  const char* name = "";  // static storage: "<layer>.<function>"
  int64_t start_ns = 0;  // since the tracer started
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& Global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // A fresh request id for a root span.
  uint64_t NewRequest() {
    return next_request_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Moves out every finished span, ordered by start time. Call only while
  // no other thread is recording (after the loop's threads joined).
  std::vector<SpanRecord> Drain();

 private:
  friend class Span;
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
};

// RAII span. `request` != 0 makes this the root of that request; 0
// inherits the enclosing span's request on this thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

// One JSON object per line: id, parent, request, name, start_ns, end_ns,
// thread. Returns false when the file cannot be written.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// Self time of each span (parallel to `spans`): its duration minus the
// part of it that its child spans cover.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

// Self time summed per layer, the span name's prefix before the first '.'.
std::map<std::string, double> LayerSelfMs(const std::vector<SpanRecord>& spans);

// Durations in milliseconds of the spans named `name`.
std::vector<double> DurationsMs(const std::vector<SpanRecord>& spans,
                                std::string_view name);

}  // namespace perfbench

#endif  // OLAPIDX_PERFBENCH_TRACE_H_
