#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

int64_t NowNs() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> finished;
  // Open spans on this thread, innermost last.
  std::vector<const SpanRecord*> open;
};

std::mutex buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded by buffers_mu

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> local = [] {
    auto buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(buffers_mu);
    buffer->thread = static_cast<uint32_t>(buffers.size());
    buffers.push_back(buffer);
    return buffer;
  }();
  return *local;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

std::vector<SpanRecord> Tracer::Drain() {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(buffers_mu);
    for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
      out.insert(out.end(), buffer->finished.begin(), buffer->finished.end());
      buffer->finished.clear();
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

Span::Span(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  active_ = true;
  ThreadBuffer& buffer = LocalBuffer();
  record_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  record_.name = name;
  record_.thread = buffer.thread;
  if (!buffer.open.empty()) {
    record_.parent = buffer.open.back()->id;
    record_.request = buffer.open.back()->request;
  }
  if (request != 0) record_.request = request;
  buffer.open.push_back(&record_);
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.finished.push_back(record_);
}

bool WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"thread\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread);
  }
  return std::fclose(out) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    auto parent = index.find(s.parent);
    if (s.parent != 0 && parent != index.end()) {
      children[parent->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's.
    int64_t covered = 0;
    int64_t reach = begin;
    for (const auto& [kid_begin, kid_end] : kids) {
      const int64_t lo = std::max(kid_begin, reach);
      const int64_t hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

std::map<std::string, double> LayerSelfMs(
    const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string_view name = spans[i].name;
    std::string layer(name.substr(0, name.find('.')));
    out[layer] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<SpanRecord>& spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

}  // namespace perfbench
