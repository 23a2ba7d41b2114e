#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace perfbench::trace {
namespace {

constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 20;

struct Rec {
  const char* name;
  std::uint64_t trace_id;
  std::int64_t parent;  // index in the same thread's buffer, -1 = root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<Rec> spans;
  std::vector<std::int64_t> stack;
  std::uint64_t dropped = 0;
};

// Toggled between timed blocks while no benchmark thread records.
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_trace{1};

std::mutex g_registry_mutex;
// Buffers outlive the threads that filled them (pool workers may exit
// before the trace is written).
std::vector<std::unique_ptr<ThreadBuf>> g_registry;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadBuf& local_buffer() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    owned->spans.reserve(std::size_t{1} << 14);
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    owned->tid = static_cast<std::uint32_t>(g_registry.size() + 1);
    buf = owned.get();
    g_registry.push_back(std::move(owned));
  }
  return *buf;
}

std::string_view layer_of(const char* name) {
  const std::string_view n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

// relaxed: the flag gates recording only; the buffers are per thread.
void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t new_trace_id() {
  // relaxed: ids only need to be unique, not ordered with other memory.
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* name, std::uint64_t trace_id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;  // relaxed: ditto
  ThreadBuf& buf = local_buffer();
  if (buf.spans.size() >= kMaxSpansPerThread) {
    ++buf.dropped;
    return;
  }
  const std::int64_t parent = buf.stack.empty() ? -1 : buf.stack.back();
  if (trace_id == 0 && parent >= 0)
    trace_id = buf.spans[static_cast<std::size_t>(parent)].trace_id;
  index_ = static_cast<std::int64_t>(buf.spans.size());
  buf.spans.push_back({name, trace_id, parent, now_ns(), 0});
  buf.stack.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuf& buf = local_buffer();
  buf.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buf.stack.pop_back();
}

Cycle::Cycle(bool traced_run, bool record) : traced_run_(traced_run) {
  if (traced_run_ && !record) untraced_.emplace("trace.untraced_cycle");
  enable(traced_run_ && record);
}

Cycle::~Cycle() { enable(traced_run_); }  // before untraced_ closes

std::map<std::string, std::map<std::string, LayerTime>> self_times() {
  std::map<std::string, std::map<std::string, LayerTime>> out;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buf : g_registry) {
    const std::vector<Rec>& spans = buf->spans;
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const Rec& r : spans)
      if (r.parent >= 0 && r.end_ns > 0)
        covered[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Rec& r = spans[i];
      if (r.end_ns == 0) continue;  // still open
      std::size_t root = i;
      while (spans[root].parent >= 0)
        root = static_cast<std::size_t>(spans[root].parent);
      const double total = 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
      LayerTime& t =
          out[spans[root].name][std::string(layer_of(r.name))];
      t.total_s += total;
      t.self_s += total - 1e-9 * static_cast<double>(covered[i]);
      ++t.spans;
    }
  }
  return out;
}

std::uint64_t span_count() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::uint64_t n = 0;
  for (const auto& buf : g_registry) n += buf->spans.size();
  return n;
}

std::uint64_t dropped_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::uint64_t n = 0;
  for (const auto& buf : g_registry) n += buf->dropped;
  return n;
}

bool write_chrome_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::int64_t origin = 0;
  for (const auto& buf : g_registry)
    for (const Rec& r : buf->spans)
      if (origin == 0 || r.start_ns < origin) origin = r.start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& buf : g_registry) {
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const Rec& r = buf->spans[i];
      if (r.end_ns == 0) continue;
      const std::string_view layer = layer_of(r.name);
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
          "\"span\":%zu,\"parent\":%lld}}",
          first ? "" : ",\n", r.name, static_cast<int>(layer.size()),
          layer.data(), buf->tid,
          1e-3 * static_cast<double>(r.start_ns - origin),
          1e-3 * static_cast<double>(r.end_ns - r.start_ns),
          static_cast<unsigned long long>(r.trace_id), i,
          static_cast<long long>(r.parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
