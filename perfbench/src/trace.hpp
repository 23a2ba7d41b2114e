// In-memory span tracing for the benchmark's traced run.
//
// A Span marks one call from the benchmark into a layer's public
// function (`engine.ModelEngine.predict`, `sim.System.run`, ...). The
// layer is the name's first dot-separated component. Spans nest per
// thread through a parent stack and carry one trace id per query,
// window or profile. Nothing is recorded unless enable(true) ran
// before the first span; a disabled Span costs one branch.
//
// At the end of the run the spans are written as Chrome trace-event
// JSON (Perfetto opens it) and reduced to per-layer self time: a
// span's duration minus the part its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace perfbench::trace {

/// Turns span recording on or off for every thread.
void enable(bool on);

/// A fresh trace id (monotonic, starting at 1).
std::uint64_t new_trace_id();

class Span {
 public:
  /// `trace_id` 0 inherits the enclosing span's id on this thread.
  explicit Span(const char* name, std::uint64_t trace_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// One cycle of a traced run's own path. Cycles alternate recording on
/// and off so the two can be compared for the tracing overhead; an off
/// cycle still shows up as one `trace.untraced_cycle` span, so its time
/// is not mistaken for its parent's self time. Outside a traced run it
/// does nothing.
class Cycle {
 public:
  Cycle(bool traced_run, bool record);
  ~Cycle();
  Cycle(const Cycle&) = delete;
  Cycle& operator=(const Cycle&) = delete;

 private:
  bool traced_run_;
  std::optional<Span> untraced_;
};

struct LayerTime {
  double self_s = 0.0;
  double total_s = 0.0;
  std::uint64_t spans = 0;
};

/// Self and total time per layer, grouped by the name of each span's
/// outermost ancestor (the benchmark path that caused it).
std::map<std::string, std::map<std::string, LayerTime>> self_times();

/// Spans recorded so far, and spans refused once a thread's buffer was
/// full.
std::uint64_t span_count();
std::uint64_t dropped_spans();

/// Write every recorded span as Chrome trace-event JSON.
bool write_chrome_json(const std::string& path);

}  // namespace perfbench::trace
