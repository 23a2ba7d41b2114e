// The three paths the benchmark drives, each a set-up step plus a
// timed run. A workload (main.cpp) runs all three: its own path (query
// or window) gets most of the time budget and its seed-varied inputs,
// the other two run a fixed reference pass so every end-to-end metric
// is measured on every workload.
//
//   query path    ModelEngine predict / predict_batch and
//                 Governor::plan over randomized co-schedules;
//   window path   per-die HPC windows through a ShardedPipeline with
//                 the journal on, closed loop then open loop;
//   profile path  StressmarkProfiler calibrations priced against
//                 simulator co-runs measured in set-up (always a
//                 reference pass).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "repro/core/power_model.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/math/piecewise.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/power/oracle.hpp"
#include "repro/sim/machine.hpp"

namespace perfbench {

namespace core = repro::core;
namespace engine = repro::engine;
namespace online = repro::online;
namespace sim = repro::sim;

struct RunOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  std::size_t threads = 4;
  /// Directory for scratch files (journals); inside the checkout.
  std::string work_dir;
};

/// Length of one cycle of a path's timed run.
constexpr double kCycleSeconds = 1.0;
/// Tails (p99) are medians over blocks of this many samples (see
/// Samples::block_quantile).
constexpr std::size_t kTailBlock = 1000;

/// A path's timed run, one cycle at a time. A workload interleaves the
/// cycles of its paths, so each path's samples span the whole run and
/// a stretch of host contention lands on a few cycles of every path
/// instead of on all of one.
class PathRun {
 public:
  PathRun() = default;
  PathRun(const PathRun&) = delete;
  PathRun& operator=(const PathRun&) = delete;
  virtual ~PathRun() = default;
  /// One cycle, about kCycleSeconds long.
  virtual void cycle() = 0;
  /// True once the path has the samples its metrics need.
  virtual bool enough() const = 0;
  /// Output checks, metrics and, in the traced run, the layer replays.
  virtual void finish() = 0;
};

/// A synthetic Eq. 9 power model for `cores` cores (the benchmark
/// does not train one: training is simulator work no path measures).
core::PowerModel synthetic_power_model(std::uint32_t cores);

// ---------------------------------------------------------------- query

struct QueryState {
  sim::MachineConfig machine;
  /// The engine under test (pool of RunOptions::threads workers).
  std::unique_ptr<engine::ModelEngine> pooled;
  /// threads = 1 twin with identical registrations: the bit-identity
  /// reference and the thread-pool speedup base.
  std::unique_ptr<engine::ModelEngine> serial;
  std::vector<engine::ProcessHandle> handles;
  /// The benchmark's own fill curves G⁻¹ (handle order) for the
  /// equilibrium check and the direct solver replay, and the seconds
  /// each took to build.
  std::vector<repro::math::PiecewiseLinear> fill;
  Samples fill_build_s;
};

/// Register `profiles` (handle = index) in a pooled and a serial engine
/// and build every fill-curve artifact.
QueryState make_query_state(const sim::MachineConfig& machine,
                            const core::PowerModel& power,
                            const std::vector<core::ProcessProfile>& profiles,
                            const RunOptions& run);

/// The what-if workload's inputs: analytic features of the 8-spec
/// suite on the 4-core server.
std::vector<core::ProcessProfile> analytic_suite_profiles(
    const sim::MachineConfig& machine, const core::PowerModel& power);

/// `focus` marks the workload's own path: in the traced run its cycles
/// alternate traced and untraced to measure the tracing overhead.
std::unique_ptr<PathRun> start_query_path(QueryState& state, bool focus,
                                          const RunOptions& run,
                                          RunReport& report);

// --------------------------------------------------------------- window

/// The generator's truth for one monitored process.
struct WindowTruth {
  std::size_t pid = 0;
  repro::DieId lane = 0;
  repro::CoreId core = 0;
  double api = 0.0;
  /// Windows by which this process's phase switches lead its lane's
  /// kPhaseWindows boundaries (window_path.cpp).
  std::uint64_t phase_lead = 0;
  // The two phases the process alternates between.
  double mpa0[2] = {0.0, 0.0};
  double alpha[2] = {0.0, 0.0};
  double beta[2] = {0.0, 0.0};
};

struct WindowState {
  sim::MachineConfig machine;
  std::unique_ptr<engine::ModelEngine> engine;
  std::unique_ptr<online::ShardedPipeline> pipeline;
  std::vector<WindowTruth> truth;
  std::string journal_path;
  ~WindowState();
};

std::unique_ptr<WindowState> make_window_state(const RunOptions& run);

std::unique_ptr<PathRun> start_window_path(WindowState& state, bool focus,
                                           const RunOptions& run,
                                           RunReport& report);

// -------------------------------------------------------------- profile

struct CoRun {
  std::size_t a = 0, b = 0;        // spec indices on core 0 and core 1
  double mpa[2] = {0.0, 0.0};      // measured
  double spi[2] = {0.0, 0.0};
  double host_s = 0.0;             // wall time of warm-up + run
  double accesses = 0.0;           // simulated L2 accesses
};

struct ProfileState {
  sim::MachineConfig machine;
  repro::power::OracleConfig oracle;
  std::vector<CoRun> coruns;  // every unordered pair, self-pairs included
};

ProfileState make_profile_state(const RunOptions& run);

/// True when two set-ups measured identical co-runs.
bool same_coruns(const std::vector<CoRun>& a, const std::vector<CoRun>& b);

/// Runs the accuracy round at once; each cycle is one timing profile.
std::unique_ptr<PathRun> start_profile_path(ProfileState& state,
                                            const RunOptions& run,
                                            RunReport& report);

}  // namespace perfbench
