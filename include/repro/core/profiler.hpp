// Automated performance profiling via the stressmark (paper §3.4).
//
// For each process of interest, the profiler:
//   1. runs it alone on an otherwise idle machine, recording its API,
//      instruction-related event rates (L1RPI, L2RPI, BRPI, FPPI), its
//      stand-alone MPA/SPI operating point, and its stand-alone power
//      (the paper's P_alone, recorded for the combined model, §5);
//   2. co-runs it with the stressmark at every occupancy W = 1..A−1,
//      recording MPA and SPI at the implied effective size S = A − W;
//   3. differences the MPA curve into the reuse-distance histogram
//      (Eq. 8) and fits SPI = α·MPA + β by linear regression (Eq. 3).
//
// The result is a ProcessProfile: the feature vector (for the
// performance model) plus the profiling vector PF (for the combined
// power estimator). Profiling is O(A) runs per process — this is the
// linear-vs-exponential win the paper claims over exhaustive
// co-simulation. The runs are independent simulations with their own
// seeds, so they run in parallel (ProfilerOptions::threads) and the
// profile does not depend on the thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/hpc/counters.hpp"
#include "repro/power/oracle.hpp"
#include "repro/sim/machine.hpp"
#include "repro/sim/process.hpp"
#include "repro/workload/spec.hpp"

namespace repro::core {

/// Everything recorded for one process during profiling: the §3.4
/// feature vector plus the §5 profiling vector PF.
struct ProcessProfile {
  std::string name;

  /// Monotone revision counter for on-line re-profiling: the streaming
  /// ProfileBuilder (repro/online) emits a new revision whenever fresh
  /// windows or a phase change refit the feature vector, and the
  /// ModelEngine's per-entry invalidation keys off profile identity.
  /// Batch (stressmark) profiles are revision 0.
  std::uint64_t revision = 0;

  FeatureVector features;

  // Instruction-related event rates (fixed process properties) and the
  // stand-alone operating point.
  hpc::PerInstructionRates alone;

  // Mean processor power while running alone on an idle machine.
  Watts power_alone = 0.0;

  // Raw profiling curve, kept for diagnostics/tests: entry j is the
  // measured (MPA, SPI) at effective size j+1 ways.
  std::vector<Mpa> mpa_at_ways;
  std::vector<Spi> spi_at_ways;
};

struct ProfilerOptions {
  Seconds warmup = 0.02;
  Seconds measure = 0.06;
  /// Core hosting the profiled process; the stressmark runs on the
  /// first core sharing its die's cache.
  CoreId target_core = 0;
  std::uint64_t seed = 0x9f01ULL;
  /// Threads running the sweep's independent simulator runs: 0 = one
  /// per hardware thread, 1 = serially on the calling thread (no
  /// pool). Every run has its own seed, so profiles are byte-identical
  /// for every value.
  std::size_t threads = 0;
};

class StressmarkProfiler {
 public:
  StressmarkProfiler(const sim::MachineConfig& machine,
                     const power::OracleConfig& oracle,
                     ProfilerOptions options = {});

  /// Profile one workload (O(A) simulator runs).
  ProcessProfile profile(const workload::WorkloadSpec& spec) const;

  /// Profile a list of workloads; all of their runs share one fan-out.
  std::vector<ProcessProfile> profile_all(
      const std::vector<workload::WorkloadSpec>& specs) const;

 private:
  /// One simulator run of the sweep. Index w = 0 is the stand-alone run
  /// (S = A, plus the PF vector and P_alone); w = 1..A−1 co-runs the
  /// stressmark at occupancy W = w.
  struct SweepPoint {
    double s = 0.0;
    Mpa mpa = 0.0;
    Spi spi = 0.0;
    hpc::PerInstructionRates alone;
    Watts power = 0.0;
  };

  /// Run sweep index `w` on its own System, seeded options.seed + w.
  SweepPoint sweep_run(const workload::WorkloadSpec& spec,
                       std::uint32_t w) const;
  /// Fit the profile from the A sweep points, in sweep-index order.
  ProcessProfile assemble(const workload::WorkloadSpec& spec,
                          std::span<const SweepPoint> points) const;

  sim::MachineConfig machine_;
  power::OracleConfig oracle_;
  ProfilerOptions options_;
  CoreId stress_core_;
};

}  // namespace repro::core
