// The combined performance + power model (paper §5, Fig. 1, Eq. 11).
//
// Power-aware assignment needs the power of a *tentative* mapping
// before any HPC values exist. §5 decomposes process power into
//
//   P_process = P_idle + (1/SPI)·(c1·L1RPI + c2·L2RPI + c4·BRPI
//             + c5·FPPI) + (1/SPI)·c3·L2RPI·L2MPR
//
// where the per-instruction rates are fixed process properties from
// profiling and SPI / L2MPR come from the performance model under the
// tentative co-schedule. Time sharing averages process powers on a
// core; cache sharing averages over process combinations (Eq. 10);
// Eq. 11 assembles the processor total. CombinedEstimator implements
// both the pure profile-driven estimate (validated in Table 4) and
// the incremental Fig. 1 form that reuses current per-core powers for
// combinations unaffected by the new process. The die-wide variant —
// one share-weighted equilibrium over all of a die's processes, so
// time-shared processes contend too — is ModelEngine::predict.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/sim/machine.hpp"

namespace repro::core {

/// A process-to-core mapping: per_core[c] lists indices into a profile
/// array; several entries on one core mean round-robin time sharing.
struct Assignment {
  std::vector<std::vector<std::size_t>> per_core;

  static Assignment empty(std::uint32_t cores) {
    Assignment a;
    a.per_core.resize(cores);
    return a;
  }
  std::size_t process_count() const;
  void validate(std::uint32_t cores, std::size_t profile_count) const;
};

/// §5 decomposition of one process's dynamic (above-idle) core power at
/// a predicted operating point: P1 covers the contention-invariant
/// per-instruction events, P2 the L2 misses, both scaled by 1/SPI.
/// Shared by CombinedEstimator and ModelEngine so both price a process
/// at an operating point the same way.
Watts process_dynamic_power(const PowerModel& model,
                            const hpc::PerInstructionRates& pf, Spi spi,
                            Mpa l2mpr);

/// The paper's §5 algorithm: enumerate process combinations (one per
/// busy core) and average (Eq. 10/11). Processes that only time-share
/// a core never contend in the model.
class CombinedEstimator {
 public:
  CombinedEstimator(PowerModel model, sim::MachineConfig machine,
                    EquilibriumOptions equilibrium = {});

  /// Pure §5 estimate of mean processor power for `assignment`, using
  /// only profiling information (Table 4's validation mode).
  Watts estimate(std::span<const ProcessProfile> profiles,
                 const Assignment& assignment) const;

  /// Power plus predicted aggregate throughput (instructions/s summed
  /// over processes, time-sharing weighted) — enables energy-style
  /// objectives (J per instruction) on top of the same machinery.
  struct Detailed {
    Watts power = 0.0;
    double throughput_ips = 0.0;

    /// Joules per instruction; infinite for an idle machine.
    double energy_per_instruction() const {
      return throughput_ips > 0.0
                 ? power / throughput_ips
                 : std::numeric_limits<double>::infinity();
    }
  };
  Detailed estimate_detailed(std::span<const ProcessProfile> profiles,
                             const Assignment& assignment) const;

  /// Dynamic power of one process at a predicted operating point — the
  /// §5 decomposition (everything except P_idle).
  Watts process_dynamic_power(const ProcessProfile& profile, Spi spi,
                              Mpa l2mpr) const;

  /// Fig. 1 / Eq. 11: power after tentatively assigning
  /// `new_process` to `target_core`, reusing `current_core_power`
  /// (model-derived from live HPC rates; one entry per core, idle
  /// cores at idle-core power) for combinations that do not involve
  /// the new process.
  Watts estimate_after_assign(std::span<const ProcessProfile> profiles,
                              const Assignment& current,
                              std::size_t new_process, CoreId target_core,
                              std::span<const Watts> current_core_power) const;

  const PowerModel& power_model() const { return model_; }
  const sim::MachineConfig& machine() const { return machine_; }

 private:
  struct ComboEstimate {
    Watts dynamic = 0.0;
    double ips = 0.0;
  };

  /// Average dynamic power / throughput of one die's co-schedule over
  /// all process combinations (Eq. 10 numerator logic).
  ComboEstimate die_estimate(std::span<const ProcessProfile> profiles,
                             const Assignment& assignment, DieId die) const;

  /// One combination (one process per busy core), with SPI/L2MPR from
  /// the equilibrium solver.
  ComboEstimate combination_estimate(
      std::span<const ProcessProfile* const> combo) const;

  PowerModel model_;
  sim::MachineConfig machine_;
  EquilibriumSolver solver_;
};

}  // namespace repro::core
