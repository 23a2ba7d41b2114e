// Hardware-performance-counter vocabulary (PAPI-like).
//
// The paper samples HPCs through PAPI 3.6.2 every 30 ms and works with
// two derived views: event *rates* (events per second — the power
// model's regressors, §4.1) and *instruction-related* event rates
// (events per instruction — the process properties of §5). This module
// defines the counter block our simulator maintains per process and
// per core, and the two derived views.
//
// Counter fields are doubles: the simulator advances instruction counts
// in fractional increments (one increment per L2 access), and every
// consumer of these counters is statistical.
#pragma once

#include <array>

#include "repro/common/ensure.hpp"
#include "repro/common/units.hpp"

namespace repro::hpc {

struct Counters {
  double instructions = 0.0;
  double cycles = 0.0;
  double l1_refs = 0.0;   // L1 data cache references
  double l2_refs = 0.0;   // L2 (last-level) cache references
  double l2_misses = 0.0; // L2 demand misses
  double branches = 0.0;  // branch instructions retired
  double fp_ops = 0.0;    // floating point instructions retired

  // Inline: the simulator adds counters twice per simulated access.
  Counters& operator+=(const Counters& o) {
    instructions += o.instructions;
    cycles += o.cycles;
    l1_refs += o.l1_refs;
    l2_refs += o.l2_refs;
    l2_misses += o.l2_misses;
    branches += o.branches;
    fp_ops += o.fp_ops;
    return *this;
  }
  friend Counters operator+(Counters a, const Counters& b) { return a += b; }
  friend Counters operator-(const Counters& a, const Counters& b);

  /// Miss ratio (the paper's MPA) over this block; 0 with no L2 refs.
  /// The on-line pipeline's per-window phase signal.
  double mpa() const { return l2_refs > 0.0 ? l2_misses / l2_refs : 0.0; }

  /// Instructions per cycle over this block; 0 with no cycles.
  double ipc() const { return cycles > 0.0 ? instructions / cycles : 0.0; }
};

/// The five per-second event rates of the paper's power model (Eq. 9),
/// plus instructions per second for diagnostics.
struct EventRates {
  double l1rps = 0.0;
  double l2rps = 0.0;
  double l2mps = 0.0;
  double brps = 0.0;
  double fpps = 0.0;
  double ips = 0.0;

  /// Rates from a counter delta over an interval of `dt` seconds.
  static EventRates from(const Counters& delta, Seconds dt);

  EventRates& operator+=(const EventRates& o);
  friend EventRates operator+(EventRates a, const EventRates& b) {
    return a += b;
  }

  /// Regressor vector in the fixed order (L1RPS, L2RPS, L2MPS, BRPS,
  /// FPPS) used throughout the power model.
  std::array<double, 5> regressors() const {
    return {l1rps, l2rps, l2mps, brps, fpps};
  }
};

/// Instruction-related event rates — fixed process properties under
/// cache contention (§5): only SPI and L2MPR change when a process is
/// co-scheduled.
struct PerInstructionRates {
  double l1rpi = 0.0;  // L1 refs per instruction
  double l2rpi = 0.0;  // L2 refs per instruction (the paper's API)
  double brpi = 0.0;   // branches per instruction
  double fppi = 0.0;   // FP ops per instruction
  double l2mpr = 0.0;  // L2 misses per L2 reference (the paper's MPA)
  Spi spi = 0.0;       // seconds per instruction (CPU time basis)

  /// Derive from a counter block accumulated over `cpu_seconds` of
  /// CPU time (not wall time: a time-shared process only accrues SPI
  /// while scheduled).
  static PerInstructionRates from(const Counters& totals,
                                  Seconds cpu_seconds);

  /// Reconstruct per-second event rates from per-instruction rates and
  /// an SPI value (the §5 decomposition: rate = per-instr / SPI).
  EventRates to_event_rates() const;
};

}  // namespace repro::hpc
