#include "repro/hpc/counters.hpp"

namespace repro::hpc {

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.instructions = a.instructions - b.instructions;
  d.cycles = a.cycles - b.cycles;
  d.l1_refs = a.l1_refs - b.l1_refs;
  d.l2_refs = a.l2_refs - b.l2_refs;
  d.l2_misses = a.l2_misses - b.l2_misses;
  d.branches = a.branches - b.branches;
  d.fp_ops = a.fp_ops - b.fp_ops;
  return d;
}

EventRates EventRates::from(const Counters& delta, Seconds dt) {
  REPRO_ENSURE(dt > 0.0, "rate window must be positive");
  EventRates r;
  r.l1rps = delta.l1_refs / dt;
  r.l2rps = delta.l2_refs / dt;
  r.l2mps = delta.l2_misses / dt;
  r.brps = delta.branches / dt;
  r.fpps = delta.fp_ops / dt;
  r.ips = delta.instructions / dt;
  return r;
}

EventRates& EventRates::operator+=(const EventRates& o) {
  l1rps += o.l1rps;
  l2rps += o.l2rps;
  l2mps += o.l2mps;
  brps += o.brps;
  fpps += o.fpps;
  ips += o.ips;
  return *this;
}

PerInstructionRates PerInstructionRates::from(const Counters& totals,
                                              Seconds cpu_seconds) {
  REPRO_ENSURE(totals.instructions > 0.0, "no instructions executed");
  REPRO_ENSURE(cpu_seconds > 0.0, "no CPU time accrued");
  PerInstructionRates r;
  r.l1rpi = totals.l1_refs / totals.instructions;
  r.l2rpi = totals.l2_refs / totals.instructions;
  r.brpi = totals.branches / totals.instructions;
  r.fppi = totals.fp_ops / totals.instructions;
  r.l2mpr = totals.l2_refs > 0.0 ? totals.l2_misses / totals.l2_refs : 0.0;
  r.spi = cpu_seconds / totals.instructions;
  return r;
}

EventRates PerInstructionRates::to_event_rates() const {
  REPRO_ENSURE(spi > 0.0, "SPI must be positive to form rates");
  EventRates r;
  r.l1rps = l1rpi / spi;
  r.l2rps = l2rpi / spi;
  r.l2mps = l2rpi * l2mpr / spi;
  r.brps = brpi / spi;
  r.fpps = fppi / spi;
  r.ips = 1.0 / spi;
  return r;
}

}  // namespace repro::hpc
