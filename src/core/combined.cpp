#include "repro/core/combined.hpp"

#include <algorithm>

#include "repro/common/ensure.hpp"

namespace repro::core {

std::size_t Assignment::process_count() const {
  std::size_t n = 0;
  for (const auto& q : per_core) n += q.size();
  return n;
}

void Assignment::validate(std::uint32_t cores,
                          std::size_t profile_count) const {
  REPRO_ENSURE(per_core.size() == cores, "assignment core count mismatch");
  for (const auto& q : per_core)
    for (std::size_t idx : q)
      REPRO_ENSURE(idx < profile_count, "profile index out of range");
}

CombinedEstimator::CombinedEstimator(PowerModel model,
                                     sim::MachineConfig machine,
                                     EquilibriumOptions equilibrium)
    : model_(std::move(model)),
      machine_(std::move(machine)),
      solver_(machine_.l2.ways, equilibrium) {
  machine_.validate();
  REPRO_ENSURE(model_.cores() == machine_.cores,
               "power model trained for a different core count");
}

Watts process_dynamic_power(const PowerModel& model,
                            const hpc::PerInstructionRates& pf, Spi spi,
                            Mpa l2mpr) {
  REPRO_ENSURE(spi > 0.0, "SPI must be positive");
  const std::array<double, 5>& c = model.coefficients();
  // §5: P1 covers the contention-invariant events; P2 the L2 misses.
  const double p1 =
      (c[0] * pf.l1rpi + c[1] * pf.l2rpi + c[3] * pf.brpi + c[4] * pf.fppi) /
      spi;
  const double p2 = c[2] * pf.l2rpi * l2mpr / spi;
  return p1 + p2;
}

Watts CombinedEstimator::process_dynamic_power(const ProcessProfile& profile,
                                               Spi spi, Mpa l2mpr) const {
  return core::process_dynamic_power(model_, profile.alone, spi, l2mpr);
}

CombinedEstimator::ComboEstimate CombinedEstimator::combination_estimate(
    std::span<const ProcessProfile* const> combo) const {
  REPRO_ENSURE(!combo.empty(), "empty combination");
  std::vector<FeatureVector> features;
  features.reserve(combo.size());
  for (const ProcessProfile* p : combo) features.push_back(p->features);
  const std::vector<ProcessPrediction> eq = solver_.solve(features);
  ComboEstimate out;
  for (std::size_t i = 0; i < combo.size(); ++i) {
    out.dynamic += process_dynamic_power(*combo[i], eq[i].spi, eq[i].mpa);
    out.ips += 1.0 / eq[i].spi;
  }
  return out;
}

CombinedEstimator::ComboEstimate CombinedEstimator::die_estimate(
    std::span<const ProcessProfile> profiles, const Assignment& assignment,
    DieId die) const {
  // Busy cores on this die and their run queues.
  std::vector<const std::vector<std::size_t>*> queues;
  for (CoreId c : machine_.cores_on_die(die))
    if (!assignment.per_core[c].empty())
      queues.push_back(&assignment.per_core[c]);
  if (queues.empty()) return {};

  // Enumerate the cartesian product of run queues: each element is one
  // process combination (the set running concurrently during one
  // timeslice alignment). Equal timeslices make all combinations
  // equally weighted (Eq. 10).
  std::vector<std::size_t> cursor(queues.size(), 0);
  ComboEstimate sum;
  std::size_t count = 0;
  while (true) {
    std::vector<const ProcessProfile*> combo;
    combo.reserve(queues.size());
    for (std::size_t q = 0; q < queues.size(); ++q)
      combo.push_back(&profiles[(*queues[q])[cursor[q]]]);
    const ComboEstimate one = combination_estimate(combo);
    sum.dynamic += one.dynamic;
    sum.ips += one.ips;
    ++count;

    std::size_t q = 0;
    while (q < queues.size() && ++cursor[q] == queues[q]->size()) {
      cursor[q] = 0;
      ++q;
    }
    if (q == queues.size()) break;
  }
  sum.dynamic /= static_cast<double>(count);
  sum.ips /= static_cast<double>(count);
  return sum;
}

Watts CombinedEstimator::estimate(std::span<const ProcessProfile> profiles,
                                  const Assignment& assignment) const {
  return estimate_detailed(profiles, assignment).power;
}

CombinedEstimator::Detailed CombinedEstimator::estimate_detailed(
    std::span<const ProcessProfile> profiles,
    const Assignment& assignment) const {
  assignment.validate(machine_.cores, profiles.size());
  Detailed out;
  out.power = model_.idle_total();
  for (DieId d = 0; d < machine_.dies; ++d) {
    const ComboEstimate die = die_estimate(profiles, assignment, d);
    out.power += die.dynamic;
    out.throughput_ips += die.ips;
  }
  return out;
}

Watts CombinedEstimator::estimate_after_assign(
    std::span<const ProcessProfile> profiles, const Assignment& current,
    std::size_t new_process, CoreId target_core,
    std::span<const Watts> current_core_power) const {
  current.validate(machine_.cores, profiles.size());
  REPRO_ENSURE(new_process < profiles.size(), "bad new process index");
  REPRO_ENSURE(target_core < machine_.cores, "bad target core");
  REPRO_ENSURE(current_core_power.size() == machine_.cores,
               "need one current power per core");

  const DieId die = machine_.core_to_die[target_core];
  const std::vector<CoreId> die_cores = machine_.cores_on_die(die);

  // Cores of the die after the tentative assignment.
  Assignment tentative = current;
  tentative.per_core[target_core].push_back(new_process);

  // Combination counts: |S_in| (include the new process) vs |S_ex|.
  // With the new process appended to core C's queue of length q_C,
  // |S_in| = Π_{other busy cores} |queue|, |S_ex| = q_C · |S_in| …
  // computed directly from the queues.
  std::size_t in_count = 1;
  std::size_t total_count = 1;
  for (CoreId c : die_cores) {
    const std::size_t q = tentative.per_core[c].size();
    if (q == 0) continue;
    total_count *= q;
    in_count *= (c == target_core) ? 1 : q;
  }
  const std::size_t ex_count = total_count - in_count;

  // P_in: average predicted dynamic power over combinations that
  // include the new process — enumerate with the new process pinned.
  double p_in_sum = 0.0;
  {
    std::vector<const std::vector<std::size_t>*> queues;
    std::vector<bool> pinned;
    for (CoreId c : die_cores) {
      if (tentative.per_core[c].empty()) continue;
      queues.push_back(&tentative.per_core[c]);
      pinned.push_back(c == target_core);
    }
    std::vector<std::size_t> cursor(queues.size(), 0);
    std::size_t counted = 0;
    while (true) {
      std::vector<const ProcessProfile*> combo;
      bool valid = true;
      for (std::size_t q = 0; q < queues.size(); ++q) {
        const std::size_t idx =
            pinned[q] ? queues[q]->back() : (*queues[q])[cursor[q]];
        if (pinned[q] && cursor[q] != 0) valid = false;
        combo.push_back(&profiles[idx]);
      }
      if (valid) {
        p_in_sum += combination_estimate(combo).dynamic;
        ++counted;
      }
      std::size_t q = 0;
      while (q < queues.size() && ++cursor[q] == queues[q]->size()) {
        cursor[q] = 0;
        ++q;
      }
      if (q == queues.size()) break;
    }
    REPRO_ENSURE(counted == in_count, "combination enumeration mismatch");
  }
  const double p_in = p_in_sum / static_cast<double>(in_count);

  // P_ex: current dynamic power of the die's busy cores (measured via
  // the model from live rates), idle-core terms handled below.
  double p_ex = 0.0;
  for (CoreId c : die_cores)
    if (!current.per_core[c].empty())
      p_ex += current_core_power[c] - model_.idle_core();

  // Eq. 11 assembled in dynamic-power space: the die contributes the
  // combination-weighted average; idle power enters once for the
  // package; other dies contribute their current dynamic power.
  const double die_dynamic =
      ex_count == 0
          ? p_in
          : (p_ex * static_cast<double>(ex_count) +
             p_in * static_cast<double>(in_count)) /
                static_cast<double>(total_count);

  double rest_dynamic = 0.0;
  for (CoreId c = 0; c < machine_.cores; ++c) {
    if (machine_.core_to_die[c] == die) continue;
    if (current.per_core[c].empty()) continue;
    rest_dynamic += current_core_power[c] - model_.idle_core();
  }
  return model_.idle_total() + die_dynamic + rest_dynamic;
}

}  // namespace repro::core
