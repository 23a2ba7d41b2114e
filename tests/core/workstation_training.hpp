// The §4.1 power-training set of the 2-core workstation, shared by the
// test_core_pipeline suites. Collecting it runs ~50 simulations, so it
// is collected once per test binary (a function-local static) instead
// of once per suite.
#pragma once

#include "repro/core/power_model.hpp"
#include "repro/power/oracle.hpp"
#include "repro/sim/machine.hpp"

namespace repro::core {

/// Training runs shortened from the defaults; same workloads, cells
/// and seeds.
inline PowerTrainerOptions workstation_training_options() {
  PowerTrainerOptions o;
  o.warmup = 0.02;
  o.run_per_workload = 0.24;
  o.run_per_microbench = 0.09;
  o.run_idle = 0.3;
  return o;
}

inline const PowerTrainingSet& workstation_training_set() {
  static const PowerTrainingSet data = PowerModel::collect(
      sim::two_core_workstation(), power::oracle_for_two_core_workstation(),
      {"gzip", "mcf", "art", "equake"}, workstation_training_options());
  return data;
}

/// The Eq. 9 model fitted on workstation_training_set() — what
/// PowerModel::train returns for the same arguments.
inline const PowerModel& workstation_power_model() {
  static const PowerModel model = PowerModel::fit(
      workstation_training_set(), sim::two_core_workstation().cores);
  return model;
}

}  // namespace repro::core
