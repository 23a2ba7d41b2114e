#include "repro/core/power_model.hpp"

#include <memory>

#include "repro/common/ensure.hpp"
#include "repro/common/thread_pool.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/microbench.hpp"

namespace repro::core {

namespace {

/// One training run's samples: (total rates across cores, measured
/// power), kept apart until every run is done.
struct RunSamples {
  std::vector<std::array<double, 5>> rows;
  std::vector<double> power;
};

RunSamples samples_of(const sim::RunResult& run) {
  RunSamples out;
  out.rows.reserve(run.samples.size());
  out.power.reserve(run.samples.size());
  for (const sim::Sample& s : run.samples) {
    hpc::EventRates total;
    for (const hpc::EventRates& r : s.core_rates) total += r;
    out.rows.push_back(total.regressors());
    out.power.push_back(s.measured_power);
  }
  return out;
}

/// Run N instances of one workload (one per core) and harvest samples.
RunSamples harvest_workload(const sim::MachineConfig& machine,
                            const power::OracleConfig& oracle,
                            const workload::WorkloadSpec& spec,
                            Seconds warmup, Seconds measure,
                            std::uint64_t seed) {
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, seed);
  for (CoreId c = 0; c < machine.cores; ++c)
    system.add_process(spec.name, c, spec.mix,
                       std::make_unique<workload::StackDistanceGenerator>(
                           spec, machine.l2.sets));
  system.warm_up(warmup);
  return samples_of(system.run(measure));
}

}  // namespace

PowerModel::PowerModel(Watts idle_total, std::array<double, 5> coefficients,
                       std::uint32_t cores)
    : idle_total_(idle_total), c_(coefficients), cores_(cores) {
  REPRO_ENSURE(cores_ > 0, "power model needs cores");
  REPRO_ENSURE(idle_total_ > 0.0, "idle power must be positive");
}

PowerModel PowerModel::fit(const PowerTrainingSet& data,
                           std::uint32_t cores) {
  REPRO_ENSURE(data.regressors.cols() == 5, "expected 5 regressors");
  const math::Mvlr::Fit f = math::Mvlr::fit(data.regressors, data.power);
  std::array<double, 5> c{};
  for (std::size_t j = 0; j < 5; ++j) c[j] = f.coefficients[j];
  return PowerModel(f.intercept, c, cores);
}

PowerTrainingSet PowerModel::collect(
    const sim::MachineConfig& machine, const power::OracleConfig& oracle,
    const std::vector<std::string>& training_workloads,
    const PowerTrainerOptions& options) {
  machine.validate();
  // Runs in list order: idle (the micro-benchmark's phase 0), the
  // SPEC-like training workloads (N instances each), then the
  // micro-benchmark phases 1–5 at 8 levels each. Run j is seeded
  // options.seed + j and owns its own System, so the runs fan out and
  // their rows are appended in list order whatever the thread count.
  const std::vector<workload::WorkloadSpec> cells =
      workload::microbench_all_phases();
  std::vector<const workload::WorkloadSpec*> specs;
  specs.reserve(training_workloads.size() + cells.size());
  for (const std::string& name : training_workloads)
    specs.push_back(&workload::find_spec(name));
  for (const workload::WorkloadSpec& cell : cells) specs.push_back(&cell);
  const std::size_t workloads = training_workloads.size();

  std::vector<RunSamples> runs(1 + specs.size());
  common::for_each_index(options.threads, runs.size(), [&](std::size_t j) {
    const std::uint64_t seed = options.seed + j;
    if (j == 0) {
      sim::SystemConfig cfg;
      cfg.machine = machine;
      sim::System system(cfg, oracle, seed);
      runs[j] = samples_of(system.run(options.run_idle));
      return;
    }
    const Seconds measure = j <= workloads ? options.run_per_workload
                                           : options.run_per_microbench;
    runs[j] = harvest_workload(machine, oracle, *specs[j - 1],
                               options.warmup, measure, seed);
  });

  PowerTrainingSet set;
  for (const RunSamples& run : runs)
    set.power.insert(set.power.end(), run.power.begin(), run.power.end());
  set.regressors = math::Matrix(set.power.size(), 5);
  std::size_t r = 0;
  for (const RunSamples& run : runs)
    for (const std::array<double, 5>& reg : run.rows) {
      for (std::size_t c = 0; c < 5; ++c) set.regressors(r, c) = reg[c];
      ++r;
    }
  return set;
}

PowerModel PowerModel::train(
    const sim::MachineConfig& machine, const power::OracleConfig& oracle,
    const std::vector<std::string>& training_workloads,
    const PowerTrainerOptions& options) {
  return fit(collect(machine, oracle, training_workloads, options),
             machine.cores);
}

Watts PowerModel::predict(
    std::span<const hpc::EventRates> per_core_rates) const {
  Watts p = idle_total_;
  for (const hpc::EventRates& r : per_core_rates) p += dynamic_power(r);
  return p;
}

Watts PowerModel::dynamic_power(const hpc::EventRates& rates) const {
  const std::array<double, 5> reg = rates.regressors();
  double p = 0.0;
  for (std::size_t j = 0; j < 5; ++j) p += c_[j] * reg[j];
  return p;
}

Watts time_shared_core_power(std::span<const Watts> process_powers) {
  REPRO_ENSURE(!process_powers.empty(), "no processes on core");
  double sum = 0.0;
  for (Watts p : process_powers) sum += p;
  return sum / static_cast<double>(process_powers.size());
}

Watts core_set_power(std::span<const Watts> combination_powers) {
  REPRO_ENSURE(!combination_powers.empty(), "no combinations");
  double sum = 0.0;
  for (Watts p : combination_powers) sum += p;
  return sum / static_cast<double>(combination_powers.size());
}

}  // namespace repro::core
