#include "repro/core/profiler.hpp"

#include <algorithm>

#include "repro/common/ensure.hpp"
#include "repro/common/thread_pool.hpp"
#include "repro/math/stats.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/stressmark.hpp"

namespace repro::core {

StressmarkProfiler::StressmarkProfiler(const sim::MachineConfig& machine,
                                       const power::OracleConfig& oracle,
                                       ProfilerOptions options)
    : machine_(machine), oracle_(oracle), options_(options) {
  machine_.validate();
  REPRO_ENSURE(options_.target_core < machine_.cores, "bad target core");
  const std::vector<CoreId> partners =
      machine_.partner_set(options_.target_core);
  REPRO_ENSURE(!partners.empty(),
               "profiling needs a core sharing the target's cache");
  stress_core_ = partners.front();
  REPRO_ENSURE(options_.warmup >= 0.0 && options_.measure > 0.0,
               "bad profiling durations");
}

StressmarkProfiler::SweepPoint StressmarkProfiler::sweep_run(
    const workload::WorkloadSpec& spec, std::uint32_t w) const {
  const std::uint32_t a = machine_.l2.ways;
  const std::uint32_t sets = machine_.l2.sets;
  sim::SystemConfig cfg;
  cfg.machine = machine_;
  sim::System system(cfg, oracle_, options_.seed + w);
  const ProcessId target = system.add_process(
      spec.name, options_.target_core, spec.mix,
      std::make_unique<workload::StackDistanceGenerator>(spec, sets));
  ProcessId stress_pid = 0;
  if (w > 0) {
    const workload::WorkloadSpec stress = workload::make_stressmark_spec(w);
    stress_pid = system.add_process(stress.name, stress_core_, stress.mix,
                                    workload::make_stressmark(w, sets));
  }
  system.warm_up(options_.warmup);
  const sim::RunResult run = system.run(options_.measure);
  const sim::ProcessReport& report = run.process(target);

  SweepPoint point;
  point.mpa = report.mpa();
  point.spi = report.spi();
  if (w == 0) {
    point.s = static_cast<double>(a);
    point.alone = report.per_instruction();
    point.power = run.mean_measured_power();
    return point;
  }
  // A finite-speed stressmark does not hold exactly W ways against an
  // aggressive co-runner: the target evicts some of its lines between
  // revisits. The paper handles this by "tuning S_stress to control
  // S_B"; our equivalent correction uses the stressmark's *own*
  // observable miss ratio. The stressmark revisits each of its lines
  // every W accesses to a set; if a revisit misses with probability p
  // (its measured MPA), the line was absent for on average half the
  // revisit interval, so its true occupancy is ≈ W·(1 − p/2) ways and
  // the target's effective size is A minus that.
  const double stress_mpa = run.process(stress_pid).mpa();
  const double stress_ways =
      static_cast<double>(w) * (1.0 - 0.5 * stress_mpa);
  point.s = static_cast<double>(a) - stress_ways;
  return point;
}

ProcessProfile StressmarkProfiler::profile(
    const workload::WorkloadSpec& spec) const {
  return profile_all({spec}).front();
}

ProcessProfile StressmarkProfiler::assemble(
    const workload::WorkloadSpec& spec,
    std::span<const SweepPoint> points) const {
  const std::uint32_t a = machine_.l2.ways;
  ProcessProfile profile;
  profile.name = spec.name;
  profile.alone = points[0].alone;
  profile.power_alone = points[0].power;
  profile.spi_at_ways.assign(a, 0.0);

  std::vector<double> s_points, mpa_points, spi_points;
  s_points.reserve(a);
  mpa_points.reserve(a);
  spi_points.reserve(a);
  for (const SweepPoint& p : points) {
    s_points.push_back(p.s);
    mpa_points.push_back(p.mpa);
    spi_points.push_back(p.spi);
  }

  // Resample the (S, MPA) cloud onto the integer grid 1..A.
  {
    profile.mpa_at_ways = resample_mpa_curve(s_points, mpa_points, a);
    const math::LineFit spi_on_mpa = math::fit_line(mpa_points, spi_points);
    for (std::uint32_t s = 1; s <= a; ++s)
      profile.spi_at_ways[s - 1] =
          spi_on_mpa.slope * profile.mpa_at_ways[s - 1] +
          spi_on_mpa.intercept;
  }

  // --- Feature vector: Eq. 8 histogram + Eq. 3 regression. ---
  profile.features.name = spec.name;
  profile.features.histogram =
      ReuseHistogram::from_mpa_curve(profile.mpa_at_ways);
  profile.features.api = profile.alone.l2rpi;
  const math::LineFit fit = math::fit_line(mpa_points, spi_points);
  profile.features.alpha = fit.slope;
  profile.features.beta = fit.intercept;
  // Measurement noise on a nearly-flat MPA curve can produce a
  // (slightly) non-physical fit — SPI must not decrease with MPA; fall
  // back to the stand-alone operating point with the timing-model
  // slope sign convention. Keeping alpha >= 0 also matches what the
  // store format accepts back on load.
  if (profile.features.beta <= 0.0 || profile.features.alpha < 0.0) {
    profile.features.alpha = 0.0;
    profile.features.beta = profile.alone.spi;
  }
  // α/β were measured on the target core at its configured clock; a
  // consumer on a different clock must rescale (FeatureVector::
  // at_frequency), and the engine's apply gate refuses profiles whose
  // clock the machine cannot run at.
  profile.features.fit_frequency = machine_.frequency_of(options_.target_core);
  profile.features.validate();
  return profile;
}

std::vector<ProcessProfile> StressmarkProfiler::profile_all(
    const std::vector<workload::WorkloadSpec>& specs) const {
  for (const workload::WorkloadSpec& spec : specs) spec.validate();
  const std::uint32_t a = machine_.l2.ways;
  // Every spec's A runs go into one fan-out, so a short list still
  // fills the pool; run t is spec t / A at sweep index t % A.
  std::vector<SweepPoint> points(specs.size() * a);
  common::for_each_index(options_.threads, points.size(), [&](std::size_t t) {
    points[t] = sweep_run(specs[t / a], static_cast<std::uint32_t>(t % a));
  });
  std::vector<ProcessProfile> out;
  out.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    out.push_back(
        assemble(specs[i], std::span(points).subspan(i * a, a)));
  return out;
}

}  // namespace repro::core
