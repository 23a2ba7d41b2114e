#include "repro/core/combined.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "repro/core/assignment.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "workstation_training.hpp"

namespace repro::core {
namespace {

// Shared fixture state: profiling + power-model training once.
struct CombinedWorld {
  sim::MachineConfig machine = sim::two_core_workstation();
  power::OracleConfig oracle = power::oracle_for_two_core_workstation();
  std::vector<ProcessProfile> profiles;
  std::unique_ptr<CombinedEstimator> estimator;

  CombinedWorld() {
    const StressmarkProfiler profiler(machine, oracle);
    for (const char* name : {"gzip", "mcf", "vpr", "equake"})
      profiles.push_back(profiler.profile(workload::find_spec(name)));

    estimator = std::make_unique<CombinedEstimator>(
        workstation_power_model(), machine);
  }

  static const CombinedWorld& instance() {
    static const CombinedWorld world;
    return world;
  }

  std::size_t index(const std::string& name) const {
    for (std::size_t i = 0; i < profiles.size(); ++i)
      if (profiles[i].name == name) return i;
    throw Error("unknown profile " + name);
  }

  /// Measured mean power for an assignment, from the simulator.
  Watts simulate(const Assignment& a, std::uint64_t seed) const {
    sim::SystemConfig cfg;
    cfg.machine = machine;
    sim::System system(cfg, oracle, seed);
    for (CoreId c = 0; c < machine.cores; ++c)
      for (std::size_t idx : a.per_core[c]) {
        const auto& spec = workload::find_spec(profiles[idx].name);
        system.add_process(spec.name, c, spec.mix,
                           std::make_unique<workload::StackDistanceGenerator>(
                               spec, machine.l2.sets));
      }
    system.warm_up(0.04);
    return system.run(0.3).mean_measured_power();
  }
};

Assignment assign(const CombinedWorld& w,
                  std::vector<std::vector<const char*>> layout) {
  Assignment a = Assignment::empty(w.machine.cores);
  for (std::size_t c = 0; c < layout.size(); ++c)
    for (const char* name : layout[c])
      a.per_core[c].push_back(w.index(name));
  return a;
}

TEST(Assignment, ValidatesShape) {
  Assignment a = Assignment::empty(2);
  a.per_core[0].push_back(0);
  EXPECT_EQ(a.process_count(), 1u);
  EXPECT_NO_THROW(a.validate(2, 1));
  EXPECT_THROW(a.validate(3, 1), Error);
  a.per_core[1].push_back(7);
  EXPECT_THROW(a.validate(2, 1), Error);
}

TEST(CombinedEstimator, EmptyAssignmentIsIdlePower) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = Assignment::empty(w.machine.cores);
  EXPECT_NEAR(w.estimator->estimate(w.profiles, a),
              w.estimator->power_model().idle_total(), 1e-9);
}

TEST(CombinedEstimator, SingleProcessMatchesProfiledAlonePower) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = assign(w, {{"equake"}, {}});
  const Watts est = w.estimator->estimate(w.profiles, a);
  const Watts alone = w.profiles[w.index("equake")].power_alone;
  EXPECT_NEAR(est / alone, 1.0, 0.06);
}

TEST(CombinedEstimator, OneProcessPerCoreWithinFewPercentOfMeasured) {
  const CombinedWorld& w = CombinedWorld::instance();
  for (auto layout : {std::pair{"gzip", "mcf"}, std::pair{"vpr", "equake"},
                      std::pair{"mcf", "vpr"}}) {
    const Assignment a = assign(w, {{layout.first}, {layout.second}});
    const Watts est = w.estimator->estimate(w.profiles, a);
    const Watts meas = w.simulate(a, 101);
    EXPECT_NEAR(est / meas, 1.0, 0.08)
        << layout.first << "+" << layout.second << " est " << est
        << " meas " << meas;
  }
}

TEST(CombinedEstimator, TimeSharedCoreWithinFewPercentOfMeasured) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = assign(w, {{"gzip", "mcf"}, {"vpr", "equake"}});
  const Watts est = w.estimator->estimate(w.profiles, a);
  const Watts meas = w.simulate(a, 102);
  EXPECT_NEAR(est / meas, 1.0, 0.08) << "est " << est << " meas " << meas;
}

TEST(CombinedEstimator, AllProcessesOnOneCoreWithinFewPercent) {
  // The paper's easiest scenario (Table 4, "3 cores unused"): no cache
  // contention at all, so errors should be smallest.
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = assign(w, {{"gzip", "mcf", "vpr", "equake"}, {}});
  const Watts est = w.estimator->estimate(w.profiles, a);
  const Watts meas = w.simulate(a, 103);
  EXPECT_NEAR(est / meas, 1.0, 0.06) << "est " << est << " meas " << meas;
}

TEST(CombinedEstimator, MoreLoadNeverPredictsLessPowerThanIdle) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment b = assign(w, {{"mcf"}, {"vpr"}});
  EXPECT_GT(w.estimator->estimate(w.profiles, b),
            w.estimator->power_model().idle_total());
}

TEST(CombinedEstimator, Fig1IncrementalMatchesPureEstimate) {
  // With current powers taken from the pure model at the current
  // assignment, the incremental Fig. 1 path must approximate the pure
  // estimate of the grown assignment.
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment current = assign(w, {{"gzip"}, {}});
  // Current per-core powers: core 0 runs gzip alone, core 1 idle.
  std::vector<Watts> core_power(w.machine.cores,
                                w.estimator->power_model().idle_core());
  const auto& gzip = w.profiles[w.index("gzip")];
  core_power[0] += w.estimator->process_dynamic_power(
      gzip, gzip.alone.spi, gzip.alone.l2mpr);

  const Watts incremental = w.estimator->estimate_after_assign(
      w.profiles, current, w.index("mcf"), 1, core_power);
  Assignment grown = current;
  grown.per_core[1].push_back(w.index("mcf"));
  const Watts pure = w.estimator->estimate(w.profiles, grown);
  EXPECT_NEAR(incremental / pure, 1.0, 0.05);
}

TEST(AssignmentOptimizer, ExhaustiveFindsNoWorseThanGreedy) {
  const CombinedWorld& w = CombinedWorld::instance();
  const auto exhaustive = optimize_assignment(*w.estimator, w.profiles);
  const auto greedy = greedy_assignment(*w.estimator, w.profiles);
  EXPECT_LE(exhaustive.predicted_power, greedy.predicted_power + 1e-9);
  EXPECT_EQ(exhaustive.assignment.process_count(), w.profiles.size());
  EXPECT_EQ(exhaustive.evaluated, 16u);  // 2 cores ^ 4 processes
}

TEST(AssignmentOptimizer, PlacesEveryProcessExactlyOnce) {
  const CombinedWorld& w = CombinedWorld::instance();
  const auto result = greedy_assignment(*w.estimator, w.profiles);
  std::vector<int> seen(w.profiles.size(), 0);
  for (const auto& q : result.assignment.per_core)
    for (std::size_t idx : q) ++seen[idx];
  for (int s : seen) EXPECT_EQ(s, 1);
}

}  // namespace
}  // namespace repro::core
