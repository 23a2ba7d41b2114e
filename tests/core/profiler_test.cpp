#include "repro/core/profiler.hpp"

#include <gtest/gtest.h>

#include "repro/core/analytic.hpp"
#include "repro/core/serialize.hpp"
#include "repro/workload/spec.hpp"

namespace repro::core {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  static const ProcessProfile& gzip_profile() {
    static const ProcessProfile p = make("gzip");
    return p;
  }
  static const ProcessProfile& vpr_profile() {
    static const ProcessProfile p = make("vpr");
    return p;
  }

  static ProcessProfile make(const std::string& name) {
    const StressmarkProfiler profiler(
        sim::two_core_workstation(),
        power::oracle_for_two_core_workstation());
    return profiler.profile(workload::find_spec(name));
  }
};

TEST_F(ProfilerTest, RecoversApiFromAloneRun) {
  const workload::WorkloadSpec& spec = workload::find_spec("gzip");
  EXPECT_NEAR(gzip_profile().features.api, spec.mix.l2_api, 1e-6);
}

TEST_F(ProfilerTest, RecoversInstructionRelatedRates) {
  const workload::WorkloadSpec& spec = workload::find_spec("vpr");
  const hpc::PerInstructionRates& r = vpr_profile().alone;
  EXPECT_NEAR(r.l1rpi, spec.mix.l1_rpi, 1e-6);
  EXPECT_NEAR(r.brpi, spec.mix.branch_pi, 1e-6);
  EXPECT_NEAR(r.fppi, spec.mix.fp_pi, 1e-6);
}

TEST_F(ProfilerTest, MpaCurveIsDecreasingInEffectiveSize) {
  const std::vector<Mpa>& curve = vpr_profile().mpa_at_ways;
  for (std::size_t s = 1; s < curve.size(); ++s)
    EXPECT_LE(curve[s], curve[s - 1] + 0.03) << "at S = " << s + 1;
}

TEST_F(ProfilerTest, SpiLawMatchesTimingModel) {
  // The fitted α and β must recover the simulator's timing identity.
  const sim::MachineConfig machine = sim::two_core_workstation();
  const FeatureVector analytic =
      analytic_features(workload::find_spec("vpr"), machine);
  const FeatureVector& fitted = vpr_profile().features;
  EXPECT_NEAR(fitted.beta / analytic.beta, 1.0, 0.05);
  EXPECT_NEAR(fitted.alpha / analytic.alpha, 1.0, 0.25);
}

TEST_F(ProfilerTest, HistogramApproximatesGenerativeTruth) {
  // Compare the profiled MPA curve against the analytic histogram at
  // each effective size (the profiling identity, Eq. 8).
  const sim::MachineConfig machine = sim::two_core_workstation();
  const FeatureVector analytic =
      analytic_features(workload::find_spec("vpr"), machine);
  const ProcessProfile& profile = vpr_profile();
  for (std::uint32_t s = 2; s <= machine.l2.ways; ++s)
    EXPECT_NEAR(profile.features.histogram.mpa(s), analytic.histogram.mpa(s),
                0.08)
        << "S = " << s;
}

TEST_F(ProfilerTest, PowerAloneIsAboveIdle) {
  EXPECT_GT(gzip_profile().power_alone, 26.0);
  EXPECT_LT(gzip_profile().power_alone, 60.0);
}

TEST_F(ProfilerTest, FeatureVectorIsSolverReady) {
  EXPECT_NO_THROW(gzip_profile().features.validate());
  EXPECT_NO_THROW(vpr_profile().features.validate());
  const EquilibriumSolver solver(sim::two_core_workstation().l2.ways);
  const auto pred =
      solver.solve({gzip_profile().features, vpr_profile().features});
  EXPECT_NEAR(pred[0].effective_size + pred[1].effective_size,
              sim::two_core_workstation().l2.ways, 1e-6);
}

TEST(ProfilerConfig, RejectsMachinesWithoutCacheSharing) {
  sim::MachineConfig lonely = sim::two_core_workstation();
  lonely.cores = 1;
  lonely.core_to_die = {0};
  EXPECT_THROW(StressmarkProfiler(lonely,
                                  power::oracle_for_two_core_workstation()),
               Error);
}

// The sweep's runs are independent Systems with their own seeds, so
// the thread count may change how fast a profile comes out, never its
// bytes. Shortened runs keep each test to a few seconds.
class ProfilerThreads : public ::testing::Test {
 protected:
  static ProfilerOptions shortened(std::size_t threads) {
    ProfilerOptions o;
    o.warmup = 0.005;
    o.measure = 0.01;
    o.threads = threads;
    return o;
  }

  static StressmarkProfiler profiler(const ProfilerOptions& options) {
    return StressmarkProfiler(sim::two_core_workstation(),
                              power::oracle_for_two_core_workstation(),
                              options);
  }

  static std::string store_text(std::vector<ProcessProfile> profiles) {
    ModelStore store;
    store.profiles = std::move(profiles);
    return write_store_text(store);
  }
};

TEST_F(ProfilerThreads, ProfileIsByteIdenticalAcrossThreadCounts) {
  const workload::WorkloadSpec& spec = workload::find_spec("vpr");
  const std::string serial =
      store_text({profiler(shortened(1)).profile(spec)});
  for (std::size_t threads : {std::size_t{2}, std::size_t{0}})
    EXPECT_EQ(store_text({profiler(shortened(threads)).profile(spec)}),
              serial)
        << "threads = " << threads;
}

TEST_F(ProfilerThreads, ProfileAllIsByteIdenticalAcrossThreadCounts) {
  const std::vector<workload::WorkloadSpec> specs{
      workload::find_spec("gzip"), workload::find_spec("mcf")};
  const std::string serial =
      store_text(profiler(shortened(1)).profile_all(specs));
  for (std::size_t threads : {std::size_t{2}, std::size_t{0}})
    EXPECT_EQ(store_text(profiler(shortened(threads)).profile_all(specs)),
              serial)
        << "threads = " << threads;
  // One fan-out over every spec's runs gives what per-spec calls give.
  std::vector<ProcessProfile> one_by_one;
  one_by_one.reserve(specs.size());
  for (const workload::WorkloadSpec& spec : specs)
    one_by_one.push_back(profiler(shortened(1)).profile(spec));
  EXPECT_EQ(store_text(std::move(one_by_one)), serial);
}

TEST_F(ProfilerThreads, FailingRunSurfacesAsError) {
  // A measurement window shorter than the simulator's time resolution
  // records no sample, so the stand-alone run throws inside the pool.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ProfilerOptions o = shortened(threads);
    o.measure = 1e-13;
    EXPECT_THROW(profiler(o).profile(workload::find_spec("gzip")), Error)
        << "threads = " << threads;
    EXPECT_THROW(profiler(o).profile_all({workload::find_spec("gzip"),
                                          workload::find_spec("mcf")}),
                 Error)
        << "threads = " << threads;
  }
}

}  // namespace
}  // namespace repro::core
