// Profile path: the paper's O(k) calibration cost and its accuracy.
//
// Set-up co-runs every unordered pair of the path's specs (self-pairs
// included) on the 2-core workstation simulator: the measured side of
// Table 1. The path first profiles each spec once with
// StressmarkProfiler at its default durations (A = 8 co-runs per
// process), prices every pair with the engine and compares the
// predictions with the co-runs. Each timed cycle then re-profiles the
// next spec with shortened co-runs: these give calibrate_s its samples,
// and every full round must reproduce the first one's serialized store
// byte for byte. The path always runs on a fixed seed, so its accuracy
// figures do not move from run to run.
#include <cmath>
#include <cstdio>

#include "paths.hpp"
#include "repro/common/ensure.hpp"
#include "repro/common/rng.hpp"
#include "repro/core/profiler.hpp"
#include "repro/core/serialize.hpp"
#include "repro/sim/cache.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/spec.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Two specs from opposite ends of the suite: cache-sized vpr and
/// streaming mcf, so the priced pairs include a distinct-spec co-run.
const char* const kSpecs[] = {"vpr", "mcf"};
constexpr double kCoRunWarmup = 0.05;  // virtual seconds, as Table 1
constexpr double kCoRunMeasure = 0.12;
// Timing rounds: shortened profiler co-runs, at least this many rounds.
constexpr double kTimingWarmup = 0.005;
constexpr double kTimingMeasure = 0.01;
constexpr std::size_t kMinTimingRounds = 3;

std::uint64_t corun_seed(std::uint64_t seed, std::size_t a, std::size_t b) {
  return seed * 0x100000001b3ULL + 97 * a + b + 1;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// One profile: the profiler's output, the seconds profile() and
/// profile() + validate() took, and the validate() failure, if any.
struct Profiled {
  core::ProcessProfile profile;
  double profile_s = 0.0, calibrate_s = 0.0;
  std::string invalid;
};

Profiled profile_one(const core::StressmarkProfiler& profiler,
                     const char* name, RunReport& report) {
  Profiled r;
  const Clock::time_point t0 = Clock::now();
  {
    trace::Span span("core.StressmarkProfiler.profile", trace::new_trace_id());
    r.profile = profiler.profile(repro::workload::find_spec(name));
  }
  r.profile_s = seconds_since(t0);
  ++report.attempted;
  try {
    r.profile.features.validate();
  } catch (const repro::Error& e) {
    ++report.failed;
    r.invalid = std::string(name) + ": " + e.what();
  }
  r.calibrate_s = seconds_since(t0);
  return r;
}

}  // namespace

ProfileState make_profile_state(const RunOptions& run) {
  constexpr std::size_t kN = std::size(kSpecs);
  ProfileState st;
  st.machine = sim::two_core_workstation();
  st.oracle = repro::power::oracle_for_two_core_workstation();
  for (std::size_t a = 0; a < kN; ++a) {
    for (std::size_t b = a; b < kN; ++b) {
      sim::SystemConfig cfg;
      cfg.machine = st.machine;
      sim::System system(cfg, st.oracle, corun_seed(run.seed, a, b));
      for (std::size_t slot = 0; slot < 2; ++slot) {
        const repro::workload::WorkloadSpec& spec =
            repro::workload::find_spec(kSpecs[slot == 0 ? a : b]);
        system.add_process(
            spec.name, static_cast<repro::CoreId>(slot), spec.mix,
            std::make_unique<repro::workload::StackDistanceGenerator>(
                spec, st.machine.l2.sets));
      }
      CoRun r;
      r.a = a;
      r.b = b;
      const std::uint64_t trace_id = trace::new_trace_id();
      {
        trace::Span span("sim.System.warm_up", trace_id);
        system.warm_up(kCoRunWarmup);
      }
      const Clock::time_point t0 = Clock::now();
      sim::RunResult result;
      {
        trace::Span span("sim.System.run", trace_id);
        result = system.run(kCoRunMeasure);
      }
      r.host_s = seconds_since(t0);
      for (std::size_t slot = 0; slot < 2; ++slot) {
        const sim::ProcessReport& report =
            result.process(static_cast<repro::ProcessId>(slot));
        r.mpa[slot] = report.mpa();
        r.spi[slot] = report.spi();
        r.accesses += report.counters.l2_refs;
      }
      st.coruns.push_back(r);
    }
  }
  return st;
}

bool same_coruns(const std::vector<CoRun>& a, const std::vector<CoRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t slot = 0; slot < 2; ++slot)
      if (a[i].mpa[slot] != b[i].mpa[slot] || a[i].spi[slot] != b[i].spi[slot])
        return false;
  return true;
}

namespace {

class ProfileRun final : public PathRun {
 public:
  ProfileRun(ProfileState& st, const RunOptions& run, RunReport& report)
      : st(st),
        run(run),
        report(report),
        profiler(st.machine, st.oracle, shortened()) {
    trace::Span path("path.profile", trace::new_trace_id());
    // --- Accuracy round at the profiler's default durations and seed
    // (the seed is part of the calibration procedure). ---
    const core::StressmarkProfiler defaults(st.machine, st.oracle);
    core::ModelStore store;
    for (const char* name : kSpecs) {
      Profiled p = profile_one(defaults, name, report);
      if (invalid.empty()) invalid = p.invalid;
      default_s.add(p.profile_s);
      store.profiles.push_back(std::move(p.profile));
    }
    accuracy_fnv = fnv1a(core::write_store_text(store));

    // Price every co-run (Table 1 method: a self-pair's prediction is
    // compared with the mean of its two measured instances).
    engine::EngineOptions eo;
    eo.threads = 1;
    engine::ModelEngine eng(st.machine,
                            synthetic_power_model(st.machine.cores), eo);
    for (const core::ProcessProfile& p : store.profiles)
      eng.register_process(p);
    for (const CoRun& r : st.coruns) {
      engine::CoScheduleQuery q;
      q.assignment = core::Assignment::empty(st.machine.cores);
      q.assignment.per_core[0].push_back(r.a);
      q.assignment.per_core[1].push_back(r.b);
      engine::SystemPrediction pred;
      {
        trace::Span span("engine.ModelEngine.predict", trace::new_trace_id());
        pred = eng.predict(q);
      }
      ++report.attempted;
      const auto compare = [&](std::size_t slot, double mpa, double spi) {
        const core::ProcessPrediction& p = pred.processes[slot].prediction;
        spi_err.add(100.0 * std::fabs(p.spi - spi) / spi);
        mpa_err.add(100.0 * std::fabs(p.mpa - mpa));
      };
      if (r.a == r.b) {
        compare(0, 0.5 * (r.mpa[0] + r.mpa[1]), 0.5 * (r.spi[0] + r.spi[1]));
      } else {
        compare(0, r.mpa[0], r.spi[0]);
        compare(1, r.mpa[1], r.spi[1]);
      }
    }
  }

  bool enough() const override { return rounds >= kMinTimingRounds; }

  /// One timing profile (the next spec, shortened co-runs). A finished
  /// round must serialize byte-identical to the first.
  void cycle() override {
    trace::Span path("path.profile", trace::new_trace_id());
    Profiled p = profile_one(profiler, kSpecs[round.profiles.size()], report);
    if (invalid.empty()) invalid = p.invalid;
    profile_s.add(p.profile_s);
    calibrate_s.add(p.calibrate_s);
    round.profiles.push_back(std::move(p.profile));
    if (round.profiles.size() < std::size(kSpecs)) return;
    const std::string text = core::write_store_text(round);
    if (rounds++ == 0)
      first_store = text;
    else if (text != first_store)
      reproducible = false;
    round = core::ModelStore{};
  }

  void finish() override {
    trace::Span path("path.profile", trace::new_trace_id());
    report.check("profile.validate", invalid.empty(), invalid);
    report.check(
        "profile.store_reproducible", reproducible,
        reproducible ? "" : "a later round serialized different bytes");
    report.info["profile.store_fnv1a"] = {
        static_cast<double>(accuracy_fnv >> 11), "hash"};
    report.info["profile.default_profile_s"] = {default_s.median(), "s",
                                                default_s.size()};

    report.end_to_end["calibrate_s"] = {calibrate_s.median(), "s",
                                        calibrate_s.size()};
    report.end_to_end["spi_err_pct"] = {spi_err.sum() / spi_err.size(), "%",
                                        st.coruns.size()};
    report.end_to_end["mpa_err_pts"] = {mpa_err.sum() / mpa_err.size(), "pts",
                                        st.coruns.size()};

    auto& L = report.per_layer;
    L["core.profile_s"] = {profile_s.median(), "s", profile_s.size()};
    Samples run_s, accesses_per_s;
    for (const CoRun& r : st.coruns) {
      run_s.add(r.host_s);
      accesses_per_s.add(r.accesses / r.host_s);
    }
    L["sim.run_s"] = {run_s.median(), "s", run_s.size()};
    L["sim.accesses_per_s"] = {accesses_per_s.median(), "1/s",
                               accesses_per_s.size()};
    if (!run.traced) return;

    // --- Layer replays (traced run only): the workload generator and the
    // shared cache called directly on the two specs' interleaved streams. ---
    constexpr std::size_t kAccesses = 1 << 19;
    const std::uint32_t sets = st.machine.l2.sets;
    const repro::workload::WorkloadSpec& s0 =
        repro::workload::find_spec(kSpecs[0]);
    const repro::workload::WorkloadSpec& s1 =
        repro::workload::find_spec(kSpecs[1]);
    repro::workload::StackDistanceGenerator g0(s0, sets), g1(s1, sets);
    repro::Rng rng(run.seed);
    std::vector<sim::MemoryAccess> stream(kAccesses);
    Clock::time_point t0 = Clock::now();
    {
      trace::Span span("workload.StackDistanceGenerator.next",
                       trace::new_trace_id());
      for (std::size_t i = 0; i < kAccesses; ++i)
        stream[i] = (i % 2 == 0 ? g0 : g1).next(rng);
    }
    L["workload.gen_ns_per_access"] = {
        1e9 * seconds_since(t0) / static_cast<double>(kAccesses), "ns",
        kAccesses};
    sim::SharedCache cache(st.machine.l2, false, 2);
    std::size_t hits = 0;
    t0 = Clock::now();
    {
      trace::Span span("sim.SharedCache.access", trace::new_trace_id());
      for (std::size_t i = 0; i < kAccesses; ++i)
        hits += cache.access(stream[i], static_cast<repro::ProcessId>(i % 2));
    }
    L["sim.cache_ns_per_access"] = {
        1e9 * seconds_since(t0) / static_cast<double>(kAccesses), "ns",
        kAccesses};
    report.info["sim.cache_hit_ratio"] = {
        static_cast<double>(hits) / static_cast<double>(kAccesses), "ratio"};
  }

 private:
  static core::ProfilerOptions shortened() {
    core::ProfilerOptions o;
    o.warmup = kTimingWarmup;
    o.measure = kTimingMeasure;
    return o;
  }

  ProfileState& st;
  const RunOptions& run;
  RunReport& report;
  const core::StressmarkProfiler profiler;  // shortened co-runs
  Samples spi_err, mpa_err, default_s;
  Samples calibrate_s, profile_s;
  std::uint64_t accuracy_fnv = 0;
  core::ModelStore round;  // the timing round in progress
  std::size_t rounds = 0;
  std::string first_store, invalid;
  bool reproducible = true;
};

}  // namespace

std::unique_ptr<PathRun> start_profile_path(ProfileState& st,
                                            const RunOptions& run,
                                            RunReport& report) {
  return std::make_unique<ProfileRun>(st, run, report);
}

}  // namespace perfbench
