// Query path: what-if pricing through ModelEngine and Governor.
//
// Three timed phases share the budget: pooled predict_batch over
// batches of randomized co-schedules (predictions_per_s), single
// predict() calls from one caller thread (predict_p50_us /
// predict_p99_us), and Governor::plan decisions for a fixed process
// set under seeded power caps (plan_p50_ms). Every prediction is
// checked against the model's own fixed-point definition, not against
// stored numbers, so a solver rewrite is judged on correctness.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "alloc_count.hpp"
#include "paths.hpp"
#include "repro/common/ensure.hpp"
#include "repro/common/rng.hpp"
#include "repro/common/thread_pool.hpp"
#include "repro/core/analytic.hpp"
#include "repro/core/combined.hpp"
#include "repro/core/fill_model.hpp"
#include "repro/engine/governor.hpp"
#include "repro/workload/spec.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBatch = 128;
constexpr std::size_t kQueryRing = 1024;
constexpr std::size_t kGovernorProcesses = 2;
constexpr double kWarmupSeconds = 1.5;
// Phase shares of the path budget.
constexpr double kBatchShare = 0.45;
constexpr double kSingleShare = 0.35;

/// A random co-schedule: each core runs 0, 1 or 2 distinct processes,
/// so a die carries a share-weighted equilibrium of up to 4.
engine::CoScheduleQuery random_query(
    repro::Rng& rng, std::uint32_t cores,
    const std::vector<engine::ProcessHandle>& handles) {
  std::vector<engine::ProcessHandle> pool = handles;
  engine::CoScheduleQuery q;
  q.assignment = core::Assignment::empty(cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    const double u = rng.uniform();
    const std::size_t n = u < 0.3 ? 0 : (u < 0.7 ? 1 : 2);
    for (std::size_t k = 0; k < n && !pool.empty(); ++k) {
      const std::size_t pick = rng.uniform_index(pool.size());
      q.assignment.per_core[c].push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  if (q.assignment.process_count() == 0)
    q.assignment.per_core[rng.uniform_index(cores)].push_back(
        handles[rng.uniform_index(handles.size())]);
  return q;
}

/// The solver-independent definition of a correct prediction: the
/// processes come back in (die, core, slot) order and every process
/// sits on its own curves — MPA_i = histogram.mpa(S_i) and SPI_i =
/// Eq. 3 at MPA_i and its core's clock. A die running one process
/// gives it the whole cache (S = A). A die running k ≥ 2 is at the
/// Eq. 1/6 equilibrium: Σ S_i = A, and one horizon τ fills every
/// process to its size, τ = G_i⁻¹(S_i)·SPI_i / (share_i·API_i), where
/// share_i is 1/(processes on its core). A process pinned at the
/// model's minimum size fills slower than τ (τ_i ≥ τ); one pinned at A
/// fills faster (τ_i ≤ τ). The horizon is judged on a window of ±δ
/// ways around each S_i, so any solver within δ of the equilibrium
/// passes and an operating point δ or more away fails.
bool fixed_point(const engine::EngineSnapshot& snap,
                 const sim::MachineConfig& m,
                 const std::vector<repro::math::PiecewiseLinear>& fill,
                 const engine::CoScheduleQuery& q,
                 const engine::SystemPrediction& p, std::string* why) {
  const double ways = static_cast<double>(m.l2.ways);
  const double delta = 1e-6 * ways;
  const double min_ways = core::EquilibriumOptions{}.min_ways;
  std::size_t i = 0;
  for (std::uint32_t die = 0; die < m.dies; ++die) {
    double occupied = 0.0;
    std::size_t k = 0;
    // The horizon must lie in [tau_lo, tau_hi].
    double tau_lo = 0.0, tau_hi = std::numeric_limits<double>::infinity();
    for (repro::CoreId c : m.cores_on_die(die)) {
      const double share =
          1.0 / static_cast<double>(q.assignment.per_core[c].size());
      for (std::size_t handle : q.assignment.per_core[c]) {
        if (i >= p.processes.size() || p.processes[i].handle != handle ||
            p.processes[i].core != c) {
          *why = "processes missing or out of (die, core, slot) order";
          return false;
        }
        const core::ProcessPrediction& pred = p.processes[i++].prediction;
        const core::FeatureVector& fv = snap.profile(
            static_cast<engine::ProcessHandle>(handle)).features;
        const double s = pred.effective_size;
        if (!(s >= 0.0) || !std::isfinite(pred.spi) || !(pred.spi > 0.0)) {
          *why = "non-finite or negative operating point";
          return false;
        }
        occupied += s;
        ++k;
        if (std::fabs(pred.mpa - fv.histogram.mpa(s)) > 1e-9) {
          *why = "MPA off the histogram curve";
          return false;
        }
        const double hz = q.core_frequency.empty() ? m.frequency_of(c)
                                                   : q.core_frequency[c];
        const auto spi_at = [&](double mpa) {
          return fv.fit_frequency > 0.0 ? fv.spi_at(mpa, hz) : fv.spi_at(mpa);
        };
        const double want = spi_at(pred.mpa);
        if (std::fabs(pred.spi - want) > 1e-9 * want) {
          *why = "SPI off the Eq. 3 line";
          return false;
        }
        // τ_i over the window S ± δ (clipped to the model's range).
        double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
        for (double x : {s - delta, s, s + delta}) {
          x = std::clamp(x, min_ways, ways);
          const double tau = fill[handle](x) * spi_at(fv.histogram.mpa(x)) /
                             (share * fv.api);
          lo = std::min(lo, tau);
          hi = std::max(hi, tau);
        }
        if (s < ways - delta) tau_hi = std::min(tau_hi, hi);
        if (s > min_ways + delta) tau_lo = std::max(tau_lo, lo);
      }
    }
    if (k == 1 && std::fabs(occupied - ways) > delta) {
      *why = "a process alone on its die does not fill the cache";
      return false;
    }
    if (k >= 2) {
      if (std::fabs(occupied - ways) > delta) {
        *why = "die occupancy differs from the cache ways";
        return false;
      }
      if (tau_lo > tau_hi * (1.0 + 1e-12)) {
        *why = "no common fill horizon (not the Eq. 1/6 equilibrium)";
        return false;
      }
    }
  }
  if (i != p.processes.size()) {
    *why = "extra processes in the prediction";
    return false;
  }
  return true;
}

/// Moves a process along its own curves to size `s`, so only the
/// equilibrium conditions can tell the result from a real prediction.
core::ProcessPrediction at_size(const core::FeatureVector& fv, double s,
                                double hz) {
  core::ProcessPrediction p;
  p.effective_size = s;
  p.mpa = fv.histogram.mpa(s);
  p.spi = fv.fit_frequency > 0.0 ? fv.spi_at(p.mpa, hz) : fv.spi_at(p.mpa);
  p.aps = fv.api / p.spi;
  return p;
}

/// The check's own test. For every die carrying k ≥ 2 processes in the
/// first queries of `ring`, two on-curve operating points off the
/// equilibrium must fail fixed_point(): 0.1 way moved from the die's
/// first process to its second (Σ S_i = A kept), and the even split
/// S_i = A/k where it is 0.1 way or more from the prediction. Returns
/// how many were tested; 0 with *why set when one passed or the real
/// prediction failed.
std::size_t rejects_perturbed(
    const engine::ModelEngine& eng, const engine::EngineSnapshot& snap,
    const sim::MachineConfig& m,
    const std::vector<repro::math::PiecewiseLinear>& fill,
    const std::vector<engine::CoScheduleQuery>& ring, std::string* why) {
  constexpr std::size_t kQueries = 64;
  constexpr double kMove = 0.1;  // ways
  const double ways = static_cast<double>(m.l2.ways);
  std::size_t tested = 0;
  std::string ignored;
  for (std::size_t n = 0; n < std::min(kQueries, ring.size()); ++n) {
    const engine::CoScheduleQuery& q = ring[n];
    const engine::SystemPrediction real = eng.predict(snap, q);
    if (!fixed_point(snap, m, fill, q, real, why)) return 0;
    for (std::uint32_t die = 0; die < m.dies; ++die) {
      const std::vector<repro::CoreId> cores = m.cores_on_die(die);
      std::vector<std::size_t> on_die;
      for (std::size_t i = 0; i < real.processes.size(); ++i)
        if (std::find(cores.begin(), cores.end(), real.processes[i].core) !=
            cores.end())
          on_die.push_back(i);
      if (on_die.size() < 2) continue;
      const auto moved = [&](std::size_t i, double s) {
        const engine::ProcessOperatingPoint& pt = real.processes[i];
        return at_size(snap.profile(pt.handle).features, s,
                       m.frequency_of(pt.core));
      };
      const std::size_t a = on_die[0], b = on_die[1];
      const double sa = real.processes[a].prediction.effective_size;
      const double sb = real.processes[b].prediction.effective_size;
      const double d = std::min(kMove, sa - 1e-3);
      if (d > 0.0) {
        engine::SystemPrediction shifted = real;
        shifted.processes[a].prediction = moved(a, sa - d);
        shifted.processes[b].prediction = moved(b, sb + d);
        ++tested;
        if (fixed_point(snap, m, fill, q, shifted, &ignored)) {
          *why = "a prediction with 0.1 way moved between two processes "
                 "passed the check";
          return 0;
        }
      }
      const double even = ways / static_cast<double>(on_die.size());
      double off = 0.0;
      for (std::size_t i : on_die)
        off = std::max(off, std::fabs(
                                real.processes[i].prediction.effective_size -
                                even));
      if (off >= kMove) {
        engine::SystemPrediction split = real;
        for (std::size_t i : on_die)
          split.processes[i].prediction = moved(i, even);
        ++tested;
        if (fixed_point(snap, m, fill, q, split, &ignored)) {
          *why = "the even split S_i = A/k passed the check";
          return 0;
        }
      }
    }
  }
  if (tested == 0) *why = "no die with two processes to perturb";
  return tested;
}

bool identical(const engine::SystemPrediction& a,
               const engine::SystemPrediction& b) {
  if (a.processes.size() != b.processes.size()) return false;
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    const auto& pa = a.processes[i];
    const auto& pb = b.processes[i];
    if (pa.handle != pb.handle || pa.core != pb.core ||
        pa.cpu_share != pb.cpu_share ||
        pa.prediction.effective_size != pb.prediction.effective_size ||
        pa.prediction.mpa != pb.prediction.mpa ||
        pa.prediction.spi != pb.prediction.spi ||
        pa.prediction.aps != pb.prediction.aps ||
        pa.dynamic_power != pb.dynamic_power)
      return false;
  }
  return a.core_power == b.core_power && a.total_power == b.total_power &&
         a.throughput_ips == b.throughput_ips &&
         a.solver_iterations == b.solver_iterations;
}

/// Counts checked predictions and keeps the first failure's reason.
struct Verifier {
  const engine::EngineSnapshot& snap;
  const sim::MachineConfig& machine;
  const std::vector<repro::math::PiecewiseLinear>& fill;
  RunReport& report;
  std::uint64_t bad = 0;
  std::string first_failure;

  void operator()(const engine::CoScheduleQuery& q,
                  const engine::SystemPrediction& p) {
    ++report.attempted;
    std::string why;
    if (!fixed_point(snap, machine, fill, q, p, &why)) {
      ++report.failed;
      if (bad++ == 0) first_failure = why;
    }
  }
};

double ns_per_call(double seconds, std::size_t calls) {
  return 1e9 * seconds / static_cast<double>(calls);
}

/// Nanoseconds per snapshot() call with `readers` threads calling it
/// concurrently (median over the readers).
double snapshot_ns(const engine::ModelEngine& eng, std::size_t readers) {
  constexpr std::size_t kCalls = 200000;
  std::vector<double> per_reader(readers, 0.0);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < readers; ++r)
    threads.emplace_back([&, r] {
      // relaxed: a start barrier; the timed loop reads no shared data
      // that this orders.
      ready.fetch_add(1, std::memory_order_relaxed);
      while (ready.load(std::memory_order_relaxed) < readers) {
      }
      trace::Span root("path.query", trace::new_trace_id());
      trace::Span span("engine.ModelEngine.snapshot");
      std::uint64_t epochs = 0;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < kCalls; ++i)
        epochs += eng.snapshot()->epoch();
      per_reader[r] = ns_per_call(seconds_since(t0), kCalls);
      if (epochs == ~std::uint64_t{0}) per_reader[r] = 0.0;  // keep the loop
    });
  for (std::thread& t : threads) t.join();
  Samples s;
  for (double x : per_reader) s.add(x);
  return s.median();
}

}  // namespace

core::PowerModel synthetic_power_model(std::uint32_t cores) {
  return core::PowerModel(11.25 * static_cast<double>(cores),
                          {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9}, cores);
}

std::vector<core::ProcessProfile> analytic_suite_profiles(
    const sim::MachineConfig& machine, const core::PowerModel& power) {
  static const char* const kSuite[] = {"gzip",  "vpr", "mcf",    "bzip2",
                                       "twolf", "art", "equake", "ammp"};
  std::vector<core::ProcessProfile> out;
  for (const char* name : kSuite) {
    const repro::workload::WorkloadSpec& spec =
        repro::workload::find_spec(name);
    core::ProcessProfile p;
    p.name = name;
    p.features = core::analytic_features(spec, machine);
    p.alone.l1rpi = spec.mix.l1_rpi;
    p.alone.l2rpi = spec.mix.l2_api;
    p.alone.brpi = spec.mix.branch_pi;
    p.alone.fppi = spec.mix.fp_pi;
    p.alone.l2mpr = p.features.histogram.mpa(machine.l2.ways);
    p.alone.spi = p.features.spi_at(p.alone.l2mpr);
    p.power_alone = power.idle_total() +
                    core::process_dynamic_power(power, p.alone, p.alone.spi,
                                                p.alone.l2mpr);
    out.push_back(std::move(p));
  }
  return out;
}

namespace {

void build_fill_curves(QueryState& state,
                       const engine::EngineSnapshot& snap) {
  const core::EquilibriumOptions defaults;
  for (engine::ProcessHandle h : state.handles) {
    trace::Span span("core.fill_curve", trace::new_trace_id());
    const Clock::time_point t0 = Clock::now();
    state.fill.push_back(core::fill_curve(snap.profile(h).features.histogram,
                                          state.machine.l2.ways,
                                          defaults.mpa_floor));
    state.fill_build_s.add(seconds_since(t0));
  }
}

std::unique_ptr<engine::ModelEngine> serial_twin(
    const engine::ModelEngine& eng) {
  engine::EngineOptions options;
  options.threads = 1;
  auto twin = std::make_unique<engine::ModelEngine>(eng.machine(),
                                                    eng.power_model(), options);
  const auto snap = eng.snapshot();
  for (engine::ProcessHandle h : snap->live_handles())
    REPRO_ENSURE(twin->register_process(snap->profile(h)) == h,
                 "serial twin must reproduce the handles");
  return twin;
}

/// Prices every process alone once, so the engines' memoized
/// fill-curve artifacts are built before anything is timed.
void warm_artifacts(QueryState& state) {
  for (engine::ProcessHandle h : state.handles) {
    engine::CoScheduleQuery q;
    q.assignment = core::Assignment::empty(state.machine.cores);
    q.assignment.per_core[0].push_back(h);
    state.pooled->predict(q);
    state.serial->predict(q);
  }
}

}  // namespace

QueryState make_query_state(const sim::MachineConfig& machine,
                            const core::PowerModel& power,
                            const std::vector<core::ProcessProfile>& profiles,
                            const RunOptions& run) {
  QueryState state;
  state.machine = machine;
  engine::EngineOptions options;
  options.threads = run.threads;
  state.pooled =
      std::make_unique<engine::ModelEngine>(machine, power, options);
  for (const core::ProcessProfile& p : profiles) {
    trace::Span span("engine.ModelEngine.register_process");
    state.handles.push_back(state.pooled->register_process(p));
  }
  state.serial = serial_twin(*state.pooled);
  build_fill_curves(state, *state.pooled->snapshot());
  warm_artifacts(state);
  return state;
}

namespace {

/// The query path's timed run, one cycle at a time. Each cycle runs the
/// three phases for kCycleSeconds in the kBatchShare / kSingleShare /
/// rest proportion.
class QueryRun final : public PathRun {
 public:
  QueryRun(QueryState& state, bool focus, const RunOptions& run,
           RunReport& report)
      : state(state),
        focus(focus),
        run(run),
        report(report),
        rng(run.seed ^ 0x9e3779b97f4a7c15ULL),
        m(state.machine),
        pooled(*state.pooled),
        snap(pooled.snapshot()),
        verify{*snap, m, state.fill, report, 0, {}} {
    trace::Span path("path.query", trace::new_trace_id());
    // Inputs of the single-call and governor phases, drawn up front.
    ring.reserve(kQueryRing);
    for (std::size_t i = 0; i < kQueryRing; ++i)
      ring.push_back(random_query(rng, m.cores, state.handles));
    chosen = state.handles;
    for (std::size_t i = chosen.size(); i > 1; --i)
      std::swap(chosen[i - 1], chosen[rng.uniform_index(i)]);
    chosen.resize(std::min(kGovernorProcesses, chosen.size()));
    engine::CoScheduleQuery balanced;
    balanced.assignment = core::Assignment::empty(m.cores);
    for (std::size_t i = 0; i < chosen.size(); ++i)
      balanced.assignment.per_core[i % m.cores].push_back(chosen[i]);
    levels = m.dvfs_levels.empty() ? std::vector<repro::Hertz>{m.frequency}
                                   : m.dvfs_levels;
    balanced.core_frequency.assign(m.cores, levels.front());
    slowest = pooled.predict(*snap, balanced).total_power;
    balanced.core_frequency.assign(m.cores, levels.back());
    fastest = pooled.predict(*snap, balanced).total_power;

    // --- Warm-up: in a fresh process the pool runs at single-thread
    // speed for its first batches (about a second on a virtual
    // machine), so it is kept busy, untimed, before anything is
    // measured. ---
    for (const Clock::time_point warm = Clock::now();
         seconds_since(warm) < kWarmupSeconds;)
      pooled.predict_batch(*snap, random_batch());
  }

  bool enough() const override {
    return batches >= 4 && singles >= 1000 && plan_ms.size() >= 5;
  }

  void cycle() override {
    trace::Span path("path.query", trace::new_trace_id());
    // In the traced run the workload's own path alternates traced and
    // untraced cycles; the difference is the tracing overhead.
    const std::size_t n = cycles++;
    const bool on = run.traced && (!focus || n % 2 == 0);
    const trace::Cycle scope(run.traced, on);

    // Pooled predict_batch throughput.
    for (const Clock::time_point t = Clock::now();
         seconds_since(t) < kBatchShare * kCycleSeconds;) {
      const std::vector<engine::CoScheduleQuery> batch = random_batch();
      Clock::time_point t0 = Clock::now();
      std::vector<engine::SystemPrediction> out;
      {
        trace::Span span("engine.ModelEngine.predict_batch",
                         trace::new_trace_id());
        out = pooled.predict_batch(*snap, batch);
      }
      pooled_rate.add(static_cast<double>(kBatch) / seconds_since(t0));
      for (std::size_t i = 0; i < kBatch; ++i) verify(batch[i], out[i]);
      if (batches++ % 8 == 0) {
        // The engine promises bit-identical results at any thread count.
        t0 = Clock::now();
        std::vector<engine::SystemPrediction> ref;
        {
          trace::Span span("engine.ModelEngine.predict_batch.serial",
                           trace::new_trace_id());
          ref = state.serial->predict_batch(batch);
        }
        serial_rate.add(static_cast<double>(kBatch) / seconds_since(t0));
        for (std::size_t i = 0; i < kBatch; ++i)
          pooled_matches_serial &= identical(out[i], ref[i]);
      }
    }

    // Single predict() latency from one caller thread.
    for (const Clock::time_point t = Clock::now();
         seconds_since(t) < kSingleShare * kCycleSeconds; ++singles) {
      const engine::CoScheduleQuery& q = ring[singles % kQueryRing];
      const std::uint64_t a0 = thread_allocations();
      const Clock::time_point t0 = Clock::now();
      engine::SystemPrediction p;
      {
        trace::Span span("engine.ModelEngine.predict", trace::new_trace_id());
        p = pooled.predict(*snap, q);
      }
      const double us = 1e6 * seconds_since(t0);
      allocations += thread_allocations() - a0;
      latency_us.add(us);
      (on ? traced_us : untraced_us).add(us);
      verify(q, p);
    }

    // Governor decisions for the fixed process set; at least one per
    // cycle.
    const double plan_s = (1.0 - kBatchShare - kSingleShare) * kCycleSeconds;
    for (const Clock::time_point t = Clock::now();
         plan_ms.empty() || seconds_since(t) < plan_s;) {
      // Caps between the balanced placement's slowest and fastest
      // power, after the planning margin, so a feasible plan exists.
      engine::GovernorOptions options;
      options.power_cap =
          (slowest + rng.uniform(0.3, 0.9) * (fastest - slowest)) /
          (1.0 - options.margin);
      const engine::Governor governor(pooled, options);
      const Clock::time_point t0 = Clock::now();
      engine::GovernorDecision d;
      {
        trace::Span span("engine.Governor.plan", trace::new_trace_id());
        d = governor.plan(chosen);
      }
      const double sec = seconds_since(t0);
      plan_ms.add(1e3 * sec);
      evaluated.add(static_cast<double>(d.evaluated));
      candidates_per_s.add(static_cast<double>(d.evaluated) / sec);
      engine::CoScheduleQuery chosen_point;
      chosen_point.assignment = d.assignment;
      chosen_point.core_frequency = d.core_frequency;
      verify(chosen_point, d.prediction);
      const double cap = options.power_cap * (1.0 - options.margin);
      if (!d.feasible || d.prediction.total_power > cap * (1.0 + 1e-12)) {
        plans_ok = false;
        plan_failure = "plan over the cap or infeasible";
      }
      for (repro::Hertz hz : d.core_frequency)
        if (std::find(levels.begin(), levels.end(), hz) == levels.end()) {
          plans_ok = false;
          plan_failure = "plan uses a clock that is not a DVFS level";
        }
    }
  }

  void finish() override {
    trace::Span path("path.query", trace::new_trace_id());
    report.check("query.fixed_point", verify.bad == 0,
                 verify.bad == 0 ? "" : verify.first_failure);
    {
      std::string why;
      const std::size_t tested =
          rejects_perturbed(pooled, *snap, m, state.fill, ring, &why);
      report.check("query.fixed_point_rejects_perturbed", tested > 0,
                   tested > 0 ? std::to_string(tested) +
                                    " perturbed predictions rejected"
                              : why);
    }
    report.check("query.pooled_equals_serial", pooled_matches_serial,
                 pooled_matches_serial ? ""
                                       : "predict_batch results differ "
                                         "between the pool and threads=1");
    report.check("query.governor", plans_ok, plan_failure);

    report.end_to_end["predictions_per_s"] = {pooled_rate.median(), "1/s",
                                              pooled_rate.size()};
    report.end_to_end["predict_p50_us"] = {latency_us.median(), "us",
                                           latency_us.size()};
    report.end_to_end["predict_p99_us"] = {
        latency_us.block_quantile(0.99, kTailBlock), "us", latency_us.size()};
    report.end_to_end["plan_p50_ms"] = {plan_ms.median(), "ms",
                                        plan_ms.size()};

    auto& L = report.per_layer;
    L["common.thread_pool.speedup"] = {
        pooled_rate.median() / serial_rate.median(), "x", pooled_rate.size()};
    L["common.thread_pool.pooled_predictions_per_s"] = {
        pooled_rate.median(), "1/s", pooled_rate.size()};
    L["common.thread_pool.serial_predictions_per_s"] = {
        serial_rate.median(), "1/s", serial_rate.size()};
    L["engine.allocs_per_prediction"] = {
        static_cast<double>(allocations) /
            static_cast<double>(latency_us.size()),
        "count", latency_us.size()};
    // On monitor the window path reports the pipeline engine's rate.
    L.emplace("engine.artifact_hit_rate",
              Metric{pooled.cache_stats().hit_rate(), "ratio"});
    L["engine.governor.evaluated"] = {evaluated.median(), "count",
                                      evaluated.size()};
    L["engine.governor.candidates_per_s"] = {candidates_per_s.median(), "1/s",
                                             candidates_per_s.size()};
    L["core.fill_build_us"] = {1e6 * state.fill_build_s.median(), "us",
                               state.fill_build_s.size()};
    if (focus && run.traced)
      L["trace.overhead_pct"] = {
          100.0 * (traced_us.median() - untraced_us.median()) /
              untraced_us.median(),
          "%", latency_us.size()};
    if (!run.traced) return;

    // --- Layer replays (traced run only): direct calls into core and
    // common with the same inputs the engine priced. ---
    {
      const core::EquilibriumSolver solver(m.l2.ways);
      Samples solve_us, iterations;
      for (const engine::CoScheduleQuery& q : ring) {
        for (std::uint32_t die = 0; die < m.dies; ++die) {
          std::vector<core::FeatureVector> features;
          std::vector<double> shares;
          std::vector<const repro::math::PiecewiseLinear*> fill;
          for (repro::CoreId c : m.cores_on_die(die)) {
            const std::size_t k = q.assignment.per_core[c].size();
            for (std::size_t h : q.assignment.per_core[c]) {
              features.push_back(
                  snap->profile(static_cast<engine::ProcessHandle>(h))
                      .features);
              shares.push_back(1.0 / static_cast<double>(k));
              fill.push_back(&state.fill[h]);
            }
          }
          if (features.empty()) continue;
          core::SolveStats stats;
          core::SolveOptions options;
          options.cpu_share = shares;
          options.fill = fill;
          options.stats = &stats;
          const Clock::time_point t0 = Clock::now();
          {
            trace::Span span("core.EquilibriumSolver.solve",
                             trace::new_trace_id());
            solver.solve(features, options);
          }
          solve_us.add(1e6 * seconds_since(t0));
          iterations.add(stats.iterations);
        }
      }
      L["core.solve_us"] = {solve_us.median(), "us", solve_us.size()};
      L["core.solve_us_p99"] = {solve_us.quantile(0.99), "us", solve_us.size()};
      L["core.solver_iterations"] = {iterations.sum() / iterations.size(),
                                     "count", iterations.size()};
    }
    {
      // The §5 kernel on the operating points the engine predicted.
      constexpr std::size_t kRepeat = 64;
      const core::PowerModel& power = snap->power_model();
      std::vector<engine::ProcessOperatingPoint> points;
      for (std::size_t i = 0; i < 256; ++i)
        for (const auto& pt : pooled.predict(*snap, ring[i]).processes)
          points.push_back(pt);
      volatile double sink = 0.0;
      const Clock::time_point t0 = Clock::now();
      {
        trace::Span span("core.process_dynamic_power", trace::new_trace_id());
        for (std::size_t r = 0; r < kRepeat; ++r)
          for (const engine::ProcessOperatingPoint& pt : points)
            sink = sink + core::process_dynamic_power(
                              power, snap->profile(pt.handle).alone,
                              pt.prediction.spi, pt.prediction.mpa);
      }
      L["core.dynamic_power_ns"] = {
          ns_per_call(seconds_since(t0), points.size() * kRepeat), "ns",
          points.size() * kRepeat};
    }
    L["engine.snapshot_ns"] = {snapshot_ns(pooled, 1), "ns"};
    L["engine.snapshot_ns_4readers"] = {snapshot_ns(pooled, 4), "ns", 4};
    {
      constexpr std::size_t kTasks = 4096;
      repro::common::ThreadPool pool(run.threads);
      std::atomic<std::uint64_t> sink{0};
      Samples per_task_ns;
      for (int r = 0; r < 16; ++r) {
        const Clock::time_point t0 = Clock::now();
        {
          trace::Span span("common.ThreadPool.parallel_for",
                           trace::new_trace_id());
          pool.parallel_for(kTasks, [&](std::size_t i) {
            // relaxed: a sink that keeps the task body; orders nothing.
            sink.fetch_add(i, std::memory_order_relaxed);
          });
        }
        per_task_ns.add(ns_per_call(seconds_since(t0), kTasks));
      }
      L["common.thread_pool.dispatch_ns"] = {per_task_ns.median(), "ns",
                                             per_task_ns.size()};
    }
  }

 private:
  std::vector<engine::CoScheduleQuery> random_batch() {
    std::vector<engine::CoScheduleQuery> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
      batch.push_back(random_query(rng, m.cores, state.handles));
    return batch;
  }

  QueryState& state;
  const bool focus;
  const RunOptions& run;
  RunReport& report;
  repro::Rng rng;
  const sim::MachineConfig& m;
  engine::ModelEngine& pooled;
  const std::shared_ptr<const engine::EngineSnapshot> snap;
  Verifier verify;
  std::vector<engine::CoScheduleQuery> ring;
  std::vector<engine::ProcessHandle> chosen;
  std::vector<repro::Hertz> levels;
  double slowest = 0.0, fastest = 0.0;

  Samples pooled_rate, serial_rate;
  Samples latency_us, traced_us, untraced_us;
  Samples plan_ms, evaluated, candidates_per_s;
  bool pooled_matches_serial = true, plans_ok = true;
  std::string plan_failure;
  std::uint64_t allocations = 0;
  std::size_t batches = 0, singles = 0, cycles = 0;
};

}  // namespace

std::unique_ptr<PathRun> start_query_path(QueryState& state, bool focus,
                                          const RunOptions& run,
                                          RunReport& report) {
  return std::make_unique<QueryRun>(state, focus, run, report);
}

}  // namespace perfbench
