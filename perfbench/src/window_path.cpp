// Window path: synthetic per-die HPC windows through ShardedPipeline.
//
// Two producer threads, one per die lane of the 4-core server, push
// windows into a 2-shard pipeline with inline ingest, the journal on
// (default fsync policy) and a query over every monitored process, so
// each applied revision pays a warm-started re-solve. The windows come
// from a seeded generator with a known truth per process: occupancy
// sweeps a few points so fits succeed, MPA and SPI lie exactly on an
// Eq. 3 line, the processes switch between two α/β phases every
// kPhaseWindows windows of each lane (a few windows apart from each
// other), and a stated share of windows is corrupted (counter wrap,
// reordered delivery, implausible counters).
// Closed-loop rounds measure saturation; open-loop segments at a fixed
// per-lane rate measure latency from each window's due time. Each
// one-second cycle has both, and the workload interleaves the cycles
// with those of its other paths.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "paths.hpp"
#include "repro/common/rng.hpp"
#include "repro/online/journal.hpp"
#include "repro/online/profile_builder.hpp"
#include "repro/online/sanitizer.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kLanes = 2;
constexpr std::size_t kProcsPerLane = 4;
constexpr double kOpenRatePerLane = 400.0;  // windows/s, open loop
constexpr double kCorruptShare = 0.01;      // of all windows
constexpr double kWindow = 0.03;  // seconds of virtual time per window
constexpr std::size_t kClosedRoundWindows = 256;  // per lane
// Share of a cycle in closed-loop rounds; the open loop gets the rest.
constexpr double kClosedShare = 0.25;
/// Windows per phase: every lane's processes switch between their two
/// α/β phases this often, which also bounds how many windows a
/// ProfileBuilder holds for its current phase, so the cost of a refit
/// does not grow with the run.
constexpr std::uint64_t kPhaseWindows = 1024;
/// Process k of a lane switches phase 4·k windows before the lane's
/// boundary. A confirmed phase change restarts a process's periodic
/// refit count, so after the first switch the four processes refit on
/// different windows (every 16th each, the ProfileBuilder default): one
/// revision per push, as when processes change phase independently,
/// rather than four re-solves queued in one push every 16 windows.
constexpr std::uint64_t kPhaseStagger = 4;

/// The phase process `t` runs in at window `seq` of its lane, counting
/// switches from 0.
std::uint64_t phase_count(const WindowTruth& t, std::uint64_t seq) {
  return (seq + t.phase_lead) / kPhaseWindows;
}

enum class Corruption { kNone, kWrap, kReorder, kImplausible };

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Which corruption (if any) hits window `seq` of `lane`: wrap,
/// reorder or implausible, each a third of kCorruptShare. Only even
/// windows are corrupted, so a reordered window's stale predecessor was
/// always forwarded; the first windows and those around the phase
/// switches (all within kPhaseStagger·kProcsPerLane windows before a
/// lane boundary) stay clean so the detector and the MAD filter see a
/// settled stream.
Corruption corruption_at(std::uint64_t seed, repro::DieId lane,
                         std::uint64_t seq) {
  if (seq < 32 || seq % 2 != 0) return Corruption::kNone;
  const std::uint64_t pos = seq % kPhaseWindows;
  if (pos < 24 || pos + 24 > kPhaseWindows) return Corruption::kNone;
  const std::uint64_t h = mix64(seed ^ mix64(lane * 0x100000001ULL + seq));
  // Only even windows qualify, so double the per-window odds.
  if (static_cast<double>(h % 1000000) >= 2.0 * kCorruptShare * 1e6)
    return Corruption::kNone;
  switch ((h >> 32) % 3) {
    case 0: return Corruption::kWrap;
    case 1: return Corruption::kReorder;
    default: return Corruption::kImplausible;
  }
}

/// The clean window `seq` of `lane`: every process on the lane runs
/// its truth line for the phase `seq` falls in.
sim::Sample make_window(const WindowState& st, repro::DieId lane,
                        std::uint64_t seq) {
  const std::size_t total = st.truth.size();
  sim::Sample s;
  s.duration = kWindow;
  s.time = kWindow * static_cast<double>(seq + 1);
  s.seq = seq;
  s.die = lane;
  s.core_rates.resize(st.machine.cores);
  s.occupancy.assign(total, 0.0);
  s.process_delta.resize(total);
  s.process_cpu.assign(total, 0.0);
  for (const WindowTruth& t : st.truth) {
    if (t.lane != lane) continue;
    const std::size_t phase = phase_count(t, seq) % 2;
    const double u = static_cast<double>((seq * 7 + t.pid * 3) % 6) / 5.0;
    const double scale = 1.0 + 0.05 * static_cast<double>((seq + t.pid) % 7);
    repro::hpc::Counters& d = s.process_delta[t.pid];
    d.instructions = std::round(2.5e6 * scale);
    d.l2_refs = std::round(t.api * d.instructions);
    d.l2_misses = std::round(t.mpa0[phase] * (1.1 - 0.2 * u) * d.l2_refs);
    d.l1_refs = std::round(0.33 * d.instructions);
    d.branches = std::round(0.15 * d.instructions);
    d.fp_ops = std::round(0.05 * d.instructions);
    const double spi = t.alpha[phase] * d.mpa() + t.beta[phase];
    s.process_cpu[t.pid] = d.instructions * spi;
    d.cycles = std::round(s.process_cpu[t.pid] * st.machine.frequency);
    s.occupancy[t.pid] = 1.0 + 3.0 * u;
  }
  return s;
}

/// Applies a wrap or implausible corruption to a clean window.
void corrupt(const WindowState& st, Corruption c, repro::DieId lane,
             std::uint64_t seq, sim::Sample& s) {
  std::vector<std::size_t> pids;
  for (const WindowTruth& t : st.truth)
    if (t.lane == lane) pids.push_back(t.pid);
  const std::size_t pid = pids[mix64(seq) % pids.size()];
  repro::hpc::Counters& d = s.process_delta[pid];
  if (c == Corruption::kWrap)
    d.l1_refs -= 4294967296.0;  // a 32-bit counter read across its wrap
  else if (c == Corruption::kImplausible)
    d.l2_misses = 2.0 * d.l2_refs;  // MPA > 1
}

/// Pushes per lane, and what the sanitizer must account for.
struct Injected {
  std::uint64_t pushes = 0;
  std::uint64_t wraps = 0;
  std::uint64_t reorders = 0;
  std::uint64_t implausible = 0;
};

/// One lane's window `seq`, corruptions included, pushed in order.
/// Returns the number of pushes (2 when a stale window follows).
std::size_t push_window(WindowState& st, const RunOptions& run,
                        repro::DieId lane, std::uint64_t seq,
                        Injected& inj) {
  const Corruption c = corruption_at(run.seed, lane, seq);
  sim::Sample s = make_window(st, lane, seq);
  if (c == Corruption::kWrap || c == Corruption::kImplausible)
    corrupt(st, c, lane, seq, s);
  {
    trace::Span span("online.ShardedPipeline.push", trace::new_trace_id());
    st.pipeline->push(s);
  }
  ++inj.pushes;
  if (c == Corruption::kWrap) ++inj.wraps;
  if (c == Corruption::kImplausible) ++inj.implausible;
  if (c == Corruption::kReorder) {
    // Redelivery of the previous window after this one.
    const sim::Sample stale = make_window(st, lane, seq - 1);
    trace::Span span("online.ShardedPipeline.push", trace::new_trace_id());
    st.pipeline->push(stale);
    ++inj.pushes;
    ++inj.reorders;
    return 2;
  }
  return 1;
}

/// One long-lived thread per producer lane. run(job) hands every lane
/// the same job and returns once all lanes have finished it, so rounds
/// and segments reuse the same threads instead of paying thread start-up
/// inside the timed region.
class Producers {
 public:
  explicit Producers(std::size_t lanes) {
    for (std::size_t lane = 0; lane < lanes; ++lane)
      threads_.emplace_back([this, lane] { loop(lane); });
  }
  ~Producers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Producers(const Producers&) = delete;
  Producers& operator=(const Producers&) = delete;

  /// Runs job(lane) on every lane's thread; rethrows the first failure.
  void run(const std::function<void(repro::DieId)>& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    error_ = nullptr;
    pending_ = threads_.size();
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void loop(std::size_t lane) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(repro::DieId)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      std::exception_ptr error;
      try {
        (*job)(static_cast<repro::DieId>(lane));
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !error_) error_ = error;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_, done_cv_;
  const std::function<void(repro::DieId)>* job_ = nullptr;
  std::exception_ptr error_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

void spin_until(Clock::time_point due) {
  // Spin, not sleep: a producer that slept until shortly before each
  // due time left its vCPU idle, and on a shared 4-vCPU host
  // window_p50_us then spread 48-58% over ten runs (12-14% spinning)
  // while the pipeline's own work (revision_p50_us) held at 6-8%.
  while (Clock::now() < due) {
  }
}

core::ProcessProfile initial_profile(const WindowTruth& t, std::uint32_t ways) {
  std::vector<double> mpa_at_ways(ways);
  for (std::uint32_t s = 1; s <= ways; ++s) {
    const double u = std::clamp((static_cast<double>(s) - 1.0) / 3.0, 0.0, 1.0);
    mpa_at_ways[s - 1] = t.mpa0[0] * (1.1 - 0.2 * u);
  }
  core::FeatureVector f;
  f.name = "proc" + std::to_string(t.pid);
  f.histogram = core::ReuseHistogram::from_mpa_curve(mpa_at_ways);
  f.api = t.api;
  f.alpha = t.alpha[0];
  f.beta = t.beta[0];
  core::ProcessProfile p;
  p.name = f.name;
  p.alone.l1rpi = 0.33;
  p.alone.l2rpi = t.api;
  p.alone.brpi = 0.15;
  p.alone.fppi = 0.05;
  p.alone.l2mpr = f.histogram.mpa(ways);
  p.alone.spi = f.spi_at(p.alone.l2mpr);
  p.power_alone = 20.0;
  p.features = std::move(f);
  return p;
}

}  // namespace

WindowState::~WindowState() {
  pipeline.reset();  // joins the journal thread before the file goes
  if (!journal_path.empty()) std::remove(journal_path.c_str());
}

std::unique_ptr<WindowState> make_window_state(const RunOptions& run) {
  auto st = std::make_unique<WindowState>();
  st->machine = sim::four_core_server();
  repro::Rng rng(run.seed ^ 0x5bd1e995ULL);
  for (repro::DieId lane = 0; lane < kLanes; ++lane) {
    const std::vector<repro::CoreId> cores = st->machine.cores_on_die(lane);
    for (std::size_t k = 0; k < kProcsPerLane; ++k) {
      WindowTruth t;
      t.pid = lane * kProcsPerLane + k;
      t.lane = lane;
      t.core = cores[k % cores.size()];
      t.phase_lead = kPhaseStagger * k;
      t.api = rng.uniform(0.004, 0.02);
      t.mpa0[0] = rng.uniform(0.08, 0.2);
      t.mpa0[1] = t.mpa0[0] * rng.uniform(2.0, 2.5);
      t.alpha[0] = rng.uniform(1e-9, 4e-9);
      t.alpha[1] = t.alpha[0] * rng.uniform(0.6, 1.6);
      t.beta[0] = rng.uniform(3e-10, 8e-10);
      t.beta[1] = t.beta[0] * rng.uniform(0.8, 1.3);
      st->truth.push_back(t);
    }
  }

  engine::EngineOptions eopts;
  eopts.threads = run.threads;
  st->engine = std::make_unique<engine::ModelEngine>(
      st->machine, synthetic_power_model(st->machine.cores), eopts);

  online::ShardedPipelineOptions options;
  options.shards = 2;
  options.producers = kLanes;
  options.inline_ingest = true;
  // Set-up runs several times per process; each pipeline gets its own
  // journal so a discarded set-up cannot remove a live one's file.
  static int instance = 0;
  st->journal_path = run.work_dir + "/window-journal-" +
                     std::to_string(::getpid()) + "-" +
                     std::to_string(instance++) + ".bin";
  options.durability.journal_path = st->journal_path;
  options.durability.recover = false;
  st->pipeline = std::make_unique<online::ShardedPipeline>(*st->engine,
                                                           options);

  engine::CoScheduleQuery query;
  query.assignment = core::Assignment::empty(st->machine.cores);
  for (const WindowTruth& t : st->truth) {
    engine::ProcessHandle h;
    {
      trace::Span span("engine.ModelEngine.register_process");
      h = st->engine->register_process(
          initial_profile(t, st->machine.l2.ways));
    }
    st->pipeline->monitor(static_cast<repro::ProcessId>(t.pid), t.lane, h);
    query.assignment.per_core[t.core].push_back(h);
  }
  st->pipeline->set_query(std::move(query));
  return st;
}

namespace {

/// The window path's timed run, one cycle at a time: closed-loop rounds
/// for kClosedShare of a cycle, then an open-loop segment for the rest.
class WindowRun final : public PathRun {
 public:
  WindowRun(WindowState& st, bool focus, const RunOptions& run,
            RunReport& report)
      : st(st), focus(focus), run(run), report(report), producers(kLanes) {
    trace::Span path("path.window", trace::new_trace_id());
    // Not timed: warms the vCPUs and runs past the first phase switch,
    // after which the processes' refits are staggered.
    closed_round(kPhaseWindows + 64);
  }

  bool enough() const override {
    return closed_rate.size() >= 3 && latency.size() >= kTailBlock;
  }

  void cycle() override {
    trace::Span path("path.window", trace::new_trace_id());
    const std::size_t n = cycles++;
    const bool on = run.traced && (!focus || n % 2 == 0);
    const trace::Cycle scope(run.traced, on);
    for (const Clock::time_point t = Clock::now();
         seconds_since(t) < kClosedShare * kCycleSeconds;) {
      const double r = closed_round(kClosedRoundWindows);
      closed_rate.add(r);
      (on ? traced_rate : untraced_rate).add(r);
    }
    open_segment(static_cast<std::uint64_t>(
        std::ceil(kOpenRatePerLane * (1.0 - kClosedShare) * kCycleSeconds)));
  }

  void finish() override {
    trace::Span path("path.window", trace::new_trace_id());
    // End mid-phase, untimed, so the last phase change is confirmed and
    // its fit has settled before the truth is checked.
    const std::uint64_t pos = next_seq % kPhaseWindows;
    closed_round(pos <= kPhaseWindows / 2 ? kPhaseWindows / 2 - pos
                                          : 3 * kPhaseWindows / 2 - pos);
    {
      trace::Span span("online.ShardedPipeline.finish");
      st.pipeline->finish();
    }

    Injected inj;
    for (const Injected& l : lane_inj) {
      inj.pushes += l.pushes;
      inj.wraps += l.wraps;
      inj.reorders += l.reorders;
      inj.implausible += l.implausible;
    }
    report.attempted += inj.pushes;

    // --- Output checks. ---
    const online::PipelineSnapshot snap = st.pipeline->snapshot();
    const online::PipelineStats& s = snap.stats;
    const online::PipelineHealth& h = s.health;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "seen %llu forwarded %llu quarantined %llu dropped %llu "
                  "pushed %llu",
                  static_cast<unsigned long long>(h.windows_seen),
                  static_cast<unsigned long long>(h.windows_forwarded),
                  static_cast<unsigned long long>(h.windows_quarantined),
                  static_cast<unsigned long long>(h.windows_dropped),
                  static_cast<unsigned long long>(inj.pushes));
    report.check("window.counters_reconcile",
                 h.windows_seen == inj.pushes &&
                     h.windows_seen == h.windows_forwarded +
                                           h.windows_quarantined +
                                           h.windows_dropped,
                 buf);
    std::snprintf(
        buf, sizeof buf,
        "injected wrap/reorder/implausible %llu/%llu/%llu; repaired %llu, "
        "quarantined order/implausible/outlier %llu/%llu/%llu",
        static_cast<unsigned long long>(inj.wraps),
        static_cast<unsigned long long>(inj.reorders),
        static_cast<unsigned long long>(inj.implausible),
        static_cast<unsigned long long>(h.windows_repaired),
        static_cast<unsigned long long>(snap.sanitizer.quarantined_order),
        static_cast<unsigned long long>(snap.sanitizer.quarantined_implausible),
        static_cast<unsigned long long>(snap.sanitizer.quarantined_outlier));
    report.check("window.corruptions_accounted",
                 h.windows_repaired == inj.wraps &&
                     snap.sanitizer.quarantined_order == inj.reorders &&
                     snap.sanitizer.quarantined_implausible ==
                         inj.implausible &&
                     snap.sanitizer.quarantined_outlier == 0 &&
                     h.windows_dropped == 0,
                 buf);
    std::uint64_t phase_steps = 0;
    for (const WindowTruth& t : st.truth)
      phase_steps += phase_count(t, next_seq - 1);
    std::snprintf(buf, sizeof buf,
                  "%llu phase changes confirmed, %llu injected",
                  static_cast<unsigned long long>(s.phase_changes),
                  static_cast<unsigned long long>(phase_steps));
    report.check("window.phase_steps_detected", s.phase_changes == phase_steps,
                 buf);
    {
      bool ok = true;
      double worst = 0.0;
      for (const WindowTruth& t : st.truth) {
        const auto handle = st.pipeline->handle_of(
            static_cast<repro::ProcessId>(t.pid));
        if (!handle) {
          ok = false;
          continue;
        }
        const core::FeatureVector f = st.engine->profile(*handle).features;
        const std::size_t ph = phase_count(t, next_seq - 1) % 2;
        worst = std::max({worst, std::fabs(f.alpha / t.alpha[ph] - 1.0),
                          std::fabs(f.beta / t.beta[ph] - 1.0)});
      }
      std::snprintf(buf, sizeof buf, "worst relative alpha/beta error %.3g",
                    worst);
      report.check("window.truth_recovered", ok && worst < 1e-6, buf);
    }
    {
      // The scan holds every journaled record in memory; keep that out
      // of peak_rss_mb.
      report.rss_peak_mb = std::max(report.rss_peak_mb, rss_high_water_mb());
      const std::size_t records =
          repro::online::scan_journal(st.journal_path).records.size();
      reset_rss_high_water();
      std::snprintf(buf, sizeof buf,
                    "revisions %llu, journaled %llu, journal records %zu, "
                    "write failures %llu",
                    static_cast<unsigned long long>(s.revisions),
                    static_cast<unsigned long long>(s.journaled_events),
                    records,
                    static_cast<unsigned long long>(h.journal_write_failures));
      report.check("window.journal_matches_revisions",
                   s.revisions > 0 &&
                       s.journaled_events == s.revisions + s.power_revisions &&
                       records == s.journaled_events &&
                       h.journal_write_failures == 0,
                   buf);
    }

    report.end_to_end["windows_per_s"] = {closed_rate.median(), "1/s",
                                          closed_rate.size()};
    report.end_to_end["window_p50_us"] = {latency.median(), "us",
                                          latency.size()};
    report.end_to_end["revision_p50_us"] = {revision.median(), "us",
                                            revision.size()};

    auto& L = report.per_layer;
    // Not gated (see README): on a shared host this tail followed the
    // load generator's millisecond stalls (loadgen.lag_p99_ms), not the
    // pipeline's own work.
    L["window_p99_us"] = {latency.block_quantile(0.99, kTailBlock), "us",
                          latency.size()};
    L["loadgen.lag_p99_ms"] = {1e-3 * lag.quantile(0.99), "ms", lag.size()};
    L["online.windows_quarantined"] = {
        static_cast<double>(h.windows_quarantined), "count"};
    L["online.windows_dropped"] = {static_cast<double>(h.windows_dropped),
                                   "count"};
    L["online.resolves"] = {static_cast<double>(s.resolves), "count"};
    L["online.coalesced_resolves"] = {static_cast<double>(s.coalesced_resolves),
                                      "count"};
    const double emitted =
        static_cast<double>(s.revisions + h.revisions_rejected);
    L["online.revisions_applied"] = {static_cast<double>(s.revisions), "count"};
    L["online.revisions_emitted"] = {emitted, "count"};
    L["online.fit_accept_ratio"] = {
        emitted > 0.0 ? static_cast<double>(s.revisions) / emitted : 0.0,
        "ratio"};
    {
      Samples iterations;
      for (const online::PipelineEvent& e : st.pipeline->events())
        if (e.is_profile() && e.profile().resolved)
          iterations.add(e.profile().solver_iterations);
      L["engine.resolve_iterations"] = {
          iterations.empty() ? 0.0 : iterations.sum() / iterations.size(),
          "count", iterations.size()};
    }
    if (focus)
      L["engine.artifact_hit_rate"] = {
          st.engine->cache_stats().hit_rate(), "ratio"};
    if (focus && run.traced)
      L["trace.overhead_pct"] = {
          100.0 * (untraced_rate.median() - traced_rate.median()) /
              untraced_rate.median(),
          "%", closed_rate.size()};
    if (!run.traced) return;

    // --- Layer replays (traced run only): the same windows through the
    // online layer's public classes, one call at a time. ---
    constexpr std::uint64_t kReplay = 2000;
    {
      online::SampleSanitizerOptions so;
      so.ways = st.machine.l2.ways;
      online::SampleSanitizer sanitizer(so);
      online::ProfileBuilderOptions bo;
      bo.ways = st.machine.l2.ways;
      online::ProfileBuilder builder("replay", bo);
      const std::size_t pid = st.truth.front().pid;
      Samples sanitize_us, build_us;
      std::uint64_t index = 0;
      for (std::uint64_t seq = 0; seq < kReplay; ++seq) {
        const Corruption c =
            corruption_at(run.seed, 0, seq);
        std::vector<sim::Sample> deliveries{make_window(st, 0, seq)};
        if (c == Corruption::kWrap || c == Corruption::kImplausible)
          corrupt(st, c, 0, seq, deliveries.back());
        if (c == Corruption::kReorder)
          deliveries.push_back(make_window(st, 0, seq - 1));
        for (const sim::Sample& w : deliveries) {
          sim::Sample clean;
          Clock::time_point t0 = Clock::now();
          bool forwarded;
          {
            trace::Span span("online.SampleSanitizer.sanitize",
                             trace::new_trace_id());
            forwarded = sanitizer.sanitize(w, &clean);
          }
          sanitize_us.add(1e6 * seconds_since(t0));
          if (!forwarded) continue;
          online::WindowObservation obs;
          obs.index = index++;
          obs.time = clean.time;
          obs.duration = clean.duration;
          obs.delta = clean.process_delta[pid];
          obs.cpu_time = clean.process_cpu[pid];
          obs.occupancy = clean.occupancy[pid];
          t0 = Clock::now();
          {
            trace::Span span("online.ProfileBuilder.push",
                             trace::new_trace_id());
            builder.push(obs);
          }
          build_us.add(1e6 * seconds_since(t0));
        }
      }
      L["online.sanitize_us"] = {sanitize_us.sum() / sanitize_us.size(), "us",
                                 sanitize_us.size()};
      L["online.build_us"] = {build_us.sum() / build_us.size(), "us",
                              build_us.size()};
    }
    {
      const std::string path = run.work_dir + "/replay-journal-" +
                               std::to_string(::getpid()) + ".bin";
      online::JournalWriter writer;
      online::JournalOptions jo;
      jo.fsync = online::JournalFsync::kOff;  // syncs are timed separately
      bool ok = writer.open(path, jo, 0);
      Samples append_us, sync_us;
      const auto snapshot = st.engine->snapshot();
      const std::vector<engine::ProcessHandle> handles =
          snapshot->live_handles();
      for (std::size_t i = 0; i < 512 && ok; ++i) {
        online::JournalRecord rec;
        rec.seq = i;
        rec.time = kWindow * static_cast<double>(i);
        rec.handle = handles[i % handles.size()];
        rec.revision = i + 1;
        rec.profile = snapshot->profile(rec.handle);
        Clock::time_point t0 = Clock::now();
        {
          trace::Span span("online.JournalWriter.append",
                           trace::new_trace_id());
          ok = writer.append(rec);
        }
        append_us.add(1e6 * seconds_since(t0));
        if (i % 32 == 31) {
          t0 = Clock::now();
          {
            trace::Span span("online.JournalWriter.sync",
                             trace::new_trace_id());
            ok = ok && writer.sync();
          }
          sync_us.add(1e6 * seconds_since(t0));
        }
      }
      writer.close();
      std::remove(path.c_str());
      report.check("window.journal_replay_writes", ok, writer.last_error());
      L["online.journal_append_us"] = {append_us.sum() / append_us.size(), "us",
                                       append_us.size()};
      L["online.journal_sync_us"] = {sync_us.sum() / sync_us.size(), "us",
                                     sync_us.size()};
    }
    {
      // try_apply on a private engine holding the same profiles: each
      // revision nudges α so it is a real change behind the handle.
      engine::EngineOptions eo;
      eo.threads = 1;
      engine::ModelEngine scratch(st.machine, st.engine->power_model(), eo);
      const auto snapshot = st.engine->snapshot();
      const std::vector<engine::ProcessHandle> handles =
          snapshot->live_handles();
      for (engine::ProcessHandle hd : handles)
        scratch.register_process(snapshot->profile(hd));
      Samples apply_us;
      bool applied = true;
      for (std::size_t i = 0; i < 512; ++i) {
        const engine::ProcessHandle hd = handles[i % handles.size()];
        core::ProcessProfile p = snapshot->profile(hd);
        p.revision += i + 1;
        p.features.alpha *= 1.0 + 1e-6 * static_cast<double>(i % 2);
        const Clock::time_point t0 = Clock::now();
        engine::ApplyResult r;
        {
          trace::Span span("engine.ModelEngine.try_apply",
                           trace::new_trace_id());
          r = scratch.try_apply(engine::Revision::process(hd, std::move(p)));
        }
        apply_us.add(1e6 * seconds_since(t0));
        applied &= r.applied;
      }
      report.check("window.try_apply_replay", applied);
      L["engine.try_apply_us"] = {apply_us.median(), "us", apply_us.size()};
    }
  }

 private:
  /// One closed-loop round: both lanes push `windows` windows flat out.
  /// Returns windows pushed per second.
  double closed_round(std::uint64_t windows) {
    std::size_t pushed[kLanes] = {0, 0};
    const Clock::time_point t0 = Clock::now();
    {
      trace::Span join("loadgen.join");
      producers.run([&](repro::DieId lane) {
        trace::Span root("path.window", trace::new_trace_id());
        for (std::uint64_t i = 0; i < windows; ++i)
          pushed[lane] +=
              push_window(st, run, lane, next_seq + i, lane_inj[lane]);
      });
    }
    next_seq += windows;
    return static_cast<double>(pushed[0] + pushed[1]) / seconds_since(t0);
  }

  /// One open-loop segment: each lane pushes `windows` windows at the
  /// fixed rate, each timed from its due time. Lanes are offset by half
  /// an interval, so ordinary windows of the two lanes do not contend
  /// for the coordinator.
  void open_segment(std::uint64_t windows) {
    struct LaneTimes {
      std::vector<double> latency_us, lag_us, revision_us;
    };
    LaneTimes times[kLanes];
    const double rate = kOpenRatePerLane;
    const Clock::time_point open_start =
        Clock::now() + std::chrono::milliseconds(1);
    {
      trace::Span join("loadgen.join");
      producers.run([&](repro::DieId lane) {
        trace::Span root("path.window", trace::new_trace_id());
        LaneTimes& lt = times[lane];
        for (std::uint64_t i = 0; i < windows; ++i) {
          const Clock::time_point due =
              open_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   (static_cast<double>(i) +
                                    static_cast<double>(lane) / kLanes) /
                                   rate));
          {
            trace::Span wait("loadgen.wait_until_due");
            spin_until(due);
          }
          // Only the pre-push epoch read (one snapshot() call) falls
          // inside the timed span [due, end]; the read that detects a
          // publish comes after `end`.
          const Clock::time_point start = Clock::now();
          const std::uint64_t epoch = st.engine->snapshot()->epoch();
          push_window(st, run, lane, next_seq + i, lane_inj[lane]);
          const Clock::time_point end = Clock::now();
          const bool published = st.engine->snapshot()->epoch() != epoch;
          const double us = 1e6 * seconds_between(due, end);
          lt.latency_us.push_back(us);
          lt.lag_us.push_back(1e6 * seconds_between(due, start));
          if (published) lt.revision_us.push_back(us);
        }
      });
    }
    next_seq += windows;
    for (const LaneTimes& lt : times) {
      for (double x : lt.latency_us) latency.add(x);
      for (double x : lt.lag_us) lag.add(x);
      for (double x : lt.revision_us) revision.add(x);
    }
  }

  WindowState& st;
  const bool focus;
  const RunOptions& run;
  RunReport& report;
  Injected lane_inj[kLanes];
  std::uint64_t next_seq = 0;
  Samples latency, lag, revision;
  Samples closed_rate, traced_rate, untraced_rate;
  std::size_t cycles = 0;
  Producers producers;  // last: its threads stop before the rest goes
};

}  // namespace

std::unique_ptr<PathRun> start_window_path(WindowState& st, bool focus,
                                           const RunOptions& run,
                                           RunReport& report) {
  return std::make_unique<WindowRun>(st, focus, run, report);
}

}  // namespace perfbench
