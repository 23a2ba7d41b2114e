// ModelEngine — the batched, thread-pool-parallel prediction facade.
//
// The paper's headline use case (§7) is *on-line* what-if analysis:
// enumerate candidate co-schedules / partitions / core assignments and
// predict SPI and power for each before committing to any of them.
// Hand-wiring EquilibriumSolver + PowerModel per candidate, as the
// tools and examples historically did, recomputes each process's fill
// curve G⁻¹ for every candidate — by far the most expensive part of a
// prediction — and evaluates candidates serially.
//
// ModelEngine owns a registry of profiled processes, memoizes each
// process's derived artifacts (the fill curve G⁻¹, its inverse
// tabulation G, and the MPA curve) per registration, and exposes a
// batch API that fans candidate co-schedules out across a small
// work-stealing thread pool. Per-candidate results are bit-identical
// to the direct single-threaded EquilibriumSolver + PowerModel
// composition, independent of thread count — candidates are pure
// functions of the registered profiles.
//
// Concurrency model: engine state is published as immutable
// RCU-style *epoch snapshots*. snapshot() hands back a
// shared_ptr<const EngineSnapshot> holding one consistent (profiles,
// memoized artifacts, power model) triple; predict()/predict_batch()
// resolve a snapshot once and run entirely against it, so the read
// path never takes the builder mutex, and a revision landing mid-batch
// cannot tear it or hold it for the length of a rebuild. It is not
// wait-free: std::atomic<std::shared_ptr> is not lock-free on
// libstdc++ (its load takes a short internal spin lock), so concurrent
// snapshot() calls contend with each other and with the publish.
// Writers (register_process, try_apply, collect_garbage) serialize on
// a builder mutex, assemble the next snapshot off to the side, and
// publish it with a single atomic pointer swap. Validation happens
// before any builder state is touched: a rejected revision publishes
// nothing and the last-good snapshot stays current.
//
// Contention semantics: one CPU-share-weighted equilibrium per die over
// all of the die's processes (a time-shared process's lines stay
// resident between timeslices). For co-schedules with at most one
// process per core — the common sweep case — this coincides with the
// paper's per-combination formulation. Queries may also pin an
// explicit way partition per die (Xu et al. [11] lineage), priced via
// predict_partitioned.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "repro/common/mutex.hpp"
#include "repro/common/thread_annotations.hpp"
#include "repro/common/thread_pool.hpp"
#include "repro/common/units.hpp"
#include "repro/core/combined.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/math/piecewise.hpp"
#include "repro/sim/machine.hpp"

namespace repro::engine {

/// Stable identifier of a registered process. Handles index the
/// engine's registry and double as the process indices inside a
/// query's Assignment. Re-registering a profile under an existing name
/// keeps the handle and invalidates the cached artifacts.
using ProcessHandle = std::uint32_t;

struct EngineOptions {
  core::EquilibriumOptions equilibrium{};
  /// kNewton is the right choice for the on-line pipeline (a warm
  /// start near the fixed point converges in 1–2 iterations); if a
  /// Newton solve fails to converge — typical for *cold* starts on
  /// nearly-flat MPA curves — the engine transparently re-solves that
  /// query with the robust bisection method.
  core::SolveOptions::Method method = core::SolveOptions::Method::kBisection;
  /// Worker threads for predict_batch: 0 = one per hardware thread,
  /// 1 = run the batch inline on the calling thread (no pool).
  std::size_t threads = 0;
};

/// One candidate co-schedule: a process-to-core mapping whose indices
/// are ProcessHandles, plus an optional explicit way partition.
struct CoScheduleQuery {
  core::Assignment assignment;

  /// Optional per-die way quotas. Empty = every die shares its cache
  /// freely (LRU). Otherwise one vector per die; an empty inner vector
  /// leaves that die shared, a non-empty one lists the way quota of
  /// each of the die's processes in (core, slot) order and must sum to
  /// at most the cache ways.
  std::vector<std::vector<std::uint32_t>> partition;

  /// Optional warm start for the equilibrium solve: one S_i seed per
  /// scheduled process in (core, slot) order — typically the previous
  /// prediction's effective sizes before a small profile revision.
  /// With Method::kNewton a close seed converges in 1–2 iterations.
  /// Empty = cold solve (bit-identical to the pre-warm-start engine).
  std::vector<double> warm_start;

  /// Optional what-if clock per core: the (assignment, frequency)
  /// joint knob. Empty = the machine's configured frequencies;
  /// otherwise one positive Hertz per core, and every profile with a
  /// recorded fit frequency is rescaled to its core's clock before the
  /// equilibrium solve (Eq. 3's 1/f factor). Profiles with
  /// fit_frequency 0 (legacy) are used as-is, reproducing the
  /// pre-frequency-aware behaviour bit-identically.
  std::vector<Hertz> core_frequency;
};

/// One process's predicted steady state inside a SystemPrediction.
struct ProcessOperatingPoint {
  ProcessHandle handle = 0;
  CoreId core = 0;
  double cpu_share = 1.0;              // 1/(run-queue length) on its core
  core::ProcessPrediction prediction;  // S, MPA, SPI, APS
  Watts dynamic_power = 0.0;           // §5 decomposition; 0 w/o power model
};

/// Per-candidate result: per-process operating points in (core, slot)
/// order plus the §4/§5 power assembly.
struct SystemPrediction {
  std::vector<ProcessOperatingPoint> processes;
  /// Per-core power (idle share + time-averaged dynamic); empty when
  /// the engine was built without a power model.
  std::vector<Watts> core_power;
  /// Whole-package power; 0 when the engine has no power model.
  Watts total_power = 0.0;
  /// Σ share-weighted instructions/s over all processes.
  double throughput_ips = 0.0;
  /// Equilibrium solver iterations summed over the candidate's dies —
  /// the warm-start effectiveness signal (1–2 per die when seeded near
  /// the fixed point, ~hundreds for a cold bisection).
  int solver_iterations = 0;
  /// Set by OnlinePipeline when this prediction is a carried-forward
  /// last-good operating point rather than a fresh re-solve (the
  /// degradation policy); the engine itself always leaves it false.
  bool degraded = false;

  double energy_per_instruction() const {
    return throughput_ips > 0.0
               ? total_power / throughput_ips
               : std::numeric_limits<double>::infinity();
  }
};

/// One typed model revision for ModelEngine::try_apply — either a
/// profile replacement behind an existing handle (the on-line
/// pipeline's revision sink) or an Eq. 9 power-model refit. Exactly
/// one payload must be engaged; build with the factories.
struct Revision {
  struct ProfilePayload {
    ProcessHandle handle = 0;
    core::ProcessProfile profile;
  };

  std::optional<ProfilePayload> profile;
  std::optional<core::PowerModel> power;

  static Revision process(ProcessHandle handle, core::ProcessProfile p) {
    Revision r;
    r.profile.emplace();
    r.profile->handle = handle;
    r.profile->profile = std::move(p);
    return r;
  }
  static Revision power_model(core::PowerModel m) {
    Revision r;
    r.power.emplace(std::move(m));
    return r;
  }
};

/// Outcome of ModelEngine::try_apply. Rejections never mutate or
/// publish anything: the last-good snapshot stays current and `reason`
/// names the gate that refused the revision.
struct ApplyResult {
  bool applied = false;
  /// Rejection cause; empty when applied.
  std::string reason;
  /// Epoch of the snapshot this apply published, or of the still-
  /// current snapshot when rejected.
  std::uint64_t epoch = 0;

  explicit operator bool() const { return applied; }
};

/// One immutable published engine state: the registry (profiles plus
/// their lazily memoized fill-curve artifacts), the name index, and
/// the Eq. 9 power model, all from a single epoch. Obtained from
/// ModelEngine::snapshot(); reference-counted, so a reader may hold it
/// across arbitrarily many revisions — predictions made against it
/// stay bit-identical to the moment it was taken, and its memory is
/// reclaimed when the last holder drops it (no ABA: epochs only move
/// forward and pointers are never reused while referenced).
class EngineSnapshot {
 public:
  /// Monotonic publish counter: 0 is the engine's initial (empty)
  /// snapshot, each successful mutation publishes epoch + 1.
  std::uint64_t epoch() const { return epoch_; }

  /// Number of live (non-collected) registrations in this snapshot.
  std::size_t process_count() const { return live_; }

  /// Handle of a registered process, if any.
  std::optional<ProcessHandle> find(const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return std::nullopt;
    return it->second;
  }

  /// The registered profile behind a handle. The reference is valid
  /// for the snapshot's lifetime. Throws on an unknown or collected
  /// handle.
  const core::ProcessProfile& profile(ProcessHandle handle) const;

  bool has_power_model() const { return power_.has_value(); }

  /// The snapshot's Eq. 9 model (throws when the engine was built
  /// without one). Valid for the snapshot's lifetime.
  const core::PowerModel& power_model() const;

  /// Number of successful power revisions up to this snapshot.
  std::uint64_t power_revision() const { return power_revision_; }

  /// Handles of every live registration, ascending. Checkpoints
  /// serialize profiles in this order, which makes the serialization a
  /// pure function of the snapshot — the basis of the byte-identity
  /// recovery proof (ISSUE 8).
  std::vector<ProcessHandle> live_handles() const;

 private:
  friend class ModelEngine;

  /// Derived per-process artifacts, built once per registration and
  /// shared by every prediction thread — and, because entries are
  /// shared between consecutive snapshots, by every epoch that kept
  /// the registration unchanged.
  struct Artifacts {
    math::PiecewiseLinear fill;    // G⁻¹: occupancy S → accesses n
    math::PiecewiseLinear growth;  // G: accesses n → occupancy S
  };
  struct Entry {
    explicit Entry(core::ProcessProfile p) : profile(std::move(p)) {}
    core::ProcessProfile profile;
    mutable std::once_flag once;
    mutable Artifacts artifacts;
  };

  const Entry& entry_of(ProcessHandle handle) const;

  /// Slots are positional (handle == index); null = collected. Entries
  /// are shared with the builder and with neighbouring snapshots —
  /// only replaced registrations get a fresh Entry (and with it a
  /// fresh once_flag, which is what invalidates the memoized curves).
  std::vector<std::shared_ptr<const Entry>> registry_;
  std::unordered_map<std::string, ProcessHandle> by_name_;
  std::optional<core::PowerModel> power_;
  std::uint64_t power_revision_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t live_ = 0;
};

class ModelEngine {
 public:
  /// Performance-only engine: predictions carry SPI/MPA/occupancy and
  /// throughput; power fields stay zero.
  explicit ModelEngine(sim::MachineConfig machine, EngineOptions options = {});

  /// Full engine: also assembles per-core and total power from the
  /// Eq. 9 model via the §5 decomposition.
  ModelEngine(sim::MachineConfig machine, core::PowerModel power,
              EngineOptions options = {});

  ~ModelEngine();
  ModelEngine(const ModelEngine&) = delete;
  ModelEngine& operator=(const ModelEngine&) = delete;

  /// Register (or, under an existing name, replace) a profiled
  /// process. Validates the feature vector on registration — a broken
  /// histogram or SPI law fails here, naming the process, instead of
  /// deep inside a later fill-curve integral. Replacement keeps the
  /// handle and invalidates the memoized artifacts.
  ProcessHandle register_process(core::ProcessProfile profile);

  /// Apply one typed revision — the single mutation entry point for
  /// model updates (it replaced update_process / try_update_process /
  /// update_power / try_update_power). A profile payload swaps the
  /// profile behind an existing handle (renames move the name index;
  /// a rename colliding with another handle's name is refused); a
  /// power payload installs a revised Eq. 9 model and bumps
  /// power_revision(). Everything is validated before any state is
  /// touched: on success a new snapshot is published atomically and
  /// `epoch` reports it, on rejection nothing is published, the
  /// last-good snapshot stays current, and `reason` says why. Never
  /// throws for payload defects — only for engine misuse bugs
  /// (e.g. both payloads engaged is still reported via `reason`).
  ApplyResult try_apply(Revision revision);

  /// Number of successful power revisions since construction.
  std::uint64_t power_revision() const;

  /// Drop every registered process whose handle fails keep(handle),
  /// freeing its profile and memoized fill-curve artifacts, and return
  /// how many entries were collected. Kept handles stay valid (slots
  /// are nulled, never shifted) and their artifacts are untouched; a
  /// collected handle's slot is recycled by a later register_process of
  /// a *new* name. The on-line pipeline's GC for handles that are no
  /// longer monitored by any pipeline or referenced by a live query.
  /// Snapshots taken before the collection keep their entries alive
  /// until released. The predicate runs under the builder lock; it may
  /// read the engine's snapshot accessors (they never take the builder
  /// mutex) but must not mutate the engine.
  std::size_t collect_garbage(
      const std::function<bool(ProcessHandle)>& keep);

  /// Rebuild a freshly-constructed engine from checkpointed state
  /// (ISSUE 8): install `profiles` under dense handles 0..n-1 in
  /// order, replace the power model if the checkpoint carried one (the
  /// engine must have been built with one), seed the power-revision
  /// counter, and publish exactly one snapshot whose epoch is at least
  /// `epoch` (monotonic across a crash: consumers never see the epoch
  /// counter move backwards after a restart). Throws on a non-fresh
  /// engine, an invalid profile, a duplicate name, or a core-count
  /// mismatch — a checkpoint that fails here is treated as absent by
  /// recovery, never partially applied.
  void restore(std::vector<core::ProcessProfile> profiles,
               std::optional<core::PowerModel> power,
               std::uint64_t power_revision, std::uint64_t epoch);

  /// The current published snapshot, never null. Never takes the
  /// builder mutex: it is one atomic<shared_ptr> load, which libstdc++
  /// implements with a short internal spin lock. Hold it to pin one
  /// consistent (profiles, artifacts, power model) triple across any
  /// number of concurrent revisions.
  std::shared_ptr<const EngineSnapshot> snapshot() const;

  /// Handle of a registered process, if any.
  std::optional<ProcessHandle> find(const std::string& name) const;

  /// The registered profile behind a handle (copied out of the current
  /// snapshot).
  core::ProcessProfile profile(ProcessHandle handle) const;

  /// Number of live (non-collected) registrations.
  std::size_t process_count() const;

  /// Predict one candidate co-schedule against the current snapshot.
  SystemPrediction predict(const CoScheduleQuery& query) const;

  /// Predict one candidate against a pinned snapshot — bit-identical
  /// to predicting on a quiesced engine at that snapshot's epoch, no
  /// matter how many revisions landed since.
  SystemPrediction predict(const EngineSnapshot& snapshot,
                           const CoScheduleQuery& query) const;

  /// Predict a batch of candidates, fanned out over the thread pool
  /// (options.threads != 1). The snapshot is resolved once for the
  /// whole batch: every candidate prices against the same epoch, and
  /// results are positionally aligned with `queries` and bit-identical
  /// to issuing the same predict() calls serially, regardless of
  /// thread count.
  std::vector<SystemPrediction> predict_batch(
      std::span<const CoScheduleQuery> queries) const;

  /// Batch prediction against a pinned snapshot.
  std::vector<SystemPrediction> predict_batch(
      const EngineSnapshot& snapshot,
      std::span<const CoScheduleQuery> queries) const;

  /// Memoization counters for the derived-artifact cache.
  struct CacheStats {
    std::uint64_t hits = 0;           // artifact reuses across predictions
    std::uint64_t misses = 0;         // artifact builds
    std::uint64_t invalidations = 0;  // re-registrations that dropped one
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  CacheStats cache_stats() const;

  const sim::MachineConfig& machine() const { return machine_; }
  std::uint32_t ways() const { return machine_.l2.ways; }
  bool has_power_model() const;
  /// Copy of the current snapshot's Eq. 9 model (throws when the
  /// engine was built without one). Returned by value: a concurrent
  /// try_apply may publish a newer snapshot at any time, so references
  /// into the current one would be unstable — pin a snapshot() first
  /// when a stable reference is needed.
  core::PowerModel power_model() const;
  const EngineOptions& options() const { return options_; }

 private:
  using Entry = EngineSnapshot::Entry;
  using Artifacts = EngineSnapshot::Artifacts;

  const Artifacts& artifacts_of(const Entry& entry) const;
  SystemPrediction predict_on(const EngineSnapshot& snapshot,
                              const CoScheduleQuery& query) const;
  void install(ProcessHandle handle, core::ProcessProfile profile)
      REPRO_REQUIRES(builder_mutex_);
  /// Assemble the next snapshot from the builder state and publish it
  /// with one atomic pointer store (epoch + 1).
  void publish() REPRO_REQUIRES(builder_mutex_);

  sim::MachineConfig machine_ REPRO_CONST_AFTER_INIT;
  EngineOptions options_ REPRO_CONST_AFTER_INIT;
  core::EquilibriumSolver solver_ REPRO_CONST_AFTER_INIT;
  /// Null when threads == 1; the pointer is fixed at construction and
  /// the pool synchronizes itself.
  std::unique_ptr<common::ThreadPool> pool_ REPRO_CONST_AFTER_INIT;

  /// Builder-side lock: serializes writers (registration, try_apply,
  /// GC) over the mutable copy of the registry that the next snapshot
  /// is assembled from. Readers never take it — they go through the
  /// published snapshot — so a GUARDED_BY proof below is a statement
  /// about the *builder*, not about the read path.
  mutable common::Mutex builder_mutex_;
  std::vector<std::shared_ptr<const Entry>> registry_
      REPRO_GUARDED_BY(builder_mutex_);
  std::unordered_map<std::string, ProcessHandle> by_name_
      REPRO_GUARDED_BY(builder_mutex_);
  std::vector<ProcessHandle> free_slots_ REPRO_GUARDED_BY(builder_mutex_);
  std::optional<core::PowerModel> power_ REPRO_GUARDED_BY(builder_mutex_);
  std::uint64_t power_revision_ REPRO_GUARDED_BY(builder_mutex_) = 0;
  std::uint64_t epoch_ REPRO_GUARDED_BY(builder_mutex_) = 0;

  /// The current epoch snapshot. store(release) under builder_mutex_,
  /// load(acquire) from any thread — the only writer/reader meeting
  /// point on the predict path.
  std::atomic<std::shared_ptr<const EngineSnapshot>> published_;

  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_invalidations_{0};
};

}  // namespace repro::engine
