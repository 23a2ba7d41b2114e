// Bit-identity pin for the engine's query path, plus its allocation
// budget.
//
// The equilibrium solver and the engine's pricing loop are rewritten
// for speed from time to time; such a rewrite must remove only work,
// never change a result. This test prices a fixed, seeded set of
// co-schedules — cold, rescaled through core_frequency, warm-started,
// way-partitioned, and on a Newton-mode engine — folds every bit of
// every prediction into an FNV-1a hash and sums the solver iteration
// counts, and compares both with values recorded before the rewrite.
// The pin assumes IEEE-754 double arithmetic without fused
// multiply-add contraction, which is what gcc and clang emit for
// baseline x86-64.
//
// The binary replaces the global allocation functions with counting
// ones (as perfbench does), so it also checks that a warmed predict()
// stays within a few heap allocations: the result's own vectors, and
// nothing per die.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>

#include "repro/core/analytic.hpp"
#include "repro/core/combined.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/sim/machine.hpp"
#include "repro/workload/spec.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace repro::engine {
namespace {

// Recorded from the engine before the single-evaluation bisection and
// the reused per-thread pricing buffers; both must stay exactly so.
constexpr std::uint64_t kExpectedHash = 0x37c24c5193f054cdULL;
constexpr long kExpectedIterations = 19812;
constexpr std::size_t kExpectedPredictions = 800;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void f64(double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    bytes(&u, sizeof u);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

void fold(Fnv1a& hash, const SystemPrediction& p) {
  hash.u64(p.processes.size());
  for (const ProcessOperatingPoint& pt : p.processes) {
    hash.u64(pt.handle);
    hash.u64(pt.core);
    hash.f64(pt.cpu_share);
    hash.f64(pt.prediction.effective_size);
    hash.f64(pt.prediction.mpa);
    hash.f64(pt.prediction.spi);
    hash.f64(pt.prediction.aps);
    hash.f64(pt.dynamic_power);
  }
  for (Watts w : p.core_power) hash.f64(w);
  hash.f64(p.total_power);
  hash.f64(p.throughput_ips);
  hash.u64(static_cast<std::uint64_t>(p.solver_iterations));
}

core::PowerModel power_model(std::uint32_t cores) {
  return core::PowerModel(11.25 * static_cast<double>(cores),
                          {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9}, cores);
}

/// The analytic features of an 8-spec suite, fitted at the machine's
/// default clock, so core_frequency queries rescale them.
std::vector<core::ProcessProfile> suite(const sim::MachineConfig& machine,
                                        const core::PowerModel& power) {
  std::vector<core::ProcessProfile> out;
  for (const char* name : {"gzip", "vpr", "mcf", "bzip2", "twolf", "art",
                           "equake", "ammp"}) {
    const workload::WorkloadSpec& spec = workload::find_spec(name);
    core::ProcessProfile p;
    p.name = name;
    p.features = core::analytic_features(spec, machine);
    p.alone.l1rpi = spec.mix.l1_rpi;
    p.alone.l2rpi = spec.mix.l2_api;
    p.alone.brpi = spec.mix.branch_pi;
    p.alone.fppi = spec.mix.fp_pi;
    p.alone.l2mpr = p.features.histogram.mpa(machine.l2.ways);
    p.alone.spi = p.features.spi_at(p.alone.l2mpr);
    p.power_alone =
        power.idle_total() + core::process_dynamic_power(
                                 power, p.alone, p.alone.spi, p.alone.l2mpr);
    out.push_back(std::move(p));
  }
  return out;
}

/// Uniform index in [0, n). Plain modulo on the raw engine output: the
/// mt19937 sequence is fixed by the standard, the library's
/// distributions are not, and the pin must not depend on the library.
std::size_t pick(std::mt19937& rng, std::size_t n) { return rng() % n; }

/// Random co-schedules: each core runs 0, 1 or 2 distinct processes.
std::vector<CoScheduleQuery> queries(std::mt19937& rng, std::size_t count,
                                     std::uint32_t cores,
                                     std::size_t processes) {
  std::vector<CoScheduleQuery> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::size_t> pool(processes);
    for (std::size_t p = 0; p < processes; ++p) pool[p] = p;
    CoScheduleQuery q;
    q.assignment = core::Assignment::empty(cores);
    for (std::uint32_t c = 0; c < cores; ++c)
      for (std::size_t n = pick(rng, 3); n > 0 && !pool.empty(); --n) {
        const std::size_t j = pick(rng, pool.size());
        q.assignment.per_core[c].push_back(pool[j]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
      }
    if (q.assignment.process_count() == 0)
      q.assignment.per_core[0].push_back(pool[pick(rng, pool.size())]);
    out.push_back(std::move(q));
  }
  return out;
}

class EngineBitIdentity : public ::testing::Test {
 protected:
  EngineBitIdentity()
      : machine_(sim::four_core_server()),
        power_(power_model(machine_.cores)),
        profiles_(suite(machine_, power_)) {}

  std::unique_ptr<ModelEngine> engine(core::SolveOptions::Method method) {
    EngineOptions options;
    options.threads = 1;
    options.method = method;
    auto eng = std::make_unique<ModelEngine>(machine_, power_, options);
    for (const core::ProcessProfile& p : profiles_) eng->register_process(p);
    return eng;
  }

  sim::MachineConfig machine_;
  core::PowerModel power_;
  std::vector<core::ProcessProfile> profiles_;
};

TEST_F(EngineBitIdentity, SeededPredictionsMatchThePinnedHash) {
  std::mt19937 rng(2010);
  const std::vector<CoScheduleQuery> cold =
      queries(rng, 96, machine_.cores, profiles_.size());

  // DVFS what-ifs: every core at a random operating point, so most
  // profiles are rescaled away from their fit clock.
  std::vector<CoScheduleQuery> rescaled = queries(rng, 96, machine_.cores,
                                                  profiles_.size());
  for (CoScheduleQuery& q : rescaled)
    for (std::uint32_t c = 0; c < machine_.cores; ++c)
      q.core_frequency.push_back(
          machine_.dvfs_levels[pick(rng, machine_.dvfs_levels.size())]);

  // Explicit way partitions: each busy die splits its ways evenly.
  std::vector<CoScheduleQuery> partitioned = queries(rng, 16, machine_.cores,
                                                     profiles_.size());
  for (CoScheduleQuery& q : partitioned) {
    q.partition.assign(machine_.dies, {});
    for (DieId die = 0; die < machine_.dies; ++die) {
      std::size_t k = 0;
      for (CoreId c : machine_.cores_on_die(die))
        k += q.assignment.per_core[c].size();
      if (k > 0)
        q.partition[die].assign(
            k, machine_.l2.ways / static_cast<std::uint32_t>(k));
    }
  }

  Fnv1a hash;
  long iterations = 0;
  std::size_t predictions = 0;
  auto price = [&](const ModelEngine& eng, const CoScheduleQuery& q) {
    const SystemPrediction p = eng.predict(q);
    fold(hash, p);
    iterations += p.solver_iterations;
    ++predictions;
    return p;
  };

  for (auto method : {core::SolveOptions::Method::kBisection,
                      core::SolveOptions::Method::kNewton}) {
    const std::unique_ptr<ModelEngine> eng = engine(method);
    const std::vector<CoScheduleQuery>* sets[] = {&cold, &rescaled};
    for (const std::vector<CoScheduleQuery>* set : sets) {
      for (const CoScheduleQuery& q : *set) {
        const SystemPrediction first = price(*eng, q);
        // Warm start from the cold answer nudged off the fixed point,
        // as after a small profile revision.
        CoScheduleQuery warm = q;
        for (const ProcessOperatingPoint& pt : first.processes)
          warm.warm_start.push_back(pt.prediction.effective_size * 0.97 +
                                    0.05);
        price(*eng, warm);
      }
    }
    for (const CoScheduleQuery& q : partitioned) price(*eng, q);
  }

  std::printf("pin: hash=0x%016llx iterations=%ld predictions=%zu\n",
              static_cast<unsigned long long>(hash.h), iterations,
              predictions);
  EXPECT_EQ(predictions, kExpectedPredictions);
  EXPECT_EQ(iterations, kExpectedIterations);
  EXPECT_EQ(hash.h, kExpectedHash);
}

TEST_F(EngineBitIdentity, WarmedPredictAllocatesOnlyItsResult) {
  const std::unique_ptr<ModelEngine> eng =
      engine(core::SolveOptions::Method::kBisection);
  // Two processes per die on one core each, one time-shared pair, and
  // a DVFS override: every gather and rescale branch of the loop.
  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine_.cores);
  q.assignment.per_core[0] = {0, 1};
  q.assignment.per_core[1] = {2};
  q.assignment.per_core[2] = {3};
  q.assignment.per_core[3] = {4};
  const std::vector<Hertz>& levels = machine_.dvfs_levels;
  q.core_frequency = {levels.front(), levels.back(), levels[1], levels[2]};
  eng->predict(q);  // builds the artifacts and this thread's buffers
  const std::uint64_t before = t_allocations;
  const SystemPrediction p = eng->predict(q);
  const std::uint64_t allocations = t_allocations - before;
  ASSERT_EQ(p.processes.size(), 5u);
  EXPECT_LE(allocations, 6u);
}

}  // namespace
}  // namespace repro::engine
