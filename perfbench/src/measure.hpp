// Measurement plumbing shared by the three benchmark paths: a steady
// clock, sample sets with order statistics, the named metric table a
// run reports, output checks, and the process's peak RSS.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// A set of timing (or other) samples with the order statistics the
/// benchmark reports. Quantiles use linear interpolation between
/// closest ranks.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// A tail that stays put when host contention comes in bursts: the
  /// samples are cut, in the order they were added, into blocks of at
  /// least `block`, and the result is the median over the blocks of
  /// each block's q-quantile. Fewer than 2·block samples give the plain
  /// quantile.
  double block_quantile(double q, std::size_t block) const;
  double sum() const;

 private:
  std::vector<double> xs_;
};

/// One reported number: value, unit and how many samples stand behind
/// it (1 for a single measurement or a count).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// The outcome of one output check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run produces. `end_to_end` and `per_layer` are the
/// two metric sets BENCHMARK.json names; `info` holds extra numbers
/// printed for a reader (bases of ratios, self times) but not gated.
struct RunReport {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> info;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Highest RSS mark seen before a reset_rss_high_water().
  double rss_peak_mb = 0.0;

  void check(std::string name, bool ok, std::string detail = {});
  bool correct() const;
};

/// The kernel's resident-set high-water mark for this process, MiB.
double rss_high_water_mb();

/// Resets that mark to the current resident set (Linux clear_refs), so
/// memory an output check touched is not charged to the system under
/// test. Returns false when the kernel refuses.
bool reset_rss_high_water();

/// Formats a double with enough digits to round-trip.
std::string json_number(double x);
std::string json_string(const std::string& s);

}  // namespace perfbench
