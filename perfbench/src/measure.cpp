#include "measure.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Samples::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> v = xs_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Samples::block_quantile(double q, std::size_t block) const {
  const std::size_t blocks = block == 0 ? 0 : xs_.size() / block;
  if (blocks < 2) return quantile(q);
  Samples tails;
  for (std::size_t b = 0; b < blocks; ++b) {
    Samples one;
    const std::size_t end = b + 1 == blocks ? xs_.size() : (b + 1) * block;
    for (std::size_t i = b * block; i < end; ++i) one.add(xs_[i]);
    tails.add(one.quantile(q));
  }
  return tails.median();
}

double Samples::sum() const {
  double s = 0.0;
  for (double x : xs_) s += x;
  return s;
}

void RunReport::check(std::string name, bool ok, std::string detail) {
  checks.push_back({std::move(name), ok, std::move(detail)});
}

bool RunReport::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

double rss_high_water_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

bool reset_rss_high_water() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
