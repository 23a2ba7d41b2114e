// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload whatif|monitor --seed N --seconds S
//             --trace 0|1 --out FILE [--threads T] [--work-dir DIR]
//             [--trace-out FILE] [--git-sha SHA]
//
// Runs one workload and writes its result (metadata, output checks and
// both metric sets) as JSON to --out; perfbench/run.py builds this
// binary, runs it and prints the final result line. With --trace 1 the
// spans recorded around every layer call are written as Chrome
// trace-event JSON to --trace-out and reduced to per-layer self time.
//
// Each workload runs all three paths (see paths.hpp), interleaved in
// frames. Its own path (query on whatif, window on monitor) runs two
// cycles of each frame; the other query or window path and the profile
// path run one each as a reference pass, so every end-to-end metric
// exists on every workload.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "measure.hpp"
#include "paths.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::size_t threads = 0;
  std::string out;
  std::string work_dir = ".";
  std::string trace_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "whatif|monitor --seed N --seconds S --trace 0|1 "
               "--out FILE [--threads T] [--work-dir DIR] [--trace-out FILE] "
               "[--git-sha SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.traced = std::stoi(value) != 0;
      else if (key == "--threads") a.threads = std::stoul(value);
      else if (key == "--out") a.out = value;
      else if (key == "--work-dir") a.work_dir = value;
      else if (key == "--trace-out") a.trace_out = value;
      else if (key == "--git-sha") a.git_sha = value;
      else usage(("unknown option " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload != "whatif" && a.workload != "monitor")
    usage("--workload must be whatif or monitor");
  if (a.out.empty()) usage("--out is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Everything a workload sets up before it measures.
struct Setup {
  QueryState query;
  std::unique_ptr<WindowState> window;
  ProfileState profile;
};

/// A reference pass runs on this seed whatever --seed says, so it
/// measures the same work in every run of a workload.
RunOptions reference(const RunOptions& run) {
  RunOptions r = run;
  r.seed = 0;
  return r;
}

Setup set_up(const Args& args, const RunOptions& run) {
  Setup s;
  const bool whatif = args.workload == "whatif";
  const bool monitor = args.workload == "monitor";
  // The query path always prices the analytic 8-spec suite on the
  // 4-core server: fed by --seed on whatif, by the reference seed
  // elsewhere.
  const sim::MachineConfig server = sim::four_core_server();
  const core::PowerModel power = synthetic_power_model(server.cores);
  s.query = make_query_state(server, power,
                             analytic_suite_profiles(server, power),
                             whatif ? run : reference(run));
  s.window = make_window_state(monitor ? run : reference(run));
  s.profile = make_profile_state(reference(run));
  return s;
}

void write_metrics(std::FILE* f, const std::map<std::string, Metric>& m) {
  std::fputs("{", f);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::fprintf(f,
                 "%s\n    %s: {\"value\": %s, \"unit\": %s, "
                 "\"samples\": %zu}",
                 first ? "" : ",", json_string(name).c_str(),
                 json_number(metric.value).c_str(),
                 json_string(metric.unit).c_str(), metric.samples);
    first = false;
  }
  std::fputs("\n  }", f);
}

bool write_result(const Args& args, const RunOptions& run,
                  const RunReport& r) {
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"meta\": {\"workload\": %s, \"seed\": %llu, "
               "\"seconds\": %s, \"trace\": %d, \"threads\": %zu, "
               "\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
               "\"git_sha\": %s},\n",
               json_string(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed),
               json_number(args.seconds).c_str(), args.traced ? 1 : 0,
               run.threads, std::thread::hardware_concurrency(),
               json_string(PERFBENCH_BUILD_TYPE).c_str(),
               json_string(PERFBENCH_COMPILER).c_str(),
               json_string(args.git_sha).c_str());
  std::fprintf(f, "  \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n",
               r.correct() ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fputs("  \"checks\": [", f);
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    std::fprintf(f, "%s\n    {\"name\": %s, \"ok\": %s, \"detail\": %s}",
                 i == 0 ? "" : ",", json_string(r.checks[i].name).c_str(),
                 r.checks[i].ok ? "true" : "false",
                 json_string(r.checks[i].detail).c_str());
  std::fputs("\n  ],\n  \"end_to_end\": ", f);
  write_metrics(f, r.end_to_end);
  std::fputs(",\n  \"per_layer\": ", f);
  write_metrics(f, r.per_layer);
  std::fputs(",\n  \"info\": ", f);
  write_metrics(f, r.info);
  std::fputs(",\n  \"self_time\": {", f);
  if (args.traced) {
    bool first_path = true;
    for (const auto& [root, layers] : trace::self_times()) {
      std::fprintf(f, "%s\n    %s: {", first_path ? "" : ",",
                   json_string(root).c_str());
      bool first = true;
      for (const auto& [layer, t] : layers) {
        std::fprintf(f, "%s%s: {\"self_s\": %s, \"total_s\": %s, "
                     "\"spans\": %llu}",
                     first ? "" : ", ", json_string(layer).c_str(),
                     json_number(t.self_s).c_str(),
                     json_number(t.total_s).c_str(),
                     static_cast<unsigned long long>(t.spans));
        first = false;
      }
      std::fputs("}", f);
      first_path = false;
    }
  }
  std::fputs("\n  }\n}\n", f);
  return std::fclose(f) == 0;
}

int run_workload(const Args& args) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with "
                       "assertions enabled (NDEBUG unset)\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build of the "
                         "repro libraries; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  RunOptions run;
  run.seed = args.seed;
  run.traced = args.traced;
  run.threads = args.threads > 0
                    ? args.threads
                    : std::max(1u, std::thread::hardware_concurrency());
  run.work_dir = args.work_dir;
  trace::enable(args.traced);

  RunReport report;
  Samples setup_s;
  std::vector<CoRun> first_coruns;
  bool coruns_same = true;
  // Times one set-up; the result is torn down by the caller, untimed.
  const auto time_setup = [&] {
    trace::Span span("setup", trace::new_trace_id());
    const Clock::time_point t0 = Clock::now();
    Setup s = set_up(args, run);
    setup_s.add(seconds_since(t0));
    if (setup_s.size() == 1)
      first_coruns = s.profile.coruns;
    else
      coruns_same &= same_coruns(first_coruns, s.profile.coruns);
    return s;
  };
  Setup setup = time_setup();

  // The profile path's accuracy round runs first, so the query path's
  // pool warm-up is the last thing before the timed frames.
  const RunOptions ref = reference(run);
  const bool whatif = args.workload == "whatif";
  const std::unique_ptr<PathRun> profile =
      start_profile_path(setup.profile, ref, report);
  const std::unique_ptr<PathRun> window = start_window_path(
      *setup.window, !whatif, whatif ? ref : run, report);
  const std::unique_ptr<PathRun> query =
      start_query_path(setup.query, whatif, whatif ? run : ref, report);
  PathRun& focus = whatif ? *query : *window;
  PathRun& other = whatif ? *window : *query;

  // --- Timed frames: two cycles of the workload's own path, one of the
  // other query/window path, one timing profile and one more set-up, so
  // the samples of every metric, setup_s included, span the whole run
  // and a stretch of host contention reaches all of them a little
  // rather than one of them entirely. ---
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < args.seconds || !focus.enough() ||
         !other.enough() || !profile->enough() ||
         setup_s.size() < kMinSetups) {
    focus.cycle();
    focus.cycle();
    other.cycle();
    profile->cycle();
    time_setup();
  }
  focus.finish();
  other.finish();
  profile->finish();
  report.check("setup.coruns_reproducible", coruns_same,
               "repeated set-ups must measure identical simulator co-runs");
  trace::enable(false);

  report.end_to_end["setup_s"] = {setup_s.median(), "s", setup_s.size()};
  report.end_to_end["peak_rss_mb"] = {
      std::max(report.rss_peak_mb, rss_high_water_mb()), "MiB"};
  report.per_layer["error_rate"] = {
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0,
      "ratio", report.attempted};
  if (args.traced) {
    report.info["trace.spans"] = {static_cast<double>(trace::span_count()),
                                  "count"};
    report.info["trace.dropped_spans"] = {
        static_cast<double>(trace::dropped_spans()), "count"};
    if (!args.trace_out.empty())
      report.check("trace.written", trace::write_chrome_json(args.trace_out),
                   args.trace_out);
  }
  if (!write_result(args, run, report)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
