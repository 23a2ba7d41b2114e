#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, or compare result sets.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload whatif --seed 1 --seconds 30 --trace 0

builds perfbench/ (and with it the repro_* libraries from src/) in
Release mode, runs the workload, writes the full result to
.bench_results/, prints every metric with its unit and sample count, and
prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones (and writes a Chrome
trace-event file that Perfetto opens). The exit code is 0 only when
every output check passed.

Compare two result sets (directories or files written by runs above):

    python3 perfbench/run.py compare OLD NEW

prints one row per workload and metric: improved, unchanged, worse or
unresolved, judged by the bounds in BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = ".bench_results"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    # CARGO_TARGET_DIR names the build-output directory when the
    # environment sets it; every build product stays in that one place.
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def check_sources():
    for need in ("src/CMakeLists.txt", "include/repro", "src/core",
                 "src/engine", "src/online"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("the repository sources are missing (%s); run from the "
                 "root of a full checkout" % need)


def build():
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 1)
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
                if build_type != "Release":
                    fail("refusing to measure a %s build" % build_type, 1)
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    check_sources()
    spec = load_spec()
    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    stamp = "%s-s%d-t%d-%d-%d" % (args.workload, args.seed, args.trace,
                                   int(time.time()), os.getpid())
    out = os.path.join(RESULTS, stamp + ".json")
    trace_out = os.path.join(RESULTS, stamp + ".trace.json")
    work = os.path.join(RESULTS, "tmp-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(max(1, min(4, len(os.sched_getaffinity(0))))),
           "--out", out, "--work-dir", work, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not os.path.exists(out):
        fail("perfbench exited %d without a result" % proc.returncode, 1)
    with open(out) as f:
        result = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail("result lacks metrics: " + ", ".join(missing), 1)

    meta = result["meta"]
    print("perfbench %s seed %d (%s, %s, %d threads, nproc %d, git %s)" % (
        meta["workload"], meta["seed"], meta["build_type"], meta["compiler"],
        meta["threads"], os.cpu_count(), meta["git_sha"]))
    for check in result["checks"]:
        print("  check %-34s %s %s" % (check["name"],
                                       "ok" if check["ok"] else "FAILED",
                                       check["detail"]))
    for section in ("end_to_end", "per_layer"):
        for name, m in sorted(result[section].items()):
            print("  %-10s %-44s %16.6g %-6s (n=%d)" % (
                section, name, m["value"], m["unit"], m["samples"]))
    if args.trace:
        for root, layers in sorted(result["self_time"].items()):
            shares = ", ".join("%s %.4f s" % (layer, t["self_s"])
                               for layer, t in sorted(layers.items()))
            print("  self-time  %-30s %s" % (root, shares))
        print("  trace      %s" % trace_out)
    print("  result     %s" % out)

    metrics = {m["name"]: {"value": source[m["name"]]["value"],
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


def load_results(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    out = []
    for name in files:
        if name.endswith(".trace.json"):
            continue
        with open(name) as f:
            out.append(json.load(f))
    return out


def collect(results):
    """(workload, metric) -> values, untraced runs only."""
    values = {}
    for r in results:
        if r["meta"]["trace"]:
            continue
        for name, m in r["end_to_end"].items():
            values.setdefault((r["meta"]["workload"], name), []).append(
                m["value"])
    return values


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4) if len(values) >= 4 else \
        [min(values), statistics.median(values), max(values)]
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def compare(args):
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    old = collect(load_results(args.old))
    new = collect(load_results(args.new))
    print("%-10s %-18s %14s %14s %8s %8s %8s  %s" % (
        "workload", "metric", "old median", "new median", "change",
        "spread", "bound", "verdict"))
    worse = False
    for key in sorted(set(old) & set(new)):
        workload, name = key
        if name not in spec:
            continue
        bound = spec[name]["bound"]
        higher = spec[name]["better"] == "higher"
        a, b = old[key], new[key]
        ma, mb = statistics.median(a), statistics.median(b)
        # Positive change = worse, as a share of the old median.
        change = ((ma - mb) if higher else (mb - ma)) / abs(ma) if ma else 0.0
        noise = max(spread(a), spread(b))
        better_always = (min(b) > max(a)) if higher else (max(b) < min(a))
        if noise > bound and not better_always:
            verdict = "unresolved"
        elif change > bound:
            verdict = "worse"
            worse = True
        elif change < -bound or (noise > bound and better_always):
            verdict = "improved"
        else:
            verdict = "unchanged"
        print("%-10s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s" % (
            workload, name, ma, mb, 100 * change, 100 * noise, 100 * bound,
            verdict))
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["whatif", "monitor"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run(p.parse_args())


if __name__ == "__main__":
    main()
