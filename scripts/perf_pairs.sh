#!/usr/bin/env bash
# perf_pairs.sh — alternating A/B runs of the repository benchmark.
#
# Runs `perfbench/run.py` ten times on each of two revisions of this
# repository, interleaved (old, new, new, old, old, new, ...), then
# compares the two result sets with `perfbench/run.py compare`.
# Interleaving spreads slow stretches of a drifting host over both
# sides instead of charging them to whichever side ran second; the
# order flips every pair so neither side always runs first. Ten pairs
# is the fewest a speed claim should rest on: with fewer, the quartiles
# that the compare step judges noise by are too coarse. Each run lasts
# the `run_seconds` that BENCHMARK.json sets.
#
# OLD and NEW are git revisions. The committed files of each are
# exported with `git archive` into OUT_DIR/tree-old and OUT_DIR/tree-new
# (uncommitted changes are not included), each builds its own copy of
# the benchmark there on its first run, and both trees are removed on
# exit.
#
# Usage:  scripts/perf_pairs.sh [-w WORKLOAD] [-s SEED] [-o OUT_DIR] OLD NEW
#   -w  whatif or monitor (default whatif)
#   -s  workload seed (default 1)
#   -o  where the result files go, as OUT_DIR/old and OUT_DIR/new
#       (default: a fresh directory under /tmp, printed at the start)
# Exit status: that of the compare step (1 when a metric got worse
# beyond its bound), or 2 when a run fails its output checks.
set -euo pipefail

PAIRS=10
WORKLOAD=whatif
SEED=1
OUT=""
while getopts "w:s:o:" opt; do
  case "$opt" in
    w) WORKLOAD="$OPTARG" ;;
    s) SEED="$OPTARG" ;;
    o) OUT="$OPTARG" ;;
    *) sed -n '2,26p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -ne 2 ]; then
  sed -n '2,26p' "$0" >&2
  exit 2
fi

REPO="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
SECONDS_PER_RUN="$(python3 -c \
  'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$REPO/BENCHMARK.json")"
OUT="${OUT:-$(mktemp -d /tmp/perf_pairs.XXXXXX)}"
mkdir -p "$OUT/old" "$OUT/new"
OUT="$(cd "$OUT" && pwd)"
OLD_DIR="$OUT/tree-old"
NEW_DIR="$OUT/tree-new"
trap 'rm -rf "$OLD_DIR" "$NEW_DIR"' EXIT

# Export the committed files of revision $1 into directory $2.
export_tree() {
  rm -rf "$2"
  mkdir -p "$2"
  git -C "$REPO" archive "$1" | tar -x -C "$2"
}

export_tree "$1" "$OLD_DIR"
export_tree "$2" "$NEW_DIR"
echo "perf_pairs: $PAIRS pairs of $WORKLOAD seed $SEED, ${SECONDS_PER_RUN}s"
echo "perf_pairs: old = $1 ($(git -C "$REPO" rev-parse --short "$1"))"
echo "perf_pairs: new = $2 ($(git -C "$REPO" rev-parse --short "$2"))"
echo "perf_pairs: results in $OUT"

# One benchmark run in tree $2; its result file lands in $OUT/$1. Each
# side builds into its own tree even when the environment names a
# shared build directory.
run_side() {
  local side="$1" dir="$2" log result
  log="$OUT/$side/run-$3.log"
  if ! (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" \
          python3 perfbench/run.py --workload "$WORKLOAD" \
          --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0) \
          >"$log" 2>&1; then
    echo "perf_pairs: $side run $3 failed; see $log" >&2
    exit 2
  fi
  result="$(sed -n 's/^  result     //p' "$log")"
  cp "$dir/$result" "$OUT/$side/"
  echo "perf_pairs: $side run $3: $(tail -n 1 "$log")"
}

for ((i = 0; i < PAIRS; ++i)); do
  if ((i % 2 == 0)); then
    run_side old "$OLD_DIR" "$i"
    run_side new "$NEW_DIR" "$i"
  else
    run_side new "$NEW_DIR" "$i"
    run_side old "$OLD_DIR" "$i"
  fi
done

python3 "$NEW_DIR/perfbench/run.py" compare "$OUT/old" "$OUT/new"
