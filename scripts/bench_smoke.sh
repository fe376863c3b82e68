#!/usr/bin/env sh
# Scripted perf smoke run: executes the perf-critical benches at a reduced
# stream size, collects their BENCH_*.json sidecars, and appends one line
# per bench to bench/PERF.jsonl — the machine-readable perf trajectory.
#
#   scripts/bench_smoke.sh [build-dir] [rows]
#
# Defaults: build-dir=build, rows=20000 (large enough that every bench has
# a non-empty workload). Each bench's in-bench bit-identity assertions run
# as part of the smoke: a divergence makes this script fail.
set -eu

BUILD_DIR="${1:-build}"
ROWS="${2:-20000}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

for bench in streaming_rounds serving_latency kernel_scan pipeline_throughput; do
  bin="$REPO_DIR/$BUILD_DIR/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  echo "== $bench (RUDOLF_BENCH_N=$ROWS) =="
  RUDOLF_BENCH_N="$ROWS" RUDOLF_BENCH_JSON_DIR="$OUT_DIR" "$bin"
  echo
done

# One JSON object per line, stamped with the run time. The lines are staged
# in a temp file and appended under an exclusive flock on the target, so
# concurrent smoke runs (parallel CI legs, a dev run racing CI on a shared
# checkout) interleave whole runs instead of splicing partial lines.
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
STAGED="$OUT_DIR/staged.jsonl"
: > "$STAGED"
for f in "$OUT_DIR"/BENCH_*.json; do
  tr -d '\n' < "$f" | sed "s/^{/{\"at\": \"$STAMP\", /;s/  */ /g" >> "$STAGED"
  printf '\n' >> "$STAGED"
done

PERF="$REPO_DIR/bench/PERF.jsonl"
if command -v flock >/dev/null 2>&1; then
  flock "$PERF" sh -c 'cat "$1" >> "$2"' _ "$STAGED" "$PERF"
else
  # No flock on this platform: the staged file still makes the append a
  # single write syscall per run in practice, the best available fallback.
  cat "$STAGED" >> "$PERF"
fi

# Every line of the trajectory must parse as standalone JSON — catch a torn
# or malformed append immediately instead of poisoning later diffs.
python3 - "$PERF" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as fh:
    for n, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            json.loads(line)
        except ValueError as e:
            sys.exit(f"{path}:{n}: invalid JSON line: {e}")
EOF

echo "appended $(wc -l < "$STAGED") entries to bench/PERF.jsonl (all lines valid JSON)"
