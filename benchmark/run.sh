#!/usr/bin/env bash
# The repository benchmark (benchmark/README.md).
#
#   benchmark/run.sh [--seed S] [--seconds T] [--trace [0|1]] [--smoke]
#       every workload, each in its own process; prints every metric
#       as "workload metric value unit" and exits nonzero if any
#       correctness gate fails.  --trace is the separate traced run:
#       per-layer metrics, spans in build-bench/trace.json.
#   benchmark/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#       one workload; the last line of standard output is its result
#       object {"correct", "attempted", "failed", "metrics"}.
#
# Builds build-bench/ from source first (Release); build output goes
# to standard error.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build-bench
workloads=(sweep-grid sim-static-n1024 sim-churn-n1024 sim-clean-n1024
           serve-n1024)

workload=""
args=()
trace=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed|--seconds) args+=("$1" "$2"); shift 2 ;;
        --trace)
            if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
                trace="$2"; shift 2
            else
                trace=1; shift
            fi ;;
        --smoke) args+=(--smoke); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
args+=(--trace "$trace" --out-dir "$build")

jobs=$(nproc 2>/dev/null || echo 1)
(( jobs > 4 )) && jobs=4
if [[ ! -f "$build/Makefile" && ! -f "$build/build.ninja" ]]; then
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target iadm_bench -j "$jobs" >&2

if [[ -n "$workload" ]]; then
    exec "$build/iadm_bench" --workload "$workload" "${args[@]}"
fi

status=0
for w in "${workloads[@]}"; do
    line=$("$build/iadm_bench" --workload "$w" "${args[@]}" | tail -n 1) ||
        status=1
    python3 - "$w" "$line" <<'EOF' || status=1
import json, sys
w, line = sys.argv[1], sys.argv[2]
r = json.loads(line)
for name, m in r["metrics"].items():
    print(f"{w:18} {name:34} {m['value']:.6g} {m['unit']}")
print(f"{w:18} {'correct':34} {r['correct']} "
      f"({r['failed']} failed of {r['attempted']})")
sys.exit(0 if r["correct"] else 1)
EOF
done

if [[ "$trace" == 1 ]]; then
    python3 - "$build" "${workloads[@]}" <<'EOF'
import json, os, sys
build, names = sys.argv[1], sys.argv[2:]
spans = []
for w in names:
    path = os.path.join(build, f"trace-{w}.json")
    if os.path.exists(path):
        spans += json.load(open(path))["spans"]
with open(os.path.join(build, "trace.json"), "w") as f:
    json.dump({"spans": spans}, f)
print(f"wrote {build}/trace.json ({len(spans)} spans)", file=sys.stderr)
EOF
fi
exit "$status"
