#!/usr/bin/env bash
# Every end-to-end metric of every workload, each workload in a fresh process.
# Usage, from the repository root: bash perfbench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-35}"
trace="${3:-0}"
for workload in exact-verify qaoa-decode client-large; do
    echo "== $workload"
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
