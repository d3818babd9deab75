#!/usr/bin/env bash
# Run every workload once, untraced, and print each one's end-to-end metrics.
#   bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in desk-optimize wide-train verify; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" \
        --seconds "${2:-40}" --trace 0
done
