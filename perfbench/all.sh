#!/usr/bin/env bash
# Runs every workload once: its report, its correctness checks and its
# end-to-end metrics (or, with TRACE=1, its traced run).
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Run from the repository root. Exits non-zero if any workload fails
# or reports a wrong result.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-30}"
status=0
for workload in pairs lake serve; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "${TRACE:-0}" ||
        status=1
    echo
done
exit "$status"
