#!/usr/bin/env bash
# Smoke leg: every workload at 1/50 of its op count, timed and traced,
# correctness checks on, no bounds. Fails on a wrong answer or a failed op.
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in browse adhoc replay ingest; do
    for trace in 0 1; do
        result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 24 --trace "$trace" --quick | tail -n 1)
        echo "$workload trace=$trace: ${result:0:160}"
        case "$result" in
            '{"correct": true, '*'"failed": 0, '*) ;;
            *) echo "smoke: $workload trace=$trace did not run clean" >&2; exit 1 ;;
        esac
    done
done
