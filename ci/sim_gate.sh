#!/usr/bin/env bash
# Sim-regression gate for perfbench's deterministic cells.
#
# Sim cells repeat bit for bit per seed, so a committed baseline can gate
# them exactly. `run` prints the `sim_*` and `queue_mib` lines of
# `perfbench --workload all --quick` for seeds 1-3, each prefixed with its
# seed, and those of one full-length `astar_grid` run (seed 1, ~40 s),
# prefixed `full1`: the quick 64x64 grid never heapifies, so only the
# full search's lines see heapify levels and delete/insert
# collaborations. `compare` fails when a `sim_*` line is worse than the
# baseline by more than its BENCHMARK.json bound, when `queue_mib`
# differs at all, or when a line is missing from either side.
#
#   ci/sim_gate.sh run > ci/sim_baseline.txt       # re-record the baseline
#   ci/sim_gate.sh run > sim-current.txt
#   ci/sim_gate.sh compare ci/sim_baseline.txt sim-current.txt
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

case "${1:-}" in
run)
    sim_lines() {
        cargo run --quiet --release --offline --locked --manifest-path "$root/perfbench/Cargo.toml" \
            -- "$@" | grep -E '^[a-z_]+ (sim_[a-z0-9_]+|queue_mib) '
    }
    for seed in 1 2 3; do
        sim_lines --workload all --quick --seed "$seed" | sed "s/^/seed$seed /"
    done
    sim_lines --workload astar_grid --seed 1 --seconds 1 | sed "s/^/full1 /"
    ;;
compare)
    baseline=${2:?usage: sim_gate.sh compare BASELINE CURRENT}
    current=${3:?usage: sim_gate.sh compare BASELINE CURRENT}
    # `name better bound` for every end-to-end metric with a bound.
    bounds=$(grep -oE '"name": "[a-z0-9_]+", "unit": "[^"]*", "better": "[a-z]+", "bound": [0-9.]+' \
        "$root/BENCHMARK.json" | sed -E 's/"name": "([a-z0-9_]+)".*"better": "([a-z]+)", "bound": ([0-9.]+)/\1 \2 \3/')
    awk -v bounds="$bounds" '
        BEGIN {
            n = split(bounds, rows, "\n")
            for (i = 1; i <= n; i++) {
                split(rows[i], f, " ")
                better[f[1]] = f[2]
                bound[f[1]] = f[3]
            }
        }
        # Baseline lines: seed workload metric value unit.
        FNR == NR { base[$1 " " $2 " " $3] = $4; next }
        {
            key = $1 " " $2 " " $3
            seen[key] = 1
            if (!(key in base)) { printf "FAIL %s: not in the baseline (re-record it)\n", key; bad = 1; next }
            b = base[key]; c = $4; m = $3
            if (m == "queue_mib") {
                if (c != b) { printf "FAIL %s: %s != baseline %s\n", key, c, b; bad = 1 }
                next
            }
            if (!(m in bound)) { printf "FAIL %s: no bound in BENCHMARK.json\n", key; bad = 1; next }
            if (b == 0) worse = (c == 0) ? 0 : 1
            else worse = (better[m] == "lower") ? (c - b) / b : (b - c) / b
            if (worse > bound[m]) {
                printf "FAIL %s: %s vs baseline %s (%+.2f%% worse, bound %.1f%%)\n", key, c, b, 100 * worse, 100 * bound[m]
                bad = 1
            }
            checked++
        }
        END {
            for (key in base) if (!(key in seen)) { printf "FAIL %s: missing from this run\n", key; bad = 1 }
            if (!bad) printf "sim gate: %d sim lines within bounds, queue_mib unchanged\n", checked
            exit bad
        }
    ' "$baseline" "$current"
    ;;
*)
    echo "usage: sim_gate.sh run | compare BASELINE CURRENT" >&2
    exit 2
    ;;
esac
