#!/usr/bin/env bash
# Alternating parent/change pairs of a BENCHMARK.json workload — the
# ROADMAP's "how an item is judged" protocol as one command.
#
#   scripts/bench_pairs.sh <parent-rev> <workload>|all [pairs=10]
#
# Checks out <parent-rev> and the change side by side, builds the
# benchmark in each, runs the BENCHMARK.json command on both for every
# pair (the side that goes first alternates), and prints, per end-to-end
# metric: both sides' median and quartiles, the change's wins out of the
# pairs, the parent's own quartile distance, and how the change's median
# sits against that distance and against the BENCHMARK.json bound.
# `all` runs every workload BENCHMARK.json lists, in turn, on the one
# export and build of each side. The last thing printed is one table,
# workload × metric, with the verdict a change that claims no gain is
# held to: *worse* (the change's median is past the bound), *unresolved*
# (the runs spread wider than the bound, so they cannot tell) or *not
# worse*.
#
# The change is the working tree as `git add -A` would commit it (or the
# revision in BENCH_CHANGE_REV). Both sides are plain exports — no
# worktree or branch is created in this repository — under
# BENCH_PAIRS_DIR (default: $TMPDIR/sqlshare-bench-pairs), each with its
# own target directory, so a second invocation rebuilds only what moved.
# BENCH_SEED picks the workload seed (default: today's date, so a seed
# nobody developed against); every run of a pair uses the same one.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
root=${BENCH_PAIRS_DIR:-${TMPDIR:-/tmp}/sqlshare-bench-pairs}
seed=${BENCH_SEED:-$(date +%Y%m%d)}
mkdir -p "$root/runs"

# export <dir> <rev|-> : replace everything but build outputs.
export_side() {
    local dir=$1 rev=$2
    mkdir -p "$dir"
    find "$dir" -mindepth 1 -maxdepth 1 ! -name target ! -name benchmark -exec rm -rf {} +
    if [ -d "$dir/benchmark" ]; then
        find "$dir/benchmark" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
    fi
    if [ "$rev" = "-" ]; then
        # Tracked and untracked-but-not-ignored files that exist (a file
        # deleted in the working tree is still listed).
        (cd "$repo" && git ls-files -co --exclude-standard -z \
            | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
            | tar -c --null -T -) | tar -x -C "$dir"
    else
        git -C "$repo" archive "$rev" | tar -x -C "$dir"
    fi
}

export_side "$root/parent" "$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")"
export_side "$root/change" "${BENCH_CHANGE_REV:--}"

# The command, seconds and metric table come from the change's BENCHMARK.json
# (a change may not edit it, so both sides agree).
mapfile -t cmd < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print("\n".join(b["command"]))' "$root/change/BENCHMARK.json")
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/change/BENCHMARK.json")
if [ "$workload" = all ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/change/BENCHMARK.json")
else
    workloads=("$workload")
fi

for side in parent change; do
    echo "== building $side" >&2
    (cd "$root/$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

run_side() { # <workload> <side> <pair>
    local out="$root/runs/$1-$seed-$3-$2.json"
    (cd "$root/$2" && "${cmd[@]}" --workload "$1" --seed "$seed" --seconds "$seconds" --trace 0) \
        | tail -n 1 > "$out"
    python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
m = r["metrics"]
print("   %-6s %s  failed %d/%d%s" % (sys.argv[2],
      "  ".join("%s %.4g" % (k, v["value"]) for k, v in m.items()),
      r["failed"], r["attempted"], "" if r["correct"] else "  WRONG ANSWERS"))' "$out" "$2" >&2
}

for w in "${workloads[@]}"; do
    echo "== $pairs pairs of '$w', seed $seed, $seconds s budget, parent $(git -C "$repo" rev-parse --short "$parent_rev")" >&2
    for ((i = 1; i <= pairs; i++)); do
        echo "pair $i" >&2
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do run_side "$w" "$side" "$i"; done
    done
done

python3 - "$root/runs" "$seed" "$pairs" "$root/change/BENCHMARK.json" "${workloads[@]}" <<'PY'
import json, statistics, sys
runs, seed, pairs, bench, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5:]
spec = {m["name"]: m for m in json.load(open(bench))["end_to_end"]}

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

table, health = [], {}
for workload in workloads:
    load = lambda side, i: json.load(open(f"{runs}/{workload}-{seed}-{i}-{side}.json"))
    parent = [load("parent", i) for i in range(1, pairs + 1)]
    change = [load("change", i) for i in range(1, pairs + 1)]
    print(f"\n{workload}, seed {seed}, {pairs} alternating pairs (median [q1, q3])")
    for name, m in spec.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        lower = m["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        iqr = pq3 - pq1
        scale = abs(pmed) or 1.0
        gain = (pmed - cmed) if lower else (cmed - pmed)   # > 0: change is better
        # Either side's spread past the bound leaves the pair unresolved.
        spread = max(iqr, cq3 - cq1) / scale
        if gain > iqr and wins * 10 >= 9 * pairs:
            verdict = "better"
        elif -gain / scale > m["bound"]:
            verdict = f"WORSE by {-gain / scale:.1%}, past the {m['bound']:.0%} bound"
        elif spread > m["bound"]:
            verdict = "unresolved: the runs spread wider than the bound"
        elif abs(gain) <= iqr:
            verdict = "within the parent's own spread"
        else:
            verdict = "moved, inside the bound" + ("" if gain > 0 else " (worse)")
        print(f"  {name:16s} {m['unit']:4s} parent {pmed:10.4f} [{pq1:.4f}, {pq3:.4f}]  "
              f"change {cmed:10.4f} [{cq1:.4f}, {cq3:.4f}]  x{cmed / scale:.3f}  "
              f"wins {wins}/{pairs}" + (f" ties {ties}" if ties else "") +
              f"  parent q3-q1 {iqr:.4f} ({iqr / scale:.1%})  {verdict}")
        short = ("worse" if verdict.startswith("WORSE") else
                 "unresolved (spread wider than the bound)" if verdict.startswith("unresolved") else
                 "not worse")
        table.append((workload, name, m["unit"], pmed, cmed, wins, iqr / scale, m["bound"], short))
    for side, rs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        wrong = sum(not r["correct"] for r in rs)
        print(f"  {side}: {failed} of {attempted} ops failed, {wrong} runs with a wrong answer")
        if side == "change":
            health[workload] = ("0 failed ops, every answer checked true" if failed == 0 and wrong == 0
                                else f"{failed} FAILED OPS, {wrong} RUNS WITH A WRONG ANSWER")

print(f"\nno-gain verdicts, seed {seed}, {pairs} pairs: is the change's median worse than the "
      "parent's by more than the bound?")
print(f"  {'workload':8s} {'metric':16s} {'unit':4s} {'parent':>10s} {'change':>10s} "
      f"{'wins':>6s} {'parent q3-q1':>12s} {'bound':>5s}  verdict")
for workload, name, unit, pmed, cmed, wins, iqr, bound, verdict in table:
    print(f"  {workload:8s} {name:16s} {unit:4s} {pmed:10.4f} {cmed:10.4f} "
          f"{wins:3d}/{pairs:<2d} {iqr:12.1%} {bound:5.0%}  {verdict}")
for workload in workloads:
    print(f"  {workload:8s} change: {health[workload]}")
PY
