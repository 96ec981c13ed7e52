#!/usr/bin/env bash
# Alternating parent/change runs of bench_pipeline — the table ROADMAP
# ground rule (ii) asks every perf claim for.
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10] [workloads...]
#
# Exports <parent-ref>'s committed files (git archive) beside the working
# tree's, builds bench_pipeline from each with BENCHMARK.json's own build
# line, then for every pair and workload runs both sides with
# `--trace 0 --reps 4`, flipping which side goes first each pair. Prints,
# per workload x end-to-end metric: both medians, the delta with its base,
# the parent's quartiles and in how many pairs the change read lower.
# Every run's result line is kept under $BENCH_PAIRS_DIR/runs/.
#
# The change side is the working tree as it stands, committed or not.
# BENCH_PAIRS_DIR defaults to target/bench_pairs (git-ignored).
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,17p' "$0" >&2; exit 2; }
parent_ref=$1
pairs=${2:-10}
shift; [ $# -gt 0 ] && shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(oltp_camps dss_capture oltp_contended dist_joins)

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${BENCH_PAIRS_DIR:-$repo/target/bench_pairs}
manifest=crates/bench/src/bin/bench_pipeline/Cargo.toml
rm -rf "$dir/parent" "$dir/runs"
mkdir -p "$dir/parent" "$dir/runs"
git -C "$repo" archive "$parent_ref" | tar -x -C "$dir/parent"

build() { # <checkout> <side>
    CARGO_TARGET_DIR="$dir/$2-target" cargo build --release --offline --quiet \
        --manifest-path "$1/$manifest"
}
build "$dir/parent" parent
build "$repo" change

run() { # <side> <workload> <pair>
    local checkout=$repo
    [ "$1" = parent ] && checkout=$dir/parent
    (cd "$checkout" && "$dir/$1-target/release/bench_pipeline" \
        --workload "$2" --trace 0 --reps 4 | tail -n 1) >"$dir/runs/$2.$3.$1.json"
}

for pair in $(seq 1 "$pairs"); do
    order=(parent change)
    [ $((pair % 2)) -eq 0 ] && order=(change parent)
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            run "$side" "$w" "$pair"
        done
    done
    echo "pair $pair/$pairs done (${order[0]} first)" >&2
done

python3 - "$dir/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
print("| workload | metric | parent median [q1, q3] | change median | delta | change lower in | failed p/c |")
print("|---|---|---|---|---|---|---|")
for w in workloads:
    side = {s: [json.load(open(f"{runs}/{w}.{p}.{s}.json")) for p in range(1, pairs + 1)]
            for s in ("parent", "change")}
    failed = "/".join(str(sum(r["failed"] + (not r["correct"]) for r in side[s]))
                      for s in ("parent", "change"))
    for m in ("wall_s", "setup_s", "peak_rss_mb"):
        a, b = ([r["metrics"][m]["value"] for r in side[s]] for s in ("parent", "change"))
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        ma, mb = statistics.median(a), statistics.median(b)
        lower = sum(y < x for x, y in zip(a, b))
        print(f"| `{w}` | `{m}` | {ma:.3f} [{q1:.3f}, {q3:.3f}] | {mb:.3f} "
              f"| {100 * (mb - ma) / ma:+.1f} % of {ma:.3f} | {lower}/{pairs} | {failed} |")
EOF
