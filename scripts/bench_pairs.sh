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
# per workload x end-to-end metric of BENCHMARK.json: each side's median
# and quartiles, the delta with its base, in how many pairs the change
# read better, and a verdict:
#   gain       better in >= 9/10 of the pairs, and the medians differ by
#              more than the parent's interquartile range;
#   worse      the change's median is worse than the parent's by more
#              than the metric's `bound` (a fraction of the parent's);
#   unresolved either side's interquartile range is wider than that
#              bound, and not every change run beats every parent run;
#   no worse   otherwise.
# It ends with where the time went: one `--trace 1 --reps 1` run per side
# and workload, and each side's per-layer seconds and lock acquires from
# those result lines.
# Every run's result line is kept under $BENCH_PAIRS_DIR/runs/.
#
# The change side is the working tree as it stands, committed or not.
# BENCH_PAIRS_DIR defaults to target/bench_pairs (git-ignored).
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,28p' "$0" >&2; exit 2; }
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

run() { # <side> <workload> <tag> [trace=0] [reps=4]
    local checkout=$repo
    [ "$1" = parent ] && checkout=$dir/parent
    (cd "$checkout" && "$dir/$1-target/release/bench_pipeline" \
        --workload "$2" --trace "${4:-0}" --reps "${5:-4}" | tail -n 1) >"$dir/runs/$2.$3.$1.json"
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
for w in "${workloads[@]}"; do
    for side in parent change; do
        run "$side" "$w" traced 1 1
    done
done

python3 - "$repo/BENCHMARK.json" "$dir/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

bench, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(bench))["end_to_end"]

def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, q3

print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | delta "
      "| change better in | verdict | failed p/c |")
print("|---|---|---|---|---|---|---|---|")
for w in workloads:
    side = {s: [json.load(open(f"{runs}/{w}.{p}.{s}.json")) for p in range(1, pairs + 1)]
            for s in ("parent", "change")}
    failed = "/".join(str(sum(r["failed"] + (not r["correct"]) for r in side[s]))
                      for s in ("parent", "change"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a, b = ([r["metrics"][name]["value"] for r in side[s]] for s in ("parent", "change"))
        # Orient every value so that larger is better.
        sign = -1 if m["better"] == "lower" else 1
        (q1, q3), (r1, r3) = quartiles(a), quartiles(b)
        ma, mb = statistics.median(a), statistics.median(b)
        better = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        gain = sign * (mb - ma)
        if 10 * better >= 9 * pairs and gain > q3 - q1:
            verdict = "gain"
        elif -gain > bound * ma:
            verdict = "worse"
        elif (max(q3 - q1, r3 - r1) > bound * ma
              and not min(sign * y for y in b) > max(sign * x for x in a)):
            verdict = "unresolved"
        else:
            verdict = "no worse"
        print(f"| `{w}` | `{name}` | {ma:.3f} [{q1:.3f}, {q3:.3f}] "
              f"| {mb:.3f} [{r1:.3f}, {r3:.3f}] "
              f"| {100 * (mb - ma) / ma:+.1f} % of {ma:.3f} | {better}/{pairs} "
              f"| {verdict} | {failed} |")

layers = ["workloads.populate_s", "workloads.capture_s", "staged.capture_s",
          "core.sweep_s", "engine.capture_self_s", "engine.cc_acquires"]
print()
print("Where the time went (one `--trace 1 --reps 1` run per side):")
print()
print("| workload | side | " + " | ".join(f"`{l}`" for l in layers) + " |")
print("|---|---|" + "---|" * len(layers))
for w in workloads:
    for s in ("parent", "change"):
        got = json.load(open(f"{runs}/{w}.traced.{s}.json"))["metrics"]
        cells = ("–" if l not in got else f"{got[l]['value']:.3f}" if l.endswith("_s")
                 else f"{got[l]['value']:.0f}" for l in layers)
        print(f"| `{w}` | {s} | " + " | ".join(cells) + " |")
EOF
