#!/usr/bin/env bash
# Alternating parent/change runs — the table ROADMAP ground rule (ii) asks
# every perf claim for.
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10] [workloads...]
#   scripts/bench_pairs.sh --aa <ref> [pairs=10] [workloads...]
#   scripts/bench_pairs.sh --figs <parent-ref> [pairs=10] [figures...]
#   scripts/bench_pairs.sh --check-log
#
# Exports <parent-ref>'s committed files (git archive) beside the working
# tree's, builds each side, then for every pair runs both sides of every
# workload or figure, flipping which side goes first each pair. Prints,
# per workload or figure x metric: each side's median and quartiles, the
# delta with its base, in how many pairs the change read better, and a
# verdict:
#   gain       at least 10 pairs, the change better in >= 9/10 of them,
#              and the medians differ by more than the parent's
#              interquartile range;
#   worse      the change's median is worse than the parent's by more
#              than the metric's `bound` (a fraction of the parent's);
#   unresolved either side's interquartile range is wider than that
#              bound, and not every change run beats every parent run;
#   no worse   otherwise.
#
# Workload mode (the default) builds bench_pipeline from each side with
# BENCHMARK.json's own build line and runs it with `--trace 0 --reps 4`;
# the metrics are BENCHMARK.json's end-to-end ones.
#
# Figure mode (--figs) builds `fig` from each side and runs `fig <name>` at
# paper scale, every figure of `fig --list` when none is named. Its
# metrics are `wall_s`, read from the figure's `[regenerated in … s]`
# footer, and `peak_rss_mb`, the process's VmHWM, which wait4(2) returns
# as ru_maxrss; their bounds are BENCHMARK.json's. A last column says
# whether every run of both sides printed the same stdout. Each run
# appends one JSON line to BENCH_figs.jsonl at the repository root, with
# the keys FIG_KEYS names below; --check-log checks that every line there
# parses and has them.
#
# Every run's result is kept under $BENCH_PAIRS_DIR/runs/. The change side
# is the working tree as it stands, committed or not. BENCH_PAIRS_DIR
# defaults to target/bench_pairs (git-ignored).
#
# --aa (workload mode) exports <ref> to both sides, so the two sides are the
# same code and every verdict other than "no worse" is a false one: the
# table shows how often this host's noise alone reads as a gain, a loss or
# "unresolved".
set -euo pipefail

FIG_KEYS="date host rev side figure scale pair ok wall_s peak_rss_mb stdout_sha256"
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
log=$repo/BENCH_figs.jsonl

if [ "${1:-}" = --check-log ]; then
    exec python3 - "$log" $FIG_KEYS <<'EOF'
import json, sys

log, keys = sys.argv[1], set(sys.argv[2:])
lines = open(log).read().splitlines()
for n, line in enumerate(lines, 1):
    try:
        rec = json.loads(line)
    except ValueError as e:
        sys.exit(f"{log}:{n}: not JSON: {e}")
    if not isinstance(rec, dict) or keys - rec.keys():
        sys.exit(f"{log}:{n}: missing {sorted(keys - set(rec))}")
print(f"{log}: {len(lines)} runs, each with {len(keys)} keys")
EOF
fi

mode=workloads
aa=
if [ "${1:-}" = --figs ]; then mode=figs; shift; fi
if [ "${1:-}" = --aa ]; then aa=1; shift; fi
[ -z "$aa" ] || [ $mode = workloads ] || { echo "--aa runs workloads only" >&2; exit 2; }
[ $# -ge 1 ] || { sed -n '2,46p' "$0" >&2; exit 2; }
parent_ref=$1
pairs=${2:-10}
shift; [ $# -gt 0 ] && shift
names=("$@")

dir=${BENCH_PAIRS_DIR:-$repo/target/bench_pairs}
rm -rf "$dir/parent" "$dir/change" "$dir/runs"
mkdir -p "$dir/parent" "$dir/runs"
git -C "$repo" archive "$parent_ref" | tar -x -C "$dir/parent"
if [ -n "$aa" ]; then
    mkdir -p "$dir/change"
    git -C "$repo" archive "$parent_ref" | tar -x -C "$dir/change"
fi
checkout() {
    if [ "$1" = parent ]; then echo "$dir/parent"
    elif [ -n "$aa" ]; then echo "$dir/change"
    else echo "$repo"; fi
}

if [ $mode = workloads ]; then
    [ ${#names[@]} -gt 0 ] || names=(oltp_camps dss_capture oltp_contended dist_joins)
    for side in parent change; do
        CARGO_TARGET_DIR="$dir/$side-target" cargo build --release --offline --quiet \
            --manifest-path "$(checkout $side)/crates/bench/src/bin/bench_pipeline/Cargo.toml"
    done
    run() { # <side> <workload> <pair>
        (cd "$(checkout "$1")" && "$dir/$1-target/release/bench_pipeline" \
            --workload "$2" --trace 0 --reps 4 | tail -n 1) >"$dir/runs/$2.$3.$1.json"
    }
else
    for side in parent change; do
        CARGO_TARGET_DIR="$dir/$side-fig-target" cargo build --release --offline --quiet \
            --manifest-path "$(checkout $side)/Cargo.toml" --bin fig
    done
    [ ${#names[@]} -gt 0 ] || mapfile -t names < <("$dir/change-fig-target/release/fig" --list | cut -d" " -f1)
    host=$(sed -n 's/^model name\s*: //p' /proc/cpuinfo | head -n 1)
    host="${host:-$(uname -m)}, $(nproc) CPUs"
    rev_of() { # <side>: the parent's commit, or HEAD with `+` for uncommitted source
        if [ "$1" = parent ]; then
            git -C "$repo" rev-parse --short "$parent_ref^{commit}"
        else
            local dirty=
            [ -z "$(git -C "$repo" status --porcelain -- crates src tests examples vendor Cargo.toml Cargo.lock)" ] || dirty=+
            echo "$(git -C "$repo" rev-parse --short HEAD)$dirty"
        fi
    }
    run() { # <side> <figure> <pair>
        (cd "$(checkout "$1")" && python3 - "$dir/$1-fig-target/release/fig" "$dir/runs/$2.$3.$1" \
            "$host" "$(rev_of "$1")" "$1" "$2" "$3" $FIG_KEYS <<'EOF'
import datetime, hashlib, json, os, re, subprocess, sys

fig, out, host, rev, side, name, pair, keys = *sys.argv[1:8], sys.argv[8:]
with open(out + ".stdout", "wb") as stdout, open(out + ".stderr", "wb") as stderr:
    child = subprocess.Popen([fig, name], stdout=stdout, stderr=stderr)
    # The reaped child's ru_maxrss is its VmHWM, in kB.
    _, status, rusage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
footer = re.search(rb"\[regenerated in ([0-9.]+) s\]", open(out + ".stderr", "rb").read())
rec = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": host,
    "rev": rev,
    "side": side,
    "figure": name,
    "scale": "paper",
    "pair": int(pair),
    "ok": child.returncode == 0 and footer is not None,
    "wall_s": float(footer.group(1)) if footer else None,
    "peak_rss_mb": round(rusage.ru_maxrss / 1024, 1),
    "stdout_sha256": hashlib.sha256(open(out + ".stdout", "rb").read()).hexdigest(),
}
assert sorted(rec) == sorted(keys), "FIG_KEYS and the record disagree"
print(json.dumps(rec))
EOF
        ) >"$dir/runs/$2.$3.$1.json"
        cat "$dir/runs/$2.$3.$1.json" >>"$log"
    }
fi

for pair in $(seq 1 "$pairs"); do
    order=(parent change)
    [ $((pair % 2)) -eq 0 ] && order=(change parent)
    for name in "${names[@]}"; do
        for side in "${order[@]}"; do
            run "$side" "$name" "$pair"
        done
    done
    echo "pair $pair/$pairs done (${order[0]} first)" >&2
done

python3 - "$mode" "$repo/BENCHMARK.json" "$dir/runs" "$pairs" "${names[@]}" <<'EOF'
import json, statistics, sys

mode, bench, runs, pairs, names = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5:]
metrics = json.load(open(bench))["end_to_end"]
if mode == "figs":
    metrics = [m for m in metrics if m["name"] in ("wall_s", "peak_rss_mb")]

def load(name, pair, side):
    """A run's metric values by name, and whether it failed (0 or more)."""
    r = json.load(open(f"{runs}/{name}.{pair}.{side}.json"))
    if mode == "figs":
        return {m["name"]: r[m["name"]] for m in metrics}, int(not r["ok"])
    return ({m["name"]: r["metrics"][m["name"]]["value"] for m in metrics},
            r["failed"] + (not r["correct"]))

def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, q3

what = "figure" if mode == "figs" else "workload"
extra = " | same stdout" if mode == "figs" else ""
print(f"| {what} | metric | parent median [q1, q3] | change median [q1, q3] | delta "
      f"| change better in | verdict | failed p/c{extra} |")
print("|---|---|---|---|---|---|---|---|" + ("---|" if extra else ""))
for w in names:
    side = {s: [load(w, p, s) for p in range(1, pairs + 1)] for s in ("parent", "change")}
    failed = "/".join(str(sum(f for _, f in side[s])) for s in ("parent", "change"))
    same = ""
    if mode == "figs":
        shas = {json.load(open(f"{runs}/{w}.{p}.{s}.json"))["stdout_sha256"]
                for p in range(1, pairs + 1) for s in ("parent", "change")}
        same = " | yes" if len(shas) == 1 else " | **no**"
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a, b = ([v[name] for v, f in side[s] if not f] for s in ("parent", "change"))
        if not a or not b:
            print(f"| `{w}` | `{name}` | – | – | – | – | failed | {failed}{same} |")
            continue
        # Orient every value so that larger is better.
        sign = -1 if m["better"] == "lower" else 1
        (q1, q3), (r1, r3) = quartiles(a), quartiles(b)
        ma, mb = statistics.median(a), statistics.median(b)
        better = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        gain = sign * (mb - ma)
        if pairs >= 10 and 10 * better >= 9 * pairs and gain > q3 - q1:
            verdict = "gain"
        elif -gain > bound * ma:
            verdict = "worse"
        elif (max(q3 - q1, r3 - r1) > bound * ma
              and not min(sign * y for y in b) > max(sign * x for x in a)):
            verdict = "unresolved"
        else:
            verdict = "no worse"
        # A figure that prints no work reads 0.00 s on both sides.
        delta = f"{100 * (mb - ma) / ma:+.1f} %" if ma else f"{mb - ma:+.3f}"
        print(f"| `{w}` | `{name}` | {ma:.3f} [{q1:.3f}, {q3:.3f}] "
              f"| {mb:.3f} [{r1:.3f}, {r3:.3f}] "
              f"| {delta} of {ma:.3f} | {better}/{pairs} "
              f"| {verdict} | {failed}{same} |")
EOF
[ -z "$aa" ] || echo "A/A run: both sides are $parent_ref, so any verdict other than \"no worse\" is false."
