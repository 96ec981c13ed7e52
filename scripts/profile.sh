#!/usr/bin/env bash
# Where bench_pipeline spends its CPU time: sample shares per crate, per
# symbol and per innermost source line.
#
#   scripts/profile.sh <workload>
#
# Builds bench_pipeline with BENCHMARK.json's build line plus line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) and the SIGPROF sampler
# scripts/sigprof.c with the system gcc, runs
# `bench_pipeline --workload <workload> --trace 0 --reps 4` with the
# sampler preloaded (a sample asked for every millisecond of process CPU
# time, every thread), and prints the process's CPU seconds as measured at
# exit, the sample period they give (the kernel may tick coarser than the
# 1 ms asked for), and the 20 largest shares of each table. The symbol is
# the binary's own symbol table entry (nm) the sample lies in, the
# function the code was compiled into. addr2line's innermost inlined frame
# gives the source line, and its outermost frame's source path the crate.
# Samples outside the binary are charged to their shared object. Needs gcc
# and binutils only: no perf, and no CPU performance counters. PROFILE_DIR
# (default target/profile) holds the build, the sampler and the raw
# samples.
set -euo pipefail

[ $# -eq 1 ] || { sed -n '2,21p' "$0" >&2; exit 2; }
workload=$1

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${PROFILE_DIR:-$repo/target/profile}
mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$dir/sigprof.so" "$repo/scripts/sigprof.c" -ldl
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet \
    --manifest-path "$repo/crates/bench/src/bin/bench_pipeline/Cargo.toml"
bin=$dir/target/release/bench_pipeline

(cd "$repo" && SIGPROF_OUT="$dir/samples.tsv" LD_PRELOAD="$dir/sigprof.so" \
    "$bin" --workload "$workload" --trace 0 --reps 4 | tail -n 1 >"$dir/result.json")

python3 - "$bin" "$dir/samples.tsv" <<'EOF'
import bisect, collections, os, re, subprocess, sys

binary, samples = sys.argv[1:]
lines = open(samples).read().splitlines()
cpu_s = float(lines[0].split()[2])  # "# cpu_s <seconds>", sigprof.c's header
rows = [line.split("\t") for line in lines[1:]]
ours = lambda obj: obj in ("", binary) or os.path.basename(obj) == os.path.basename(binary)
offsets = sorted({int(off, 16) for obj, off, _ in rows if ours(obj)})

# addr2line -a -f -i: per address, its line, then a (function, file:line)
# pair per frame, innermost first.
out = subprocess.run(["addr2line", "-e", binary, "-a", "-f", "-i", "-C"],
                     input="".join(f"{o:#x}\n" for o in offsets),
                     capture_output=True, text=True, check=True).stdout.splitlines()
frames, cur = {}, None
for line in out:
    if re.fullmatch(r"0x[0-9a-f]+", line):
        cur = int(line, 16)
        frames[cur] = []
    elif cur is not None and (not frames[cur] or len(frames[cur][-1]) == 2):
        frames[cur].append([re.sub(r"::h[0-9a-f]{16}$", "", line)])
    elif cur is not None:
        frames[cur][-1].append(re.sub(r" \(discriminator \d+\)$", "", line))

# The function symbols, by address, for the symbol each sample lies in.
symtab = [line.split(" ", 2) for line in subprocess.run(
    ["nm", "-C", "-n", "--defined-only", binary],
    capture_output=True, text=True, check=True).stdout.splitlines()]
symtab = [(int(a, 16), re.sub(r"::h[0-9a-f]{16}$", "", n)) for a, t, n in symtab if t in "tTwW"]
starts = [a for a, _ in symtab]

def symbol(off):
    i = bisect.bisect_right(starts, off) - 1
    return symtab[i][1] if i >= 0 else "[before the first symbol]"

def crate(path):
    for pat, name in ((r"/crates/([^/]+)/", "dbcmp-{}"), (r"/library/([^/]+)/", "rust {}"),
                      (r"/vendor/([^/]+)/", "vendor {}"), (r"/registry/src/[^/]+/([^/]+)/", "{}")):
        m = re.search(pat, path)
        if m:
            return name.format(m.group(1))
    return "[unknown source]"

def short(path):
    m = re.search(r"/(crates|library|vendor)/.*", path)
    return m.group(0)[1:] if m else path

by = {k: collections.Counter() for k in ("crate", "symbol", "line")}
for obj, off, sym in rows:
    f = frames.get(int(off, 16)) if ours(obj) else None
    if f:
        outer, inner = f[-1], f[0]
        keys = (crate(outer[1]), symbol(int(off, 16)), short(inner[1]))
    else:
        lib = f"[{os.path.basename(obj)}]"
        keys = (lib, f"{lib} {sym if sym != '-' else '(not exported)'}", lib)
    for k, v in zip(("crate", "symbol", "line"), keys):
        by[k][v] += 1

n = len(rows)
print(f"{n} samples over {cpu_s:.2f} s of CPU (one per {1000 * cpu_s / max(n, 1):.2f} ms)")
for k, title in (("crate", "crate"), ("symbol", "symbol"),
                 ("line", "innermost source line")):
    print(f"\n| share | samples | {title} |\n|---:|---:|---|")
    for name, c in by[k].most_common(20):
        print(f"| {100 * c / n:.1f} % | {c} | `{name}` |")
EOF
echo >&2
echo "result line: $dir/result.json" >&2
