#!/usr/bin/env bash
# Print `name sha256(stdout)` for every figure `fig --list` names — the
# check that a model-preserving change leaves every figure's stdout
# byte-identical (ROADMAP ground rule iii), and, run twice and diffed,
# that every figure's stdout is deterministic.
#
#   scripts/fig_digests.sh [--quick]
#
# Builds the release `fig` binary first; `--quick` is passed to every
# figure (without it, every figure runs at paper scale: about a minute
# and a half). Each figure's wall clock, read from its stderr footer,
# goes to stderr as `name seconds`; stdout carries only the digests.
set -euo pipefail

[ $# -eq 0 ] || [ "$*" = --quick ] || { sed -n '2,12p' "$0" >&2; exit 2; }

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cargo build --release --quiet --bin fig --manifest-path "$repo/Cargo.toml"
fig=${CARGO_TARGET_DIR:-$repo/target}/release/fig
err=$(mktemp)
trap 'rm -f "$err"' EXIT

for name in $("$fig" --list | awk '{print $1}'); do
    digest=$("$fig" "$name" "$@" 2>"$err" | sha256sum | cut -d' ' -f1)
    echo "$name $digest"
    sed -n "s/^\[regenerated in \(.*\) s\]$/$name \1/p" "$err" >&2
done
