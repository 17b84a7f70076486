#!/usr/bin/env sh
# Alternating pairs of benchmark runs for two builds, and the verdict.
#
#   ./scripts/pairs.sh <base> <change> <workload> [pairs] [first-seed]
#
# <base> and <change> are git revisions, or `worktree` for the working
# tree as `git add -A` would commit it. Each side is exported with
# `git archive` into target/pairs/<side>/src and built there with its
# own CARGO_TARGET_DIR (target/pairs/<side>/target), so neither build
# reuses the other's artefacts or writes into this checkout; a side is
# exported again only when its tree changed. Both builds first pass
# perfbench's --selftest.
#
# Then, for each of [pairs] seeds (default 10) counting up from
# [first-seed] (default 1), both builds run BENCHMARK.json's command
# with `--workload <workload> --seed <seed> --seconds <run_seconds>
# --trace 0`, in ABBA order: the base runs first in even pairs, the
# change first in odd ones. Each run's last stdout line is kept in
# target/pairs/<workload>-<first-seed>-<pairs>.txt as
# `<side> <seed> <line>`, and benchkit's `pairs` binary prints, per
# end-to-end metric, both sides' medians and quartiles, the wins and a
# verdict (gain, too few pairs, worse, unresolved or no change) from
# that file. A gain needs at least 10 pairs.
#
# Use seeds no commit has used, so a change cannot have been tuned to
# them. Run nothing else on the host meanwhile: every run is timed.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <base> <change> <workload> [pairs] [first-seed]" >&2
    exit 2
fi
base=$1
change=$2
workload=$3
pairs=${4:-10}
first=${5:-1}
root=$(pwd)
work=$root/target/pairs
mkdir -p "$work"

# The tree a side names: a revision's, or the working tree's through a
# throwaway index.
tree_of() {
    if [ "$1" = worktree ]; then
        index=$work/worktree.index
        cp "$(git rev-parse --git-path index)" "$index"
        GIT_INDEX_FILE=$index git add -A
        GIT_INDEX_FILE=$index git write-tree
        rm -f "$index"
    else
        git rev-parse --verify "$1^{tree}"
    fi
}

# BENCHMARK.json's command, one word per array element.
command_of() {
    sed -n 's/.*"command": *\[\([^]]*\)\].*/\1/p' "$1/BENCHMARK.json" | tr -d '",'
}

cargo build -q --release --offline -p contory-benchkit --bin pairs

for side in base change; do
    if [ "$side" = base ]; then rev=$base; else rev=$change; fi
    tree=$(tree_of "$rev")
    dir=$work/$side
    if [ "$(cat "$dir/tree" 2>/dev/null || :)" != "$tree" ]; then
        rm -rf "$dir/src"
        mkdir -p "$dir/src"
        git archive "$tree" | tar -x -C "$dir/src"
        echo "$tree" > "$dir/tree"
    fi
    echo "==> $side: $rev (tree $tree): build and self-test" >&2
    (cd "$dir/src" && CARGO_TARGET_DIR=$dir/target $(command_of .) --selftest > "$dir/selftest.txt")
done

seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
out=$work/$workload-$first-$pairs.txt
: > "$out"
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((first + i))
    if [ $((i % 2)) -eq 0 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        dir=$work/$side
        line=$(cd "$dir/src" && CARGO_TARGET_DIR=$dir/target $(command_of .) \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
        echo "$side $seed $line" >> "$out"
    done
    i=$((i + 1))
    echo "==> $workload: pair $i of $pairs (seed $seed) done" >&2
done

echo "$workload: base $base, change $change; runs in $out"
./target/release/pairs BENCHMARK.json "$out"
