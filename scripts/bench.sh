#!/bin/sh
# bench.sh — run the hot-path micro-benchmarks, once or as a same-machine A/B.
#
# Usage:
#   scripts/bench.sh                  # the working tree, one round; raw
#                                     # `go test -bench` text on stdout
#   scripts/bench.sh -benchtime 1x    # smoke: every benchmark runs once
#   scripts/bench.sh -against REV     # A/B: REV (the base) against the
#                                     # working tree; exits 1 on a regression
#
# -against checks REV out with git worktree into a temporary directory,
# builds each package's test binary on both sides (with -trimpath, so the
# same source gives the same binary), and runs the two sides in $rounds
# alternating rounds on this machine, so a row compares two trees and never
# two hosts. The raw outputs and cmd/benchcmp's report are left in
# .bench_ab/ (base.txt, new.txt, report.txt). benchcmp pairs results by name:
# a benchmark whose body changes takes a new name.
set -eu

cd "$(dirname "$0")/.."

# Ten rounds, so that cmd/benchcmp's nine-tenths rule reads 9 of 10: on a
# shared 2-vCPU host, five rounds failed identical binaries too often to
# gate (DESIGN §12).
rounds=10
benchtime=100ms
against=""
while [ $# -gt 0 ]; do
    case "$1" in
    -against) shift; against=$1 ;;
    -benchtime) shift; benchtime=$1 ;;
    *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

# One line per package: its directory and the -bench pattern run in it.
# Root package: only the end-to-end hot-path benchmarks (throughput plain,
# with the observability recorder attached, multi-queue vs single-FTL, the
# sustained-GC regime, and BenchmarkBuild, a 64 GB device built per scheme in
# a fresh child process), not the figure sweeps, which take seconds per
# iteration. Internal packages: every benchmark they define, e.g. the three
# resource-timeline regimes of internal/sim, the copy-back runs of
# internal/flash and one whole collection in internal/ftl/gc. The root
# pattern lists plain names so that TestBenchScriptSelectorsNameBenchmarks can
# check each of them.
suite='
. ^(BenchmarkSimulateThroughput|BenchmarkSimulateThroughputObserved|BenchmarkSimulateThroughputObservedMQ|BenchmarkShardedThroughput|BenchmarkGCHeavy|BenchmarkBuild)$
internal/sim .
internal/flash .
internal/ftl .
internal/ftl/gc .
internal/ftl/translate .
internal/workload .
internal/stats .
internal/trace .
internal/expt .
internal/ssd .
'

# Each side is a source tree $tmp/SIDE-tree (the working tree is linked
# there) and its test binaries $tmp/SIDE/PKG/pkg.test.
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base-tree" 2>/dev/null || true; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
ln -s "$PWD" "$tmp/new-tree"
out=$tmp

# build SIDE: compile each package's test binary.
build() {
    echo "$suite" | grep . | while read -r pkg pattern; do
        go -C "$tmp/$1-tree" test -c -trimpath -o "$tmp/$1/$pkg/pkg.test" "./$pkg"
    done
}

# run SIDE PKG PATTERN: run PKG's benchmarks matching PATTERN from the
# package directory, appending the raw text to $out/SIDE.txt. A failed run
# stops the script.
run() {
    if ! (cd "$tmp/$1-tree/$2" && "$tmp/$1/$2/pkg.test" -test.run '^$' -test.bench "$3" \
        -test.benchmem -test.benchtime "$benchtime") >> "$out/$1.txt" 2>&1; then
        tail -n 30 "$out/$1.txt" >&2
        echo "bench.sh: $1 benchmarks of $2 failed" >&2
        exit 1
    fi
}

build new
if [ -z "$against" ]; then
    echo "$suite" | grep . | while read -r pkg pattern; do
        run new "$pkg" "$pattern"
    done
    cat "$out/new.txt"
    exit 0
fi

git worktree add --quiet --detach "$tmp/base-tree" "$against"
build base
out=$PWD/.bench_ab
rm -rf "$out"
mkdir "$out"

# Each top-level benchmark runs its rounds back to back, the two sides
# alternating and the side that goes first swapping each round. The k-th
# result on one side is then taken next to the k-th on the other, and all
# rounds of a row fall within seconds: a shared host's speed shifts on about
# that scale, so this keeps the base's own spread to the noise of one window.
echo "$suite" | grep . | while read -r pkg pattern; do
    for name in $(for side in base new; do
        (cd "$tmp/$side-tree/$pkg" && "$tmp/$side/$pkg/pkg.test" -test.list "$pattern")
    done | grep '^Benchmark' | sort -u); do
        for r in $(seq "$rounds"); do
            order="base new"
            [ $((r % 2)) -eq 1 ] || order="new base"
            for side in $order; do
                run "$side" "$pkg" "^$name\$"
            done
        done
    done
    echo "bench.sh: $pkg done" >&2
done

status=0
go run ./cmd/benchcmp -base "$out/base.txt" -new "$out/new.txt" > "$out/report.txt" || status=$?
cat "$out/report.txt"
exit "$status"
