#!/bin/sh
# results.sh — check that the committed results/ are current: regenerate every
# results/*.csv with the command that wrote them and compare byte for byte.
#
# Usage:
#   scripts/results.sh                 # full sweep, as committed
#   scripts/results.sh -workers 2      # extra arguments go to cmd/experiments
#
# The sweep is `experiments -exp all -requests 400000 -out DIR` into a
# temporary directory. Every committed CSV must come back identical; for one
# that moved the script names the first differing line. The .txt and .log
# files in results/ carry wall-clock times and progress lines, so they are
# not compared. The sweep's wall-clock and peak resident set are printed
# (and appended to the GitHub job summary when there is one), but they are
# records, not gates: hosts vary.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/experiments" ./cmd/experiments
start=$(date +%s)
if command -v python3 > /dev/null; then
    # Runs the sweep and prints its peak resident set in MB (ru_maxrss is
    # in KiB on Linux).
    rss=$(python3 - "$tmp/stdout.txt" "$tmp/experiments" -exp all -requests 400000 -q -out "$tmp/out" "$@" <<'PY'
import resource, subprocess, sys
with open(sys.argv[1], "w") as out:
    rc = subprocess.run(sys.argv[2:], stdout=out).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
sys.exit(rc)
PY
)
    rss="$rss MB"
else
    "$tmp/experiments" -exp all -requests 400000 -q -out "$tmp/out" "$@" > "$tmp/stdout.txt"
    rss="not measured (no python3)"
fi
wall=$(( $(date +%s) - start ))

status=0
n=0
for want in results/*.csv; do
    n=$((n + 1))
    got="$tmp/out/$(basename "$want")"
    if [ ! -f "$got" ]; then
        echo "results.sh: $want was not regenerated" >&2
        status=1
    elif ! cmp -s "$want" "$got"; then
        line=$(cmp "$want" "$got" 2>&1 | sed -n 's/.* line \([0-9]*\).*/\1/p')
        line=${line:-1}
        echo "results.sh: $want moved; first differing line $line:" >&2
        echo "  committed:   $(sed -n "${line}p" "$want")" >&2
        echo "  regenerated: $(sed -n "${line}p" "$got")" >&2
        status=1
    fi
done
for got in "$tmp"/out/*.csv; do
    [ -f "results/$(basename "$got")" ] || {
        echo "results.sh: the sweep wrote $(basename "$got"), which results/ does not hold" >&2
        status=1
    }
done

summary="results.sh: $n CSVs compared, sweep wall-clock ${wall}s, peak RSS $rss (.txt and .log files not compared)"
echo "$summary"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    echo "$summary" >> "$GITHUB_STEP_SUMMARY"
fi
[ "$status" -eq 0 ] && echo "results.sh: results/ is current"
exit "$status"
