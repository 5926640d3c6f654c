#!/bin/sh
# profile-mq.sh — capture a CPU profile of the multi-queue hot path.
#
# Builds cmd/dloopsim, runs the 8-channel multi-queue shape (auto = one FTL
# shard per channel) with -cpuprofile, and prints pprof's top functions.
# The profile is kept at the -o path for deeper digging (flame graphs,
# `go tool pprof -http`, peephole diffs against an older profile).
#
# Usage:
#   scripts/profile-mq.sh                       # 400k requests, text top-25
#   scripts/profile-mq.sh -requests 2000000     # longer run, steadier profile
#   scripts/profile-mq.sh -o /tmp/mq.pprof      # keep the profile elsewhere
#   scripts/profile-mq.sh -http :8080           # interactive pprof web UI
#   scripts/profile-mq.sh -- -ftl DFTL -translate learned
#                                               # extra dloopsim flags after --
set -eu

cd "$(dirname "$0")/.."

requests=400000
out=mq-cpu.pprof
http=""
while [ $# -gt 0 ]; do
    case "$1" in
    -requests) shift; requests=$1 ;;
    -o) shift; out=$1 ;;
    -http) shift; http=$1 ;;
    --) shift; break ;;
    *) echo "profile-mq.sh: unknown argument $1 (pass dloopsim flags after --)" >&2; exit 2 ;;
    esac
    shift
done

bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/dloopsim" ./cmd/dloopsim

# 16 GB / 8 channels engages auto FTL sharding; the footprint keeps GC in
# the loop so the profile covers dispatch, execution, folding, and GC.
"$bindir/dloopsim" -ftl DLOOP -capacity 16 -requests "$requests" \
    -footprint 64 -ftl-shards auto -cpuprofile "$out" "$@"

echo "profile-mq.sh: profile written to $out" >&2
if [ -n "$http" ]; then
    exec go tool pprof -http "$http" "$bindir/dloopsim" "$out"
fi
go tool pprof -top -nodecount 25 "$bindir/dloopsim" "$out"
