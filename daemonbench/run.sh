#!/usr/bin/env bash
# Builds the daemon-surface benchmark from the checkout it sits in and runs
# it with the given arguments, e.g.
#
#	bash daemonbench/run.sh --workload churn-11664 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build and
# module caches, temporary files) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/daemonbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (daemonbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd "$root/daemonbench" && go build -o "$out/daemonbench" .)
# The Go runtime returns freed heap pages with MADV_FREE instead of
# MADV_DONTNEED, so pages stay mapped until the kernel runs short. On a VM
# with free page reporting, pages given back with MADV_DONTNEED go back to
# the host and every refault then costs what the host's memory state makes
# it cost, which moved latencies from run to run. A GODEBUG set by the
# caller comes later and wins.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$out/daemonbench" "$@"
