#!/usr/bin/env bash
# Builds the broker benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload hotpath --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ in the repository root; the traced run writes its spans
# to .bench_build/traces/. Flags are passed to the benchmark unchanged;
# see perfbench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	# The official Go distribution's default install location.
	PATH="$PATH:/usr/local/go/bin"
fi

# The benchmark is a module of its own that imports the repository's
# packages through a replace directive, so it builds only inside a full
# checkout. The go line of a binary's main module decides the runtime's
# GODEBUG defaults (timer semantics among them), so the benchmark is
# built with the repository's go line rather than the one frozen in
# _harness/go.mod. The build stays offline and keeps its cache and the
# go command's own files inside .bench_build.
(
	cd "$root/perfbench/_harness"
	gover="$(sed -n 's/^go \([0-9][0-9.]*\)[[:space:]]*$/\1/p' "$root/go.mod")"
	sed "s/^go .*/go ${gover:?no go line in go.mod}/" go.mod >"$out/harness.mod"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -modfile "$out/harness.mod" -o "$out/perfbench" .
) >&2

cd "$root"
exec "$out/perfbench" "$@"
