#!/usr/bin/env bash
# Builds the end-to-end benchmark, cmd/nocserve and cmd/tracecheck from
# source, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash e2ebench/run.sh --workload serve_zipf --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and trace files stay in .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/nocserve || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root; the sources to build are missing" >&2
	exit 2
fi
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$out/bin" "$HOME"
go build -o "$out/bin/nocserve" ./cmd/nocserve
go build -o "$out/bin/tracecheck" ./cmd/tracecheck
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -bin "$out/bin" -out "$out" "$@"
