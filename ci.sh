#!/usr/bin/env sh
# ci.sh — the full verification gate, runnable locally or in CI.
# Mirrors .github/workflows/ci.yml exactly; keep the two in sync.
set -eu

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> e2ebench module: vet, build, test"
# The benchmark is its own Go module (e2ebench/go.mod, replace gpunoc =>
# ../) and imports internal/noc and internal/perfbench, so the root
# ./... patterns above skip it: without this step an internal API change
# could break the benchmark while the gate stays green.
(cd e2ebench && go vet ./... && go test ./...)

echo "==> noclint -baseline (per-package + interprocedural analyzers, ratchet)"
# The committed baseline is empty: every analyzer must run clean, and
# the ratchet fails both on new findings and on stale baseline entries.
go run ./cmd/noclint -baseline noclint.baseline.json ./...

echo "==> noclint seeded-violation smoke"
# Prove the gate actually bites: drop a file with a known violation into
# the tree, assert noclint -baseline exits non-zero, then remove it.
smokedir="internal/lintsmoke_$$"
mkdir "$smokedir"
trap 'rm -rf "$smokedir"' EXIT
cat > "$smokedir/bad.go" <<'EOF'
// Package lintsmoke is a transient CI fixture proving the noclint
// baseline gate fails on a seeded violation.
package lintsmoke

import "time"

// Stamp reads the wall clock inside the model: a seedflow violation.
func Stamp() time.Time { return time.Now() }
EOF
if go run ./cmd/noclint -baseline noclint.baseline.json ./... >/dev/null 2>&1; then
	echo "noclint -baseline passed with a seeded violation; the gate is dead" >&2
	exit 1
fi
rm -rf "$smokedir"

echo "==> noclint seeded-violation smoke (generic method)"
# The simulators' buffers are one generic queue type, so their hot-path
# append sits in a method of a generic type, called through an
# instantiation. Seed that shape and assert the gate bites.
mkdir "$smokedir"
cat > "$smokedir/bad.go" <<'EOF'
// Package lintsmoke is a transient CI fixture proving hotpathalloc
// sees through a generic type's instantiation.
package lintsmoke

// Buf is a generic buffer.
type Buf[T any] struct{ items []T }

// Add appends without a directive: a hotpathalloc violation once a
// hot root reaches it.
func (b *Buf[T]) Add(x T) { b.items = append(b.items, x) }

// Fill calls Add through the Buf[int] instantiation.
//
//lint:hotpath CI smoke root
func Fill(b *Buf[int]) { b.Add(1) }
EOF
if out=$(go run ./cmd/noclint -baseline noclint.baseline.json ./... 2>&1); then
	echo "noclint -baseline passed with a seeded violation in a generic method; the gate is dead" >&2
	exit 1
fi
case "$out" in
*"$smokedir/bad.go:"*hotpathalloc*) ;;
*)
	echo "noclint -baseline failed, but not on the seeded generic-method append:" >&2
	echo "$out" >&2
	exit 1
	;;
esac
rm -rf "$smokedir"
trap - EXIT

echo "==> go test -race -shuffle=on"
# -shuffle randomizes test (and subtest-group) execution order every
# run, so inter-test state dependencies fail in CI instead of lurking.
go test -race -shuffle=on ./...

echo "==> nocfuzz invariant sweep (race)"
# The differential oracles (zero-load latency, arbiter low-load
# equivalence, replay determinism) plus 64 seeded fuzz cases must clear
# the full invariant audit — flit conservation, occupancy bounds, no
# duplication, wormhole framing, latency >= Manhattan bound, monotone
# IDs, Drained()<=>ledger-empty — with the race detector watching.
go run -race ./cmd/nocfuzz -seeds 64 -budget 30s

echo "==> nocfuzz seeded-sabotage smoke"
# Prove the harness bites: -break-invariant audits a healthy mesh
# through a sabotaged tap (a double-counted tail flit) and must exit
# non-zero with conservation findings, or the invariant gate is dead.
if go run -race ./cmd/nocfuzz -break-invariant >/dev/null 2>&1; then
	echo "nocfuzz -break-invariant passed with sabotaged accounting; the invariant gate is dead" >&2
	exit 1
fi

echo "==> nocbench -check (perf ratchet vs bench.baseline.json)"
# The curated benchmark suite must stay inside each entry's noise
# budget relative to the committed baseline. -quick keeps the stage
# cheap; the budgets are generous (default 2.5x) because shared runners
# are noisy, but stale baseline entries and new unbaselined benchmarks
# fail exactly like noclint's ratchet.
go run ./cmd/nocbench -check -quick -baseline bench.baseline.json

echo "==> nocbench seeded-regression smoke"
# Prove the perf gate bites: a seeded 3x slowdown on mesh_step (via the
# -slow-by self-test hook) must make -check exit non-zero.
if go run ./cmd/nocbench -check -quick -bench mesh_step -slow-by mesh_step=3 -baseline bench.baseline.json >/dev/null 2>&1; then
	echo "nocbench -check passed with a seeded 3x regression; the perf gate is dead" >&2
	exit 1
fi

echo "==> nocchar -all parallel determinism smoke (race)"
# The parallel runner must make pool size invisible: stdout of a full
# quick sweep is byte-compared between one worker and a wide pool, with
# the race detector watching the fan-out. Timings go to stderr. The
# same sweeps collect metrics and traces, so the observability layer's
# own determinism contract - files byte-identical across pool sizes,
# stdout untouched by collection - is checked in the same pass.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -race -o "$tmpdir/nocchar" ./cmd/nocchar
"$tmpdir/nocchar" -gpu v100 -all -quick -parallel 1 \
	-metrics "$tmpdir/seq.metrics.json" -trace "$tmpdir/seq.trace.json" \
	>"$tmpdir/seq.out" 2>/dev/null
"$tmpdir/nocchar" -gpu v100 -all -quick -parallel 8 \
	-metrics "$tmpdir/par.metrics.json" -trace "$tmpdir/par.trace.json" \
	>"$tmpdir/par.out" 2>/dev/null
if ! cmp -s "$tmpdir/seq.out" "$tmpdir/par.out"; then
	echo "nocchar -all output differs between -parallel 1 and -parallel 8" >&2
	diff "$tmpdir/seq.out" "$tmpdir/par.out" | head -20 >&2
	exit 1
fi
"$tmpdir/nocchar" -gpu v100 -all -quick -parallel 8 >"$tmpdir/plain.out" 2>/dev/null
if ! cmp -s "$tmpdir/seq.out" "$tmpdir/plain.out"; then
	echo "nocchar -all stdout changes when -metrics/-trace are enabled" >&2
	exit 1
fi
if ! cmp -s "$tmpdir/seq.metrics.json" "$tmpdir/par.metrics.json"; then
	echo "nocchar -metrics output differs between -parallel 1 and -parallel 8" >&2
	exit 1
fi
if ! cmp -s "$tmpdir/seq.trace.json" "$tmpdir/par.trace.json"; then
	echo "nocchar -trace output differs between -parallel 1 and -parallel 8" >&2
	exit 1
fi

echo "==> tracecheck (trace-event JSON validity)"
go run ./cmd/tracecheck "$tmpdir/seq.trace.json"

echo "==> nocserve cache smoke (race)"
# Start the server on an ephemeral port, fetch the same figure twice,
# and check three contracts: the two responses are byte-identical, the
# second was a cache hit (via /metricz), and the body matches what the
# CLI prints for the same tuple (`nocchar -json` stdout minus its
# three-line experiment header). Then SIGTERM must drain cleanly.
go build -race -o "$tmpdir/nocserve" ./cmd/nocserve
"$tmpdir/nocserve" -addr 127.0.0.1:0 2>"$tmpdir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 100); do
	grep -q "listening on" "$tmpdir/serve.log" && break
	sleep 0.1
done
port=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$tmpdir/serve.log")
if [ -z "$port" ]; then
	echo "nocserve did not report a listening address:" >&2
	cat "$tmpdir/serve.log" >&2
	exit 1
fi
base="http://127.0.0.1:$port"
curl -sf "$base/v1/v100/fig1?quick=1" >"$tmpdir/serve1.json"
curl -sf "$base/v1/v100/fig1?quick=1" >"$tmpdir/serve2.json"
if ! cmp -s "$tmpdir/serve1.json" "$tmpdir/serve2.json"; then
	echo "nocserve served different bytes for the same key" >&2
	exit 1
fi
if ! curl -sf "$base/metricz" | grep -q '"resultstore/hit": 1'; then
	echo "second nocserve fetch was not a cache hit" >&2
	curl -sf "$base/metricz" >&2 || true
	exit 1
fi
"$tmpdir/nocchar" -gpu v100 -exp fig1 -quick -json 2>/dev/null | tail -n +4 >"$tmpdir/cli.json"
if ! cmp -s "$tmpdir/serve1.json" "$tmpdir/cli.json"; then
	echo "nocserve response differs from nocchar -json output" >&2
	diff "$tmpdir/serve1.json" "$tmpdir/cli.json" | head -20 >&2
	exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || true
if ! grep -q "drained" "$tmpdir/serve.log"; then
	echo "nocserve did not drain on SIGTERM:" >&2
	cat "$tmpdir/serve.log" >&2
	exit 1
fi

echo "==> nocserve deadline smoke (504 without wedging, abandoned fill caches)"
# A cold full-fidelity request under a 1ms request budget must 504, tick
# the timeout counter, and leave the server responsive; the abandoned
# fill keeps computing in the background, so polling the same tuple
# eventually answers 200 from the cache — inside the same 1ms budget,
# because hits never wait.
"$tmpdir/nocserve" -addr 127.0.0.1:0 -request-timeout 1ms 2>"$tmpdir/deadline.log" &
deadline_pid=$!
trap 'kill "$serve_pid" "$deadline_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 100); do
	grep -q "listening on" "$tmpdir/deadline.log" && break
	sleep 0.1
done
dport=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$tmpdir/deadline.log")
if [ -z "$dport" ]; then
	echo "deadline nocserve did not report a listening address:" >&2
	cat "$tmpdir/deadline.log" >&2
	exit 1
fi
dbase="http://127.0.0.1:$dport"
code=$(curl -s -o /dev/null -w '%{http_code}' "$dbase/v1/v100/fig1")
if [ "$code" != "504" ]; then
	echo "cold full-fidelity request under -request-timeout 1ms returned $code, want 504" >&2
	exit 1
fi
if ! curl -sf "$dbase/metricz" | grep -q '"http/timed_out": 1'; then
	echo "the 504 did not tick http/timed_out on /metricz" >&2
	curl -sf "$dbase/metricz" >&2 || true
	exit 1
fi
if ! curl -sf "$dbase/healthz" >/dev/null; then
	echo "nocserve wedged after a timed-out request" >&2
	exit 1
fi
served=""
for _ in $(seq 1 240); do
	code=$(curl -s -o /dev/null -w '%{http_code}' "$dbase/v1/v100/fig1")
	if [ "$code" = "200" ]; then
		served=1
		break
	fi
	sleep 0.5
done
if [ -z "$served" ]; then
	echo "the abandoned fill never surfaced as a cache hit" >&2
	curl -sf "$dbase/metricz" >&2 || true
	exit 1
fi
kill -TERM "$deadline_pid"
wait "$deadline_pid" || true
if ! grep -q "drained" "$tmpdir/deadline.log"; then
	echo "deadline nocserve did not drain on SIGTERM:" >&2
	cat "$tmpdir/deadline.log" >&2
	exit 1
fi

echo "==> nocserve 3-node cluster smoke (single-hop forwarding, one simulation cluster-wide)"
# Three sharded nodes on adjacent ports; the same tuple fetched once
# through each node must return byte-identical bodies, simulate exactly
# once across the cluster (resultstore/miss sums to 1), and forward
# exactly twice (the two non-owner entries). Then SIGTERM all three and
# require a clean drain.
cport=$((20000 + $$ % 20000))
c1="http://127.0.0.1:$cport"
c2="http://127.0.0.1:$((cport + 1))"
c3="http://127.0.0.1:$((cport + 2))"
cpeers="$c1,$c2,$c3"
i=1
for u in "$c1" "$c2" "$c3"; do
	"$tmpdir/nocserve" -addr "${u#http://}" -peers "$cpeers" -self "$u" \
		2>"$tmpdir/cluster$i.log" &
	eval "cpid$i=\$!"
	i=$((i + 1))
done
trap 'kill "$serve_pid" "$deadline_pid" "$cpid1" "$cpid2" "$cpid3" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for i in 1 2 3; do
	for _ in $(seq 1 100); do
		grep -q "listening on" "$tmpdir/cluster$i.log" && break
		sleep 0.1
	done
	if ! grep -q "listening on" "$tmpdir/cluster$i.log"; then
		echo "cluster node $i did not start:" >&2
		cat "$tmpdir/cluster$i.log" >&2
		exit 1
	fi
done
i=1
for u in "$c1" "$c2" "$c3"; do
	if ! curl -sf -D "$tmpdir/cluster$i.hdr" "$u/v1/v100/fig1?quick=1" >"$tmpdir/cluster$i.json"; then
		echo "cluster fetch via node $i failed" >&2
		exit 1
	fi
	if ! grep -qi '^X-Cache: \(miss\|hit\|coalesced\|spill\)' "$tmpdir/cluster$i.hdr"; then
		echo "cluster response via node $i lacks an X-Cache outcome:" >&2
		cat "$tmpdir/cluster$i.hdr" >&2
		exit 1
	fi
	i=$((i + 1))
done
if ! cmp -s "$tmpdir/cluster1.json" "$tmpdir/cluster2.json" || ! cmp -s "$tmpdir/cluster1.json" "$tmpdir/cluster3.json"; then
	echo "cluster nodes served different bytes for one key" >&2
	exit 1
fi
miss_total=0
fwd_total=0
for u in "$c1" "$c2" "$c3"; do
	m=$(curl -sf "$u/metricz" | sed -n 's/.*"resultstore\/miss": \([0-9]*\).*/\1/p')
	f=$(curl -sf "$u/metricz" | sed -n 's/.*"cluster\/forwarded": \([0-9]*\).*/\1/p')
	miss_total=$((miss_total + ${m:-0}))
	fwd_total=$((fwd_total + ${f:-0}))
done
if [ "$miss_total" != "1" ]; then
	echo "cluster simulated the key $miss_total times, want exactly 1 cluster-wide" >&2
	exit 1
fi
if [ "$fwd_total" != "2" ]; then
	echo "cluster forwarded $fwd_total requests for 3 fetches of one key, want 2" >&2
	exit 1
fi
kill -TERM "$cpid1" "$cpid2" "$cpid3"
wait "$cpid1" "$cpid2" "$cpid3" || true
for i in 1 2 3; do
	if ! grep -q "drained" "$tmpdir/cluster$i.log"; then
		echo "cluster node $i did not drain on SIGTERM:" >&2
		cat "$tmpdir/cluster$i.log" >&2
		exit 1
	fi
done

echo "==> all checks passed"
