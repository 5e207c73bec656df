#!/bin/sh
# ci.sh — the full pre-merge check, also reachable as `make check`.
#
# Order matters: cheap static checks first (gofmt, vet, lbvet) so
# formatting, vet or invariant findings surface before the minutes-long
# test run. lbvet runs the project-specific analyzers — the syntactic
# ones (randcontract, nondeterminism, identcompare, metricsguard,
# layercheck) and the dataflow ones (detflow, lockguard, hotalloc,
# floatorder) — see DESIGN.md "Enforced invariants". The race pass
# covers the packages that exercise real concurrency (par's worker
# pools, sim's engine contract, ktree's, daemon's and faults'
# goroutine-spawning tests, lbnode — whose machines are
# single-goroutine by construction but whose jittered-delivery
# equivalence test runs its cases as parallel subtests, each on its own
# engine — protocol, whose opt-in parallel subtree stepper runs one
# goroutine per root-child subtree, wire's reader/retry goroutines,
# and cluster's in-process daemon tests; cluster's child-process e2e
# tests skip themselves under -race via a build tag, since the race
# runtime doesn't cross exec). The rest of the tree is
# single-goroutine by design.
#
# The project binaries (lbvet, lbbench) are built exactly once into a
# temp dir and reused by every later step — `go run` would rebuild
# them on each invocation, and the smoke steps below invoke lbbench
# six times.
set -eu
cd "$(dirname "$0")"

bin=$(mktemp -d)
tmp1=
tmp2=
cleanup() { rm -rf "$bin" ${tmp1:+"$tmp1"} ${tmp2:+"$tmp2"}; }
trap cleanup EXIT INT TERM

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build (tools)"
go build -o "$bin/lbvet" ./cmd/lbvet
go build -o "$bin/lbbench" ./cmd/lbbench

echo "== lbvet"
# The JSON gate: machine-readable findings on stdout, nonzero exit on
# any finding. The array lands in the log so a CI failure shows the
# structured findings without a rerun.
"$bin/lbvet" -json

echo "== go build"
go build ./...

echo "== no orphan packages"
# Every internal package must be reachable from something that ships: a
# command, the benchmark or an example. A package that only tests import
# is dead weight the suite keeps alive.
reachable=$(go list -deps ./cmd/... ./bench ./examples/...)
orphans=$(go list ./internal/... | grep -vxF "$reachable" || true)
if [ -n "$orphans" ]; then
	echo "imported by no command, benchmark or example:" >&2
	echo "$orphans" >&2
	exit 1
fi

echo "== go test"
go test ./...

echo "== go test -race (concurrent packages)"
go test -race ./internal/par/ ./internal/sim/ ./internal/ktree/ ./internal/daemon/ ./internal/faults/ ./internal/lbnode/ ./internal/protocol/ ./internal/wire/ ./internal/cluster/

echo "== go test -fuzz (wire frame reader and handshake, 5 s each)"
# The two decoders that read bytes another process chose. `go test` above
# already replayed the committed seed corpus (internal/wire/testdata/fuzz);
# this leg mutates from it. -fuzz takes one target a run.
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime=5s ./internal/wire/
go test -run '^$' -fuzz '^FuzzHandshake$' -fuzztime=5s ./internal/wire/

echo "== lbbench scale smoke (time-boxed, determinism-diffed)"
# A small scale run keeps the O(log n) maintenance path honest without
# the full 1M-VS sweep. Each size runs the whole lifecycle — ring
# build, tree build, a full balancing round, ~1% node churn, an
# incremental Repair, and CheckInvariants on the repaired tree — and
# fails hard if the compressed tree regresses in shape (height >
# 2·log2(V) or more than 5 KT nodes per VS). The timeout catches
# accidental re-quadratization (the 20k run takes well under a second —
# 120 s means something is badly wrong). Run twice at the same seed:
# the reports must match byte-for-byte once the wall-clock fields
# (unix_time and the *_ms phase timings) are stripped, gating the
# whole lifecycle's seed-determinism.
tmp1=$(mktemp -d)
tmp2=$(mktemp -d)
timeout 120 "$bin/lbbench" -bench scale -scalesizes 20000 -out "$tmp1"
timeout 120 "$bin/lbbench" -bench scale -scalesizes 20000 -out "$tmp2"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp1/BENCH_scale.json" > "$tmp1/stripped"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp2/BENCH_scale.json" > "$tmp2/stripped"
if ! diff "$tmp1/stripped" "$tmp2/stripped"; then
	echo "scale lifecycle is nondeterministic across identical runs" >&2
	exit 1
fi
rm -rf "$tmp1" "$tmp2"
tmp1=
tmp2=

echo "== lbbench fault smoke (time-boxed, determinism-diffed)"
# A small drop-rate sweep plus partition recovery, run twice at the same
# seed: the reports must match byte-for-byte once the two wall-clock
# fields are stripped. This gates the fault path's (seed, plan)
# determinism, not just its correctness.
tmp1=$(mktemp -d)
tmp2=$(mktemp -d)
timeout 120 "$bin/lbbench" -bench faults -faultnodes 128 -out "$tmp1"
timeout 120 "$bin/lbbench" -bench faults -faultnodes 128 -out "$tmp2"
grep -v '"unix_time"\|"wall_ms"' "$tmp1/BENCH_faults.json" > "$tmp1/stripped"
grep -v '"unix_time"\|"wall_ms"' "$tmp2/BENCH_faults.json" > "$tmp2/stripped"
if ! diff "$tmp1/stripped" "$tmp2/stripped"; then
	echo "fault sweep is nondeterministic across identical runs" >&2
	exit 1
fi
rm -rf "$tmp1" "$tmp2"
tmp1=
tmp2=

echo "== lbbench serve smoke (time-boxed, determinism-diffed)"
# A small serving run — 3 variants (balancer on/off/nocache) over the
# same Zipf request plan — run twice at the same seed: the reports must
# match byte-for-byte once the wall-clock fields are stripped. The
# per-request latency checksums inside the report make this diff pin
# the raw latency streams, not just the summaries. The tail-contrast
# acceptance gate inside lbbench only arms at >= 100k requests, so this
# smoke gates determinism; BENCH_serve.json (committed, 1M requests)
# gates the tail claim. serve needs no -race leg: it is single-goroutine
# on the sim engine (the three variants parallelize via internal/par,
# which has its own race pass).
tmp1=$(mktemp -d)
tmp2=$(mktemp -d)
timeout 120 "$bin/lbbench" -bench serve -servesizes 128 -serverequests 20000 -out "$tmp1"
timeout 120 "$bin/lbbench" -bench serve -servesizes 128 -serverequests 20000 -out "$tmp2"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp1/BENCH_serve.json" > "$tmp1/stripped"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp2/BENCH_serve.json" > "$tmp2/stripped"
if ! diff "$tmp1/stripped" "$tmp2/stripped"; then
	echo "serving layer is nondeterministic across identical runs" >&2
	exit 1
fi
rm -rf "$tmp1" "$tmp2"
tmp1=
tmp2=

echo "== cluster chaos smoke (4 processes, time-boxed)"
# A real multi-process run: four lbd daemons over TCP, one SIGKILL
# mid-round, supervisor restart, conservation + settle gates inside the
# test. -short keeps the bigger 8-process e2e out of this step (it
# already ran under `go test ./...` above); the hard timeout catches a
# hung settle — the smoke itself finishes in well under a minute, and
# each round has its own 30 s in-test settle bound, so 300 s means the
# supervisor or the harness is wedged, not slow.
timeout 300 go test -short -count=1 -run TestClusterChaosSmoke ./internal/cluster/

echo "ci: all checks passed"
