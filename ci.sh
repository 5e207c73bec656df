#!/bin/sh
# ci.sh — the full pre-merge check, also reachable as `make check`.
#
# Order matters: cheap static checks first (gofmt, vet, lbvet) so
# formatting, vet or invariant findings surface before the minutes-long
# test run. lbvet runs the project-specific analyzers — the syntactic
# ones (randcontract, nondeterminism, identcompare, layercheck) and the
# dataflow ones (detflow, lockguard, hotalloc, floatorder) — see
# DESIGN.md "Enforced invariants". The race pass covers the packages
# that exercise real concurrency (par's worker pools, sim's engine contract, ktree's and faults'
# goroutine-spawning tests, lbnode — whose machines are
# single-goroutine by construction but whose jittered-delivery
# equivalence test runs its cases as parallel subtests, each on its own
# engine — core, whose oracle round forks its sweeps per root child
# (a targeted leg below), protocol, whose rounds fork one goroutine per root-child
# subtree whenever the lookahead is safe, serve, whose interleaved rounds
# fork the same way beside the request traffic on a membership-frozen
# ring, wire's reader/retry goroutines, and cluster's in-process daemon
# tests; cluster's child-process e2e
# tests skip themselves under -race via a build tag, since the race
# runtime doesn't cross exec). The rest of the tree is
# single-goroutine by design.
#
# `./ci.sh race` runs the race pass alone (`make race`).
#
# Same-seed determinism of the fault, serve and scale sweeps is a test
# (internal/exp TestSweepsDeterministic), so `go test ./...` below gates
# it; nothing here launches an experiment binary.
set -eu
cd "$(dirname "$0")"

# race_legs is the race pass, shared with `make race` (`./ci.sh race`).
race_legs() {
	echo "== go test -race (concurrent packages)"
	go test -race ./internal/par/ ./internal/sim/ ./internal/ktree/ ./internal/faults/ ./internal/lbnode/ ./internal/protocol/ ./internal/serve/ ./internal/wire/ ./internal/cluster/
	# The forked subtree phases are the state several goroutines reach on
	# every default round; run their tests (and the crash and RunUntil
	# scenarios that must stay sequential) ten times over.
	go test -race -count=10 -run 'Parallel|Crash|RunUntil' ./internal/protocol/
	# core's oracle round forks its LBI and VSA sweeps and its
	# classification onto goroutines. The whole package takes about 14 s
	# under -race, so run the tests that drive the forked round: the sweep
	# reference, the placement under churn and the small RunRound cases.
	go test -race -run 'TestSweepsMatchReference|TestRunRound(Accounting|Deterministic|AfterUnrepairedJoins)$|TestPlacementAfterMembershipChange' ./internal/core/
}

if [ "${1:-}" = race ]; then
	race_legs
	exit 0
fi

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT INT TERM

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build (lbvet)"
go build -o "$bin/lbvet" ./cmd/lbvet

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

echo "== go test -bench (one iteration each)"
# Benchmarks are compiled and run by nothing above; one iteration each
# makes a benchmark that no longer builds or panics fail here.
go test -run '^$' -bench 'RoutedLookup|ExactSubset|Step|LosslessRound|RunRound' -benchtime=1x ./internal/chord ./internal/core ./internal/sim ./internal/protocol

race_legs

echo "== go test -fuzz (wire frame reader and handshake, 5 s each)"
# The two decoders that read bytes another process chose. `go test` above
# already replayed the committed seed corpus (internal/wire/testdata/fuzz);
# this leg mutates from it. -fuzz takes one target a run.
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime=5s ./internal/wire/
go test -run '^$' -fuzz '^FuzzHandshake$' -fuzztime=5s ./internal/wire/

echo "== go test -fuzz (event queue against a reference heap, 5 s)"
# Byte scripts of schedule/After/Cancel/Step/RunUntil, mutated from the
# seed corpus in internal/sim/testdata/fuzz: the timer wheel's chunked
# buckets must fire in the reference heap's (at, seq) order.
go test -run '^$' -fuzz '^FuzzQueueVsReference$' -fuzztime=5s ./internal/sim/

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
