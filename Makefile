# Convenience targets; `make check` is the tier-1 gate (see ROADMAP.md).
# `make lint` runs the project static-analysis suite alone for fast
# iteration on lbvet findings. `make bench` runs the scaling benchmark
# (64k/256k/1M virtual servers), the fault-tolerance sweep (256k VSs),
# the multi-process cluster chaos run (8 lbd daemons, 3 SIGKILLs) and
# the tail-latency serving sweep (4096 nodes, 1M Zipf requests, balancer
# on/off/nocache), refreshing BENCH_scale.json, BENCH_faults.json,
# BENCH_cluster.json and BENCH_serve.json in the repo root; see
# EXPERIMENTS.md "Scaling", "Fault tolerance", "Crash tolerance" and
# "Tail latency".

.PHONY: check build test race fmt lint bench

check:
	./ci.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/par/ ./internal/sim/ ./internal/ktree/ ./internal/daemon/ ./internal/faults/ ./internal/lbnode/ ./internal/protocol/ ./internal/wire/ ./internal/cluster/

fmt:
	gofmt -s -w .

lint:
	go run ./cmd/lbvet

bench:
	go run ./cmd/lbbench -bench scale,faults,cluster,serve -out .
