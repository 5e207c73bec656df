# Convenience targets; `make check` is the tier-1 gate (see ROADMAP.md).
# `make lint` runs the project static-analysis suite alone for fast
# iteration on lbvet findings. `make bench` runs the layered benchmark
# BENCHMARK.json declares (bench/README.md). The experiment tables in
# EXPERIMENTS.md are regenerated by lbsim, one figure each:
#   "Figure 4" (4096 nodes, Gaussian)         go run ./cmd/lbsim -fig 4
#   "Figures 5 & 6" (capacity classes)        go run ./cmd/lbsim -fig 5; go run ./cmd/lbsim -fig 6
#   "Figure 7" (ts5k-large, 10 graphs)        go run ./cmd/lbsim -fig 7 -graphs 10
#   "Figure 8" (ts5k-small, 10 graphs)        go run ./cmd/lbsim -fig 8 -graphs 10
#   "§5.2 claim" (VSA time, K = 2 and 8)      go run ./cmd/lbsim -fig vsatime
#   "Baselines" (CFS-style shedding)          go run ./cmd/lbsim -fig cfs
#   "Rao et al. comparison"                   go run ./cmd/lbsim -fig rao -nodes 2048
#   "Robustness vs churn"                     go run ./cmd/lbsim -fig churn -nodes 512
#   "Fault tolerance" (512 nodes)             go run ./cmd/lbsim -fig faults
#   "Fault tolerance" (256k VSs)              go run ./cmd/lbsim -fig faults -nodes 51200
#   "Scaling" (64k/256k/1M virtual servers)   go run ./cmd/lbsim -fig scale
#   "Crash tolerance" (8 lbd, 3 SIGKILLs)     go run ./cmd/lbsim -fig chaos
#   "Tail latency" (4096 nodes, 1M requests)  go run ./cmd/lbsim -fig serve
# and the "Ablations" list by go test -run '^$' -bench 'Ablation|RandomMatching' -benchtime 3x .

.PHONY: check build test race fmt lint bench

check:
	./ci.sh

build:
	go build ./...

test:
	go test ./...

race:
	./ci.sh race

fmt:
	gofmt -s -w .

lint:
	go run ./cmd/lbvet

bench:
	bash bench/run.sh
