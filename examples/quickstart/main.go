// Quickstart: build a small heterogeneous Chord ring with virtual
// servers, run one proximity-ignorant load-balancing round, and print
// what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
	"p2plb/internal/stats"
	"p2plb/internal/workload"
)

func main() {
	// Everything runs on a deterministic discrete-event engine: same
	// seed, same run.
	eng := sim.NewEngine(42)

	// A ring of 64 physical nodes, each hosting 5 virtual servers with
	// random identifiers. Capacities follow the paper's Gnutella-like
	// profile: a few powerful nodes, many weak ones. Each virtual
	// server's load comes from the Gaussian model: mean proportional to
	// the identifier-space fraction it owns.
	mu := 64.0 * 100
	ring := workload.NewRing(eng, workload.RingSpec{Nodes: 64, VSPerNode: 5,
		Loads: workload.Gaussian{Mu: mu, Sigma: mu / 200}})

	// The distributed K-nary tree (K=2) is the aggregation and
	// rendezvous infrastructure for load balancing.
	tree, err := ktree.New(ring, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring: %d nodes, %d virtual servers; KT tree: %d nodes, height %d\n",
		len(ring.AliveNodes()), ring.NumVServers(), tree.NumNodes(), tree.Height())

	// Run one complete load-balancing round.
	balancer, err := core.NewBalancer(ring, tree, core.Config{Epsilon: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	before := balancer.UnitLoads()
	res, err := balancer.RunRound()
	if err != nil {
		log.Fatal(err)
	}
	after := balancer.UnitLoads()

	fmt.Printf("\nglobal LBI: total load %.0f, total capacity %.0f, min VS load %.2f\n",
		res.Global.L, res.Global.C, res.Global.Lmin)
	fmt.Printf("before: %d heavy / %d light / %d neutral\n",
		res.HeavyBefore, res.LightBefore, res.NeutralBefore)
	fmt.Printf("after:  %d heavy / %d light / %d neutral\n",
		res.HeavyAfter, res.LightAfter, res.NeutralAfter)
	fmt.Printf("moved %.0f load (%.1f%% of total) in %d virtual-server transfers\n",
		res.MovedLoad, 100*res.MovedLoad/res.Global.L, len(res.Assignments))

	sb, sa := stats.Summarize(before), stats.Summarize(after)
	fmt.Printf("\nunit load (load/capacity): mean %.2f -> %.2f, max %.2f -> %.2f, std %.2f -> %.2f\n",
		sb.Mean, sa.Mean, sb.Max, sa.Max, sb.Std, sa.Std)

	fmt.Printf("\nphase times (latency units): LBI up %d, down %d, VSA done %d, VST done %d\n",
		res.TimeLBIAggregate, res.TimeLBIDisseminate, res.TimeVSAComplete, res.TimeVSTComplete)
	fmt.Printf("protocol messages: %d total\n", eng.TotalMessages())
	for _, kind := range eng.MessageKinds() {
		fmt.Printf("  %-20s %6d msgs, total cost %d\n", kind, eng.MessageCount(kind), eng.MessageCost(kind))
	}
}
