// Storage: run the balancer as a long-lived service over an
// object-backed workload. Objects are hashed into the identifier space
// (a virtual server's load is the sum of its objects' loads — the
// paper's own justification for the Gaussian model), 10% of the object
// population churns between rounds, and protocol.Every periodically
// runs full message-level balancing rounds, each of which starts on a
// repaired K-nary tree.
//
//	go run ./examples/storage
package main

import (
	"fmt"
	"log"
	"math/rand"

	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/objects"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

func main() {
	eng := sim.NewEngine(2024)
	ring := workload.NewRing(eng, workload.RingSpec{Nodes: 256, VSPerNode: 5})

	// 100k objects with Zipf popularity: a few hot items, a long tail.
	store := objects.NewStore(ring)
	rng := rand.New(rand.NewSource(7))
	loadFn := objects.ZipfLoads(rng, 1.3, 1, 1<<16, 0.25)
	if err := store.Populate(rng, 100_000, loadFn); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nodes, %d virtual servers, %d objects (total load %.0f)\n",
		len(ring.AliveNodes()), ring.NumVServers(), store.Len(), store.TotalLoad())

	tree, err := ktree.New(ring, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		log.Fatal(err)
	}

	runner, err := protocol.NewRunner(ring, tree, protocol.Config{Core: core.Config{Epsilon: 0.05}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n round  t(start)  Gini before  Gini after  moved load  transfers")
	var started sim.Time
	var giniBefore, sumPre, sumPost, moved float64
	rounds, failed := 0, 0
	drift := func() bool {
		// Workload drift between rounds: 10% of objects churn.
		if err := store.Drift(rng, 10_000, loadFn); err != nil {
			log.Fatal(err)
		}
		started, giniBefore = eng.Now(), core.UnitLoadGini(ring)
		return true
	}
	report := func(res *protocol.Result, err error) {
		rounds++
		if err != nil {
			failed++
			fmt.Printf("%6d  %8d  round failed: %v\n", rounds, started, err)
			return
		}
		giniAfter := core.UnitLoadGini(ring)
		sumPre, sumPost, moved = sumPre+giniBefore, sumPost+giniAfter, moved+res.MovedLoad
		fmt.Printf("%6d  %8d  %11.3f  %10.3f  %10.0f  %9d\n",
			rounds, started, giniBefore, giniAfter, res.MovedLoad, len(res.Assignments))
	}
	stop := protocol.Every(eng, 5_000, runner.StartRound, drift, report)
	eng.RunUntil(60_000)
	stop()
	eng.Run()

	ok := float64(rounds - failed)
	fmt.Printf("\n%d rounds (%d failed), %.0f load moved in total; mean Gini %.3f -> %.3f\n",
		rounds, failed, moved, sumPre/ok, sumPost/ok)
	if err := store.CheckLoads(1e-6); err != nil {
		log.Fatal(err)
	}
	fmt.Println("object accounting consistent after the whole run")
	fmt.Println("\nnote: the residual Gini (~0.3) is the capacity-granularity floor —")
	fmt.Println("capacity-1 nodes cannot hold a proportional share of any virtual server.")
}
