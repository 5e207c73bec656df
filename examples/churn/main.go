// Churn: the K-nary tree is soft state over a DHT whose membership
// changes. This example runs a long simulation in which nodes join and
// crash continuously, the tree repairs itself on a maintenance timer
// (the paper's periodic region checks and heartbeats), and a
// load-balancing round runs periodically — demonstrating that the
// structure the balancer depends on survives churn.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

func main() {
	eng := sim.NewEngine(99)
	ring := chord.NewRing(eng, chord.Config{})
	mu := 256.0 * 100
	model := workload.Gaussian{Mu: mu, Sigma: mu / 200}
	// Every node, initial or joining later, arrives with its virtual
	// servers' loads drawn on arrival.
	for i := 0; i < 256; i++ {
		workload.Join(ring, -1, 5, model)
	}

	tree, err := ktree.New(ring, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		log.Fatal(err)
	}
	balancer, err := core.NewBalancer(ring, tree, core.Config{Epsilon: 0.05})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("start: %d nodes, %d VSs, tree %d nodes / height %d\n",
		len(ring.AliveNodes()), ring.NumVServers(), tree.NumNodes(), tree.Height())

	// Churn: every 50 time units a random node crashes and a fresh one
	// joins (its virtual servers' regions are re-drawn by the ring).
	churnEvents := 0
	cancelChurn := eng.Every(50, func() {
		alive := ring.AliveNodes()
		if len(alive) > 32 {
			victim := alive[eng.Rand().Intn(len(alive))]
			ring.RemoveNode(victim)
			churnEvents++
		}
		workload.Join(ring, -1, 5, model)
		churnEvents++
	})

	// Tree maintenance: periodic repair sweep, exactly the paper's
	// "periodically check each child's region / heartbeat" behaviour.
	repairs, repaired := 0, 0
	cancelRepair := eng.Every(200, func() {
		changes, err := tree.Repair()
		if err != nil {
			log.Fatal(err)
		}
		repairs++
		repaired += changes
	})

	// Load balancing: one full round every 2000 units. A round repairs
	// the tree as its first step, so it sees a consistent tree.
	rounds := 0
	cancelLB := eng.Every(2000, func() {
		res, err := balancer.RunRound()
		if err != nil {
			log.Fatal(err)
		}
		rounds++
		fmt.Printf("t=%6d  round %d: heavy %4d -> %d, moved %7.0f load in %4d transfers (tree height %d)\n",
			eng.Now(), rounds, res.HeavyBefore, res.HeavyAfter, res.MovedLoad,
			len(res.Assignments), res.TreeHeight)
	})

	eng.RunUntil(10_000)
	cancelChurn()
	cancelRepair()
	cancelLB()

	// Final verification: after all that churn the structures are still
	// internally consistent.
	if _, err := tree.Repair(); err != nil {
		log.Fatal(err)
	}
	ring.CheckInvariants()
	tree.CheckInvariants()
	fmt.Printf("\nend: %d nodes, %d VSs after %d churn events\n",
		len(ring.AliveNodes()), ring.NumVServers(), churnEvents)
	fmt.Printf("maintenance: %d repair sweeps fixed %d KT nodes; %d heartbeats, %d plants\n",
		repairs, repaired,
		eng.MessageCount(ktree.MsgHeartbeat), eng.MessageCount(ktree.MsgPlant))
	fmt.Println("ring and tree invariants hold — the soft-state tree survived the churn")
}
