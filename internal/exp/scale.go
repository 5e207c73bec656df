package exp

import (
	"fmt"
	"math"

	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/metrics"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// ScaleSizes are the node counts of the committed scaling table
// (EXPERIMENTS.md "Scaling"): 64k, 256k and 1M virtual servers at the
// paper's 5 per node.
var ScaleSizes = []int{12_800, 51_200, 200_000}

// ScaleRow is one system size of the scaling experiment: the shape of
// the tree and the outcome of one closed-form balancing round and one
// incremental repair after ~1% of the nodes churn, plus the wall time
// of each phase, the churn itself included. The *MS fields come from the caller's clock and are 0
// without one; everything else is a function of (seed, nodes).
type ScaleRow struct {
	VServers      int   `json:"vservers"`
	Nodes         int   `json:"nodes"`
	BuildMS       int64 `json:"ring_build_ms"`
	LoadMS        int64 `json:"load_assign_ms"`
	TreeMS        int64 `json:"tree_build_ms"`
	RoundMS       int64 `json:"round_ms"`
	HeavyBefore   int   `json:"heavy_before"`
	HeavyAfter    int   `json:"heavy_after"`
	TreeNodes     int   `json:"tree_nodes"`
	TreeHeight    int   `json:"tree_height"`
	ChurnMS       int64 `json:"churn_ms"`
	RepairMS      int64 `json:"repair_ms"`
	RepairChanges int   `json:"repair_changes"`
}

// checkTreeShape guards the compressed-tree regression: with chain
// collapse the KT tree must stay near log2(V) deep and near-linear in
// V, never the identifier-bits-deep, ~22-nodes-per-VS shape the naive
// dyadic recursion produced.
func checkTreeShape(tree *ktree.Tree, vss int) error {
	if lim := 2 * int(math.Ceil(math.Log2(float64(vss)))); tree.Height() > lim {
		return fmt.Errorf("scale %d VSs: tree height %d exceeds 2*log2(V) = %d — chain collapse regressed", vss, tree.Height(), lim)
	}
	if lim := 5 * vss; tree.NumNodes() > lim {
		return fmt.Errorf("scale %d VSs: %d KT nodes exceeds 5/VS — compression regressed", vss, tree.NumNodes())
	}
	return nil
}

// ScaleSweep runs the whole lifecycle at each node count — bulk ring
// population (the path Build uses), load assignment, K-nary tree
// construction, one full balancing round, ~1% node churn, an
// incremental Repair and CheckInvariants on the repaired tree — with 5
// virtual servers per node as everywhere in the paper, and fails if the
// tree's shape regresses. clock (nanoseconds; nil for none) times the
// phases: exp itself never reads a wall clock.
func ScaleSweep(seed int64, nodes []int, clock metrics.Clock) ([]ScaleRow, error) {
	const vsPerNode = 5
	now := func() int64 {
		if clock == nil {
			return 0
		}
		return clock()
	}
	msSince := func(start int64) int64 { return (now() - start) / 1e6 }
	var rows []ScaleRow
	for _, n := range nodes {
		if n < 1 {
			return nil, fmt.Errorf("exp: scale needs at least one node, got %d", n)
		}
		start := now()
		ring := workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: n, VSPerNode: vsPerNode})
		row := ScaleRow{VServers: ring.NumVServers(), Nodes: n, BuildMS: msSince(start)}

		mu := float64(n) * 100
		start = now()
		workload.AssignLoads(ring, workload.Gaussian{Mu: mu, Sigma: mu / 200})
		row.LoadMS = msSince(start)

		start = now()
		tree, err := ktree.New(ring, 2)
		if err != nil {
			return nil, err
		}
		if err := tree.Build(); err != nil {
			return nil, err
		}
		row.TreeMS = msSince(start)
		row.TreeNodes = tree.NumNodes()
		row.TreeHeight = tree.Height()
		if err := checkTreeShape(tree, ring.NumVServers()); err != nil {
			return nil, err
		}

		bal, err := core.NewBalancer(ring, tree, core.Config{Epsilon: 0.05})
		if err != nil {
			return nil, err
		}
		start = now()
		res, err := bal.RunRound()
		if err != nil {
			return nil, err
		}
		row.RoundMS = msSince(start)
		row.HeavyBefore = res.HeavyBefore
		row.HeavyAfter = res.HeavyAfter

		// Incremental-repair probe: churn ~1% of the nodes, repair, and
		// verify the repaired tree is structurally sound.
		churn := max(n/100, 1)
		start = now()
		alive := ring.AliveNodes()
		for i := 0; i < churn && i < len(alive); i++ {
			ring.RemoveNode(alive[i])
		}
		for i := 0; i < churn; i++ {
			workload.Join(ring, -1, vsPerNode, nil)
		}
		row.ChurnMS = msSince(start)
		start = now()
		row.RepairChanges, err = tree.Repair()
		if err != nil {
			return nil, err
		}
		row.RepairMS = msSince(start)
		tree.CheckInvariants()

		rows = append(rows, row)
	}
	return rows, nil
}
