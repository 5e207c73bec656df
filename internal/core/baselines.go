package core

import (
	"fmt"

	"p2plb/internal/chord"
	"p2plb/internal/stats"
)

// This file implements the comparison schemes discussed in the paper's
// related-work section (§1.1, §6):
//
//   - RunRandomMatching: virtual servers move from heavy to light nodes
//     with no regard for identifier-space or physical proximity — the
//     "blind transfer" behaviour the paper attributes to Rao et al.'s
//     directory-based schemes. It uses the same classification and shed
//     subsets as the tree-based scheme, so differences in transfer
//     distance isolate the effect of rendezvous strategy.
//
//   - RunCFSShedding: CFS's approach, where an overloaded node simply
//     deletes virtual servers and lets ring successors absorb their
//     regions. As [5] observes, this can make *other* nodes overloaded
//     in turn — load thrashing — which the outcome quantifies.

// RunRandomMatching performs one load-balancing round where each offered
// virtual server is assigned to a uniformly random light node able to
// accept it. The result's timing fields cover only LBI (there is no
// tree sweep; matching is assumed to happen at a central directory).
func (b *Balancer) RunRandomMatching() (*Result, error) {
	if b.ring.NumVServers() == 0 {
		return nil, fmt.Errorf("core: ring has no virtual servers")
	}
	eng := b.ring.Engine()
	res := &Result{
		Mode:        ProximityIgnorant,
		MovedByHops: &stats.WeightedHistogram{},
	}
	_, lbi, states, err := b.classifyPhase(res)
	if err != nil {
		return nil, err
	}

	// Gather offers and light candidates.
	var offers []offerEntry
	var lights []lightEntry
	for _, st := range states {
		switch st.Class {
		case Heavy:
			for _, vs := range st.Offers {
				offers = append(offers, offerEntry{load: vs.Load, vs: vs, node: st.Node})
			}
		case Light:
			lights = append(lights, lightEntry{deficit: st.Deficit, node: st.Node})
		}
	}
	// Shuffle offers, then give each a random fitting light node.
	eng.Rand().Shuffle(len(offers), func(i, j int) { offers[i], offers[j] = offers[j], offers[i] })
	for _, o := range offers {
		// Collect indices of lights that fit; pick one uniformly.
		var fits []int
		for i := range lights {
			if lights[i].deficit >= o.load {
				fits = append(fits, i)
			}
		}
		if len(fits) == 0 {
			res.UnassignedOffers++
			res.UnassignedLoad += o.load
			continue
		}
		pick := fits[eng.Rand().Intn(len(fits))]
		to := lights[pick].node
		lights[pick].deficit -= o.load
		if lights[pick].deficit < lbi.global.Lmin {
			lights[pick] = lights[len(lights)-1]
			lights = lights[:len(lights)-1]
		}
		res.Assignments = append(res.Assignments, Assignment{
			VS: o.vs, From: o.node, To: to, Load: o.load,
		})
	}
	for i := range res.Assignments {
		a := &res.Assignments[i]
		a.Hops = b.transferCost(a.From, a.To)
		eng.CountMessage(MsgVSTTransfer, b.ring.Latency(a.From, a.To)+1)
		b.ring.Transfer(a.VS, a.To)
		res.MovedLoad += a.Load
		res.MovedByHops.Add(a.Hops, a.Load)
	}
	res.HeavyAfter, res.LightAfter, res.NeutralAfter = Census(b.ring.Nodes(), lbi.global, b.cfg.Epsilon)
	if _, err := b.tree.Repair(); err != nil {
		return nil, err
	}
	return res, nil
}

// CFSOutcome reports a CFS-style shedding run.
type CFSOutcome struct {
	// Rounds is how many shedding sweeps ran before convergence or the
	// round cap.
	Rounds int
	// Shed counts deleted virtual servers.
	Shed int
	// ThrashEvents counts nodes that were not heavy at the start of a
	// sweep but became heavy because a shed region landed on them.
	ThrashEvents int
	// Converged is true when a sweep ended with no heavy nodes.
	Converged bool
	// HeavyAtEnd is the number of heavy nodes when the run stopped.
	HeavyAtEnd int
}

// RunCFSShedding applies CFS-style load shedding rounds until no node is
// heavy or maxRounds is reached: in each round every heavy node deletes
// its lightest virtual servers (their regions fall to ring successors)
// until it is at or below target. Returns the outcome, including how
// much thrashing the region hand-offs caused. Epsilon plays the same
// role as in Config. Nodes never delete their last virtual server (they
// must keep participating in the ring).
func RunCFSShedding(ring *chord.Ring, epsilon float64, maxRounds int) (CFSOutcome, error) {
	if ring.NumVServers() == 0 {
		return CFSOutcome{}, fmt.Errorf("core: ring has no virtual servers")
	}
	if epsilon < 0 {
		return CFSOutcome{}, fmt.Errorf("core: negative epsilon %v", epsilon)
	}
	var out CFSOutcome
	for out.Rounds = 0; out.Rounds < maxRounds; out.Rounds++ {
		global := centralLBI(ring)
		heavySet := make([]bool, len(ring.Nodes())) // by chord.Node.Index
		var heavies []*chord.Node
		for _, n := range ring.Nodes() {
			if !n.Alive || len(n.VServers()) == 0 {
				continue
			}
			if n.TotalLoad() > target(n, global, epsilon) {
				heavySet[n.Index] = true
				heavies = append(heavies, n)
			}
		}
		if len(heavies) == 0 {
			out.Converged = true
			return out, nil
		}
		for _, n := range heavies {
			for len(n.VServers()) > 1 && n.TotalLoad() > target(n, global, epsilon) {
				// Shed the lightest VS (smallest collateral move).
				var lightest *chord.VServer
				for _, vs := range n.VServers() {
					if lightest == nil || vs.Load < lightest.Load {
						lightest = vs
					}
				}
				receiverBefore := successorNodeAfterRemoval(ring, lightest)
				wasHeavy := receiverBefore != nil &&
					receiverBefore.TotalLoad() > target(receiverBefore, global, epsilon)
				ring.RemoveVServer(lightest)
				out.Shed++
				if receiverBefore != nil && !wasHeavy && !heavySet[receiverBefore.Index] &&
					receiverBefore.TotalLoad() > target(receiverBefore, global, epsilon) {
					out.ThrashEvents++
				}
			}
		}
	}
	global := centralLBI(ring)
	for _, n := range ring.Nodes() {
		if n.Alive && len(n.VServers()) > 0 && n.TotalLoad() > target(n, global, epsilon) {
			out.HeavyAtEnd++
		}
	}
	return out, nil
}

// successorNodeAfterRemoval returns the node that will absorb vs's
// region when vs leaves the ring (nil if vs is the last VS): the owner
// of the first virtual server clockwise after vs.
func successorNodeAfterRemoval(ring *chord.Ring, vs *chord.VServer) *chord.Node {
	if ring.NumVServers() < 2 {
		return nil
	}
	return ring.Successor(vs.ID.Add(1)).Owner
}

// centralLBI computes the global <L, C, Lmin> directly (omniscient
// observer), for baselines that do not run the tree protocol.
func centralLBI(ring *chord.Ring) LBI {
	var global LBI
	for _, n := range ring.Nodes() {
		if !n.Alive {
			continue
		}
		global = global.Merge(NodeLBI(n))
	}
	return global
}

// target is T_i for a node under a given global tuple and epsilon.
func target(n *chord.Node, global LBI, epsilon float64) float64 {
	if global.C <= 0 {
		return 0
	}
	return (1 + epsilon) * n.Capacity * (global.L / global.C)
}
