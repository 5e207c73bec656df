package core

import (
	"fmt"
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/ktree"
	"p2plb/internal/proximity"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

// This file keeps the LBI aggregation and the VSA sweep as they were
// before the sweeps forked at the root: per-leaf map inboxes and one
// goroutine walking the whole tree. refAggregateLBI, refRunVSA,
// refBuildVSAInboxes and refDepositReports are those functions
// verbatim, renamed, except that the ignorant-mode advertisement leaf
// is read from Placement.VSALeaf by node index instead of by node
// pointer, and that KT nodes are ktree.Handles read through the tree.
// TestSweepsMatchReference holds the forked, sorted-inbox
// sweeps to them output for output.

// sweepRun is what one placement's two sweeps produce, and what they
// counted on the engine.
type sweepRun struct {
	lbi  lbiOutcome
	vsa  vsaOutcome
	msgs map[string][2]int64 // kind → count, cost
}

// runSweeps draws a placement on b's ring, runs both sweeps — the
// reference ones when ref is set — with a sequential classification
// between them, and returns their outcomes.
func runSweeps(b *Balancer, ref bool) sweepRun {
	eng := b.ring.Engine()
	eng.ResetMessageStats()
	place := PlaceRound(b.ring, b.tree, eng.Rand(), nil)
	var out sweepRun
	if ref {
		inbox := make(map[ktree.Handle][]LBI)
		refDepositReports(place, inbox)
		out.lbi = b.refAggregateLBI(inbox)
	} else {
		out.lbi = b.aggregateLBI(place)
	}
	states := make([]*NodeState, len(place.Nodes))
	for i, n := range place.Nodes {
		states[i] = ClassifyNode(n, out.lbi.global, b.cfg.Epsilon, b.cfg.Subset)
	}
	if ref {
		out.vsa = b.refRunVSA(place, states, out.lbi.global, out.lbi.disperseTime)
	} else {
		out.vsa = b.runVSA(place, states, out.lbi.global, out.lbi.disperseTime)
	}
	out.msgs = make(map[string][2]int64)
	for _, k := range eng.MessageKinds() {
		out.msgs[k] = [2]int64{eng.MessageCount(k), eng.MessageCost(k)}
	}
	return out
}

// diffSweeps returns the first difference between two sweep runs, or
// "" when they agree on every output: the global tuple (==), the LBI,
// publish and VSA times, every assignment in order, the unassigned
// offers and their load, and the per-kind message counts and costs.
func diffSweeps(got, want sweepRun) string {
	if got.lbi != want.lbi {
		return fmt.Sprintf("LBI outcome %+v, want %+v", got.lbi, want.lbi)
	}
	g, w := got.vsa, want.vsa
	if g.publishTime != w.publishTime || g.completeTime != w.completeTime {
		return fmt.Sprintf("VSA publish/complete %d/%d, want %d/%d", g.publishTime, g.completeTime, w.publishTime, w.completeTime)
	}
	if len(g.assignments) != len(w.assignments) {
		return fmt.Sprintf("%d assignments, want %d", len(g.assignments), len(w.assignments))
	}
	for i := range g.assignments {
		if ga, wa := assignmentKey(g.assignments[i]), assignmentKey(w.assignments[i]); ga != wa {
			return fmt.Sprintf("assignment %d is %s, want %s", i, ga, wa)
		}
	}
	if g.left.Offers() != w.left.Offers() || g.left.OfferLoad() != w.left.OfferLoad() || g.left.Lights() != w.left.Lights() {
		return fmt.Sprintf("unassigned %d offers (load %v), %d lights; want %d (%v), %d",
			g.left.Offers(), g.left.OfferLoad(), g.left.Lights(), w.left.Offers(), w.left.OfferLoad(), w.left.Lights())
	}
	if len(got.msgs) != len(want.msgs) {
		return fmt.Sprintf("message kinds %v, want %v", got.msgs, want.msgs)
	}
	for k, c := range want.msgs {
		if got.msgs[k] != c {
			return fmt.Sprintf("%s count/cost %v, want %v", k, got.msgs[k], c)
		}
	}
	return ""
}

// assignmentKey names an assignment by what two identical rings share:
// identifiers and node indices rather than pointers.
func assignmentKey(a Assignment) string {
	return fmt.Sprintf("vs %s node %d→%d load %v at %d depth %d", a.VS.ID, a.From.Index, a.To.Index, a.Load, a.AssignedAt, a.Depth)
}

// sweepWorld is one seed's underlay, shared by the two identical rings
// a case builds: the aware mode's latencies and publication keys come
// from it.
type sweepWorld struct {
	g      *topology.Graph
	dist   *topology.Distances
	mapper *proximity.Mapper
}

func newSweepWorld(t *testing.T, seed int64) sweepWorld {
	t.Helper()
	g, err := topology.Generate(topology.Params{
		TransitDomains:        2,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   3,
		StubDomainSizeMean:    12,
		TransitEdgeProb:       0.6,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.42,
		Seed:                  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := topology.NewDistances(g)
	lm, err := proximity.ChooseSpread(g, dist, rand.New(rand.NewSource(seed)), proximity.DefaultLandmarkCount)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := proximity.NewMapper(lm, proximity.DefaultBitsPerDimension)
	if err != nil {
		t.Fatal(err)
	}
	return sweepWorld{g: g, dist: dist, mapper: mapper}
}

// sweepBalancer builds one case's ring, K-ary tree and balancer over w:
// nodes hosting vsPer[i % len(vsPer)] virtual servers each, Gaussian
// loads, and cfg with the aware mode's mapper filled in. Equal
// arguments build identical balancers.
func sweepBalancer(t *testing.T, w sweepWorld, seed int64, k, nodes int, vsPer []int, cfg Config) *Balancer {
	t.Helper()
	eng := sim.NewEngine(seed)
	ring := chord.NewRing(eng, chord.Config{Latency: chord.TopologyLatency(w.dist)})
	under := w.g.SampleStubNodes(eng.Rand(), nodes)
	for i := 0; i < nodes; i++ {
		workload.Join(ring, under[i], vsPer[i%len(vsPer)], nil)
	}
	mu := float64(nodes) * 100
	workload.AssignLoads(ring, workload.Gaussian{Mu: mu, Sigma: mu / 400})
	tree, err := ktree.New(ring, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	if cfg.Mode == ProximityAware {
		cfg.Mapper = w.mapper
	}
	b, err := NewBalancer(ring, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepsMatchReference holds the forked sweeps over sorted inboxes
// to the map-inbox, single-goroutine reference on seeds 1–16, K ∈ {2,
// 3, 8}, both modes and three rendezvous thresholds (the default, 2,
// and root-only), plus two shapes the fork treats specially: a
// one-VS ring, whose root is a leaf and has no children to fork, and a
// two-node ring under K = 8, where most root children receive no
// deposit at all.
func TestSweepsMatchReference(t *testing.T) {
	type shape struct {
		name  string
		nodes int
		vsPer []int
		eps   float64
	}
	shapes := []shape{{"ring", 24, []int{4}, 0.05}}
	modes := []Mode{ProximityIgnorant, ProximityAware}
	thresholds := []int{0, 2, -1}
	for seed := int64(1); seed <= 16; seed++ {
		w := newSweepWorld(t, seed)
		cases := shapes
		if seed <= 4 {
			// Three nodes on one virtual server: two host nothing, so
			// the heavy one sheds to them at the root leaf.
			cases = append(cases, shape{"one-vs", 3, []int{1, 0, 0}, 0.2}, shape{"two-node", 2, []int{2}, 0.05})
		}
		for _, sh := range cases {
			for _, k := range []int{2, 3, 8} {
				for _, mode := range modes {
					for _, th := range thresholds {
						cfg := Config{Mode: mode, Epsilon: sh.eps, RendezvousThreshold: th}
						name := fmt.Sprintf("seed%d/%s/K%d/%s/th%d", seed, sh.name, k, mode, th)
						nb := sweepBalancer(t, w, seed, k, sh.nodes, sh.vsPer, cfg)
						// Two nodes deposit at most two reports and two
						// advertisements, so a root with more children
						// leaves some with none.
						root := nb.tree.Root()
						if sh.name == "one-vs" && !nb.tree.IsLeaf(root) || sh.name == "two-node" && k == 8 && nb.tree.NumChildren(root) <= sh.nodes {
							t.Fatalf("%s: the ring does not have the shape the case names", name)
						}
						got := runSweeps(nb, false)
						want := runSweeps(sweepBalancer(t, w, seed, k, sh.nodes, sh.vsPer, cfg), true)
						if d := diffSweeps(got, want); d != "" {
							t.Errorf("%s: %s", name, d)
						}
					}
				}
			}
		}
	}
}

// refAggregateLBI is the reference aggregateLBI.
func (b *Balancer) refAggregateLBI(inbox map[ktree.Handle][]LBI) lbiOutcome {
	var edges int64
	var edgeCost sim.Time
	tree := b.tree
	var up func(n ktree.Handle) (agg LBI, ready, deepest sim.Time)
	up = func(n ktree.Handle) (agg LBI, ready, deepest sim.Time) {
		if tree.IsLeaf(n) { // placement deposits only at leaves
			for _, r := range inbox[n] {
				agg = agg.Merge(r)
			}
		}
		for c := tree.FirstChild(n); !c.IsNil(); c = tree.NextSibling(c) {
			childAgg, childReady, childDeepest := up(c)
			edge := b.tree.EdgeLatency(c)
			edges++
			edgeCost += edge
			agg = agg.Merge(childAgg)
			if t := childReady + edge; t > ready {
				ready = t
			}
			if d := childDeepest + edge; d > deepest {
				deepest = d
			}
		}
		return agg, ready, deepest
	}
	global, aggTime, deepest := up(b.tree.Root())
	eng := b.ring.Engine()
	eng.CountMessageN(MsgLBIReport, edges, edgeCost)
	eng.CountMessageN(MsgLBIDisperse, edges, edgeCost)
	return lbiOutcome{global: global, aggregateTime: aggTime, disperseTime: aggTime + deepest}
}

// refRunVSA is the reference runVSA.
func (b *Balancer) refRunVSA(place *Placement, states []*NodeState, global LBI, start sim.Time) vsaOutcome {
	inbox, publishEnd := b.refBuildVSAInboxes(place, states, start)

	var out vsaOutcome
	out.publishTime = publishEnd

	var reports, assigns int64
	var reportCost, assignCost sim.Time
	tree := b.tree
	var up func(n ktree.Handle) (PairList, sim.Time)
	up = func(n ktree.Handle) (PairList, sim.Time) {
		var lists PairList
		ready := publishEnd
		if tree.IsLeaf(n) { // placement deposits only at leaves
			if in := inbox[n]; in != nil {
				lists = *in
			}
		}
		for c := tree.FirstChild(n); !c.IsNil(); c = tree.NextSibling(c) {
			childLists, childReady := up(c)
			// Every child sends one (possibly empty) epoch report; empty
			// reports still synchronize the converge-cast.
			edge := b.tree.EdgeLatency(c)
			reports++
			reportCost += edge
			if t := childReady + edge; t > ready {
				ready = t
			}
			if lists.Size() == 0 {
				lists = childLists // nothing to copy into: take the child's list over
			} else {
				lists.Merge(&childLists)
			}
		}
		for _, p := range lists.Rendezvous(tree.Parent(n).IsNil(), b.cfg.RendezvousThreshold, global.Lmin) {
			// Rendezvous notifies both endpoints directly.
			assigns += 2
			assignCost += b.ring.Latency(tree.Host(n).Owner, p.From) + 1 + b.ring.Latency(tree.Host(n).Owner, p.To) + 1
			out.assignments = append(out.assignments, Assignment{
				VS:         p.VS,
				From:       p.From,
				To:         p.To,
				Load:       p.Load,
				AssignedAt: ready,
				Depth:      tree.Depth(n),
			})
		}
		return lists, ready
	}
	out.left, out.completeTime = up(b.tree.Root())
	eng := b.ring.Engine()
	eng.CountMessageN(MsgVSAReport, reports, reportCost)
	eng.CountMessageN(MsgVSAAssign, assigns, assignCost)
	return out
}

// refBuildVSAInboxes is the reference buildVSAInboxes.
func (b *Balancer) refBuildVSAInboxes(place *Placement, states []*NodeState, start sim.Time) (map[ktree.Handle]*PairList, sim.Time) {
	eng := b.ring.Engine()
	inbox := make(map[ktree.Handle]*PairList)
	publishEnd := start
	var publishes int64
	var publishCost sim.Time
	for _, st := range states {
		if st.Class == Neutral {
			continue
		}
		var leaf ktree.Handle
		var group uint64
		switch b.cfg.Mode {
		case ProximityIgnorant:
			// The node reports through one of its own (randomly chosen)
			// virtual servers, drawn by the placement: its position in
			// the sweep is its random location in the identifier space
			// (§3.4 footnote).
			leaf = place.VSALeaf[st.Node.Index]
		case ProximityAware:
			// The node publishes its VSA information into the DHT under
			// its Hilbert-number key (§4.3): one put message routed in
			// O(log V) hops; the owning virtual server reports the
			// entries to its one leaf for the round.
			key := b.cfg.Mapper.Key(st.Node.Underlay)
			if cm, ok := b.cfg.Mapper.(CellMapper); ok {
				group = cm.Cell(st.Node.Underlay)
			} else {
				group = uint64(key)
			}
			owner := b.ring.Successor(key)
			cost := lg2(b.ring.NumVServers()) + b.ring.Latency(st.Node, owner.Owner)
			publishes++
			publishCost += cost
			if t := start + cost; t > publishEnd {
				publishEnd = t
			}
			leaf = place.LeafOf(owner, eng.Rand())
		}
		if leaf.IsNil() {
			continue // fresh joiner: no leaf until the next repair
		}
		pl := inbox[leaf]
		if pl == nil {
			pl = &PairList{}
			inbox[leaf] = pl
		}
		pl.Deposit(st, group)
	}
	eng.CountMessageN(MsgVSAPublish, publishes, publishCost)
	return inbox, publishEnd
}

// refDepositReports is the reference Placement.DepositReports.
func refDepositReports(p *Placement, inbox map[ktree.Handle][]LBI) {
	for i, n := range p.Nodes {
		if leaf := p.LBILeaf[i]; !leaf.IsNil() {
			inbox[leaf] = append(inbox[leaf], NodeLBI(n))
		}
	}
}
