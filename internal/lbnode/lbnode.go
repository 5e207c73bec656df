// Package lbnode holds the per-KT-node state of the paper's
// load-balancing scheme, written as pure transitions — (state, incoming
// message) → (state′, outgoing actions) — with no notion of time,
// delivery, retransmission or concurrency.
//
// One round of the scheme keeps its per-node state in four machines:
//
//   - LBICollect — the LBI converge-cast epoch at one KT node: deposit
//     the local reports, merge each child subtree's reply as it arrives,
//     and close (complete or expired) exactly once (§3.2).
//   - Roster — the dissemination endpoint: classify each physical node
//     (core.ClassifyNode) against the global tuple the first time a copy
//     reaches it; duplicates are idempotent (§3.3).
//   - VSACollect — the VSA converge-cast epoch: merge children's
//     unpaired lists, then pair at rendezvous points by
//     core.PairList.Rendezvous (threshold reached, or the root) and hand
//     leftovers upward (§3.4).
//   - Handoff — the two-phase virtual-server transfer for one pairing:
//     assign → prepare/reserve → commit, with abort on invalid or
//     failed endpoints; the commit applies exactly once (§3.4 VST).
//
// The rules these machines apply are core's, shared with every driver:
// the round's placement (core.PlaceRound: which leaf each report and
// advertisement enters at), the classification and census, the deposit
// of an advertisement (core.PairList.Deposit) and the rendezvous rule.
// Drivers own everything else: internal/protocol steps these machines
// through sim.Engine events (acks, retries, epoch timers, fault
// injection are transport concerns), internal/cluster drives the same
// machines over TCP with a WAL under the handoff, and core.Balancer runs
// the same rules as a closed-form sequential fold. Because the machines
// are pure and single-threaded per node, a driver may call them from
// any scheduling discipline; the lbvet layercheck analyzer enforces
// that this package never imports sim, faults or par and never spawns
// goroutines.
package lbnode

import (
	"p2plb/internal/chord"
	"p2plb/internal/core"
)

// Roster tracks which physical nodes have received the disseminated
// global tuple — the receiver-side state of the dissemination phase.
// Duplicate copies classify a node only once, and dead nodes are
// ignored.
type Roster struct {
	states map[*chord.Node]*core.NodeState
}

// NewRoster wraps states as the roster's backing store so executors can
// recycle the map across rounds; nil allocates a fresh one. The map must
// be empty.
func NewRoster(states map[*chord.Node]*core.NodeState) *Roster {
	if states == nil {
		states = make(map[*chord.Node]*core.NodeState)
	}
	return &Roster{states: states}
}

// Classify classifies node on the first delivery of the global tuple
// and records its state. It returns (nil, false) for a duplicate
// delivery or a dead node — the copy is absorbed without effect.
func (ro *Roster) Classify(node *chord.Node, global core.LBI, epsilon float64, strategy core.SubsetStrategy) (*core.NodeState, bool) {
	if _, ok := ro.states[node]; ok || !node.Alive {
		return nil, false
	}
	st := core.ClassifyNode(node, global, epsilon, strategy)
	ro.states[node] = st
	return st, true
}

// Census tallies the classes of every node classified so far.
func (ro *Roster) Census() (heavy, light, neutral int) {
	for _, st := range ro.states {
		switch st.Class {
		case core.Heavy:
			heavy++
		case core.Light:
			light++
		default:
			neutral++
		}
	}
	return heavy, light, neutral
}
