package workload

import (
	"p2plb/internal/chord"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// RingSpec describes a loaded ring in the paper's §5.1 set-up: nodes
// with Gnutella-like capacities, each hosting VSPerNode virtual servers,
// and virtual-server loads drawn from a load model.
type RingSpec struct {
	Nodes     int
	VSPerNode int
	// Loads draws each virtual server's load; nil draws none and leaves
	// every load at zero (capacities only).
	Loads LoadModel
	// Underlay places node i in the underlay; nil places every node at
	// -1 (no underlay). A caller that samples positions from the engine
	// stream draws them before NewRing.
	Underlay func(i int) topology.NodeID
	// Latency is the ring's message latency model; nil is chord's
	// default.
	Latency chord.LatencyFunc
}

// NewRing builds the ring s describes on eng. Every draw comes from the
// engine stream, in one order: node by node, a capacity from the
// Gnutella-like profile and then the node's virtual-server identifiers
// (chord.Ring.BulkAddNodes, which draws exactly as an AddNode loop
// does); then, when s.Loads is set, every virtual server's load in ring
// order (AssignLoads).
func NewRing(eng *sim.Engine, s RingSpec) *chord.Ring {
	ring := chord.NewRing(eng, chord.Config{Latency: s.Latency})
	underlay := s.Underlay
	if underlay == nil {
		underlay = func(int) topology.NodeID { return -1 }
	}
	profile := GnutellaProfile()
	ring.BulkAddNodes(s.Nodes, s.VSPerNode, underlay,
		func(int) float64 { return profile.Sample(eng.Rand()) })
	if s.Loads != nil {
		AssignLoads(ring, s.Loads)
	}
	return ring
}

// AssignLoads draws every virtual server's load from m, in ring order,
// from the fraction of the identifier space the virtual server owns.
func AssignLoads(ring *chord.Ring, m LoadModel) {
	for _, vs := range ring.VServers() {
		vs.Load = m.Load(ring.Engine().Rand(), ring.RegionOf(vs).Fraction())
	}
}

// Join adds one node at underlay position u hosting vsPerNode virtual
// servers: a capacity from the Gnutella-like profile, then the
// identifiers, then — when m is set — the new virtual servers' loads in
// the order the node hosts them, each from the fraction it owns on
// arrival.
func Join(ring *chord.Ring, u topology.NodeID, vsPerNode int, m LoadModel) *chord.Node {
	n := ring.AddNode(u, GnutellaProfile().Sample(ring.Engine().Rand()), vsPerNode)
	if m != nil {
		for _, vs := range n.VServers() {
			vs.Load = m.Load(ring.Engine().Rand(), ring.RegionOf(vs).Fraction())
		}
	}
	return n
}
