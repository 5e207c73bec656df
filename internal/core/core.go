// Package core implements the paper's load-balancing scheme: the four
// phases of §1.2 — load-balancing information (LBI) aggregation, node
// classification, virtual server assignment (VSA) and virtual server
// transferring (VST) — over the distributed K-nary tree, in both the
// proximity-ignorant (§3) and the proximity-aware (§4) variants.
//
// A Balancer owns a ring, its K-nary tree and a configuration, and runs
// complete load-balancing rounds. Each phase both produces its result
// and accounts for its distributed cost: protocol messages are counted
// on the simulation engine, and phase completion times are computed with
// max-plus recursions over the tree (a converge-cast finishes when the
// slowest child chain finishes), which is exactly what an event-driven
// execution of the same message flow would measure.
package core

import (
	"fmt"
	"math"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/ktree"
	"p2plb/internal/metrics"
	"p2plb/internal/sim"
	"p2plb/internal/stats"
	"p2plb/internal/topology"
)

// Message kinds counted on the engine.
const (
	MsgLBIReport   = "core.lbi-report"   // child → parent LBI aggregation
	MsgLBIDisperse = "core.lbi-disperse" // parent → child dissemination
	MsgVSAPublish  = "core.vsa-publish"  // DHT put of VSA info at a Hilbert key (aware mode)
	MsgVSAReport   = "core.vsa-report"   // child → parent unpaired VSA info
	MsgVSAAssign   = "core.vsa-assign"   // rendezvous → heavy/light node pair notification
	MsgVSTTransfer = "core.vst-transfer" // the virtual server movement itself
)

// KeyMapper maps an underlay position to the DHT key under which a node
// publishes its VSA information in proximity-aware mode. Physically
// close nodes should map to nearby keys.
type KeyMapper interface {
	Key(n topology.NodeID) ident.ID
}

// CellMapper is an optional refinement of KeyMapper: Cell returns the
// full-resolution proximity cell identity (the untruncated Hilbert
// number). When available, the VSA pairing groups entries by cell
// instead of by the 32-bit key, which preserves grid resolution beyond
// what the identifier width can carry. Cells must refine keys: equal
// cells imply equal keys.
type CellMapper interface {
	KeyMapper
	Cell(n topology.NodeID) uint64
}

// Mode selects between the paper's two VSA variants.
type Mode int

// Modes.
const (
	// ProximityIgnorant enters VSA information into the tree at the
	// reporting node's own (random) virtual server, so rendezvous is
	// identifier-space based only (§3.4).
	ProximityIgnorant Mode = iota
	// ProximityAware publishes VSA information into the DHT under the
	// node's Hilbert-number key, so information from physically close
	// nodes meets at low tree levels (§4.3).
	ProximityAware
)

func (m Mode) String() string {
	if m == ProximityAware {
		return "proximity-aware"
	}
	return "proximity-ignorant"
}

// Class is a node's load classification (§3.3).
type Class int

// Classes.
const (
	Neutral Class = iota
	Heavy
	Light
)

func (c Class) String() string {
	switch c {
	case Heavy:
		return "heavy"
	case Light:
		return "light"
	default:
		return "neutral"
	}
}

// LBI is the load-balancing information tuple <L, C, Lmin>: total load,
// total capacity, and the minimum virtual-server load within the scope
// that produced it (one node, one subtree, or the whole system).
type LBI struct {
	L    float64
	C    float64
	Lmin float64
	// ok distinguishes "no data yet" from real zeros during merging.
	ok bool
}

// Merge combines two LBI values: loads and capacities add, the minimum
// VS load is the smaller of the two.
func (a LBI) Merge(b LBI) LBI {
	if !a.ok {
		return b
	}
	if !b.ok {
		return a
	}
	min := a.Lmin
	if b.Lmin < min {
		min = b.Lmin
	}
	return LBI{L: a.L + b.L, C: a.C + b.C, Lmin: min, ok: true}
}

// Valid reports whether the LBI carries any data.
func (a LBI) Valid() bool { return a.ok }

// MakeLBI builds a valid LBI tuple from its components. Executors that
// move tuples across a process boundary (the wire protocol) use it to
// reconstruct the value a remote machine produced; in-process executors
// always obtain tuples from NodeLBI or Merge.
func MakeLBI(l, c, lmin float64) LBI { return LBI{L: l, C: c, Lmin: lmin, ok: true} }

// Config parameterizes a Balancer.
type Config struct {
	// Mode selects proximity-ignorant or proximity-aware VSA.
	Mode Mode
	// Epsilon is the slack in the target load T_i = (1+ε)·C_i·(L/C).
	// Ideally 0 (perfect proportionality); a small positive value trades
	// balance quality for less load movement.
	Epsilon float64
	// RendezvousThreshold is the combined list length at which a non-root
	// KT node starts pairing (the paper suggests 30). The root always
	// pairs. Zero means the default of 30; negative disables intermediate
	// rendezvous entirely (pairing happens only at the root).
	RendezvousThreshold int
	// Mapper supplies the DHT key a node publishes its VSA information
	// under in proximity-aware mode; required for ProximityAware,
	// ignored otherwise. proximity.Mapper (landmark vectors through a
	// Hilbert curve) is the paper's instantiation.
	Mapper KeyMapper
	// Subset selects how heavy nodes choose which virtual servers to
	// shed. Zero value is SubsetAuto.
	Subset SubsetStrategy
	// TransferCost reports the transfer distance between two nodes in
	// the units the experiment plots (the paper's hop convention:
	// interdomain hop = 3, intradomain hop = 1). nil falls back to the
	// ring's message-latency model. Timing always uses the latency
	// model; this only affects the reported Assignment.Hops and the
	// moved-load histogram.
	TransferCost func(from, to *chord.Node) int
	// Loads, when set, is Refreshed at the top of every round so the
	// balancer classifies against the source's current view of per-VS
	// load (an observed request rate, a drifting model, ...). nil means
	// vs.Load is maintained externally — the classic assigned-scalar
	// contract.
	Loads LoadSource
}

// DefaultRendezvousThreshold is the paper's suggested rendezvous
// threshold.
const DefaultRendezvousThreshold = 30

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Epsilon < 0 {
		return fmt.Errorf("core: negative epsilon %v", c.Epsilon)
	}
	if c.Mode == ProximityAware && c.Mapper == nil {
		return fmt.Errorf("core: proximity-aware mode requires a Mapper")
	}
	if c.Mode != ProximityAware && c.Mode != ProximityIgnorant {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	return nil
}

// NodeState is one node's view after classification.
type NodeState struct {
	Node    *chord.Node
	Class   Class
	Load    float64 // L_i at classification time
	Target  float64 // T_i = (1+ε)·C_i·(L/C)
	Deficit float64 // T_i − L_i (meaningful for light nodes)
	// Offers is the subset of virtual servers a heavy node sheds to
	// become light (nil otherwise).
	Offers []*chord.VServer
}

// Balancer runs load-balancing rounds over a ring and its K-nary tree.
type Balancer struct {
	ring *chord.Ring
	tree *ktree.Tree
	cfg  Config

	// Cached metric handle (lazily resolved from the engine's registry).
	mSubsetCost *metrics.Histogram
}

// NewBalancer returns a Balancer. The tree must belong to the ring.
func NewBalancer(ring *chord.Ring, tree *ktree.Tree, cfg Config) (*Balancer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tree.Ring() != ring {
		return nil, fmt.Errorf("core: tree is built over a different ring")
	}
	return &Balancer{ring: ring, tree: tree, cfg: cfg}, nil
}

// Ring returns the balancer's ring.
func (b *Balancer) Ring() *chord.Ring { return b.ring }

// observeSubsetCost records the work of one shed-subset selection as
// core.subset.cost: the search nodes the exact search visited, or the
// candidates greedy evaluated. It is a no-op when the engine has no
// metrics registry.
func (b *Balancer) observeSubsetCost(ops int64) {
	if b.mSubsetCost == nil {
		b.mSubsetCost = b.ring.Engine().Metrics().Histogram("core.subset.cost")
	}
	b.mSubsetCost.Observe(ops)
}

// transferCost returns the reported transfer distance between two nodes.
func (b *Balancer) transferCost(from, to *chord.Node) int {
	if b.cfg.TransferCost != nil {
		return b.cfg.TransferCost(from, to)
	}
	return int(b.ring.Latency(from, to))
}

// Tree returns the balancer's K-nary tree.
func (b *Balancer) Tree() *ktree.Tree { return b.tree }

// Config returns the balancer's configuration.
func (b *Balancer) Config() Config { return b.cfg }

// Assignment is one VSA pairing: virtual server VS moves from heavy node
// From to light node To.
type Assignment struct {
	VS   *chord.VServer
	From *chord.Node
	To   *chord.Node
	Load float64
	// Hops is the underlay transfer distance between From and To in
	// latency units (the ring's latency model).
	Hops int
	// AssignedAt is the virtual time the rendezvous point emitted the
	// pairing; Depth is the tree depth of that rendezvous point.
	AssignedAt sim.Time
	Depth      int
}

// Result reports one complete load-balancing round.
type Result struct {
	Mode   Mode
	Global LBI // the <L, C, Lmin> the root disseminated

	// Classification censuses before and after the round (the "after"
	// census re-evaluates against the same Global LBI).
	HeavyBefore, LightBefore, NeutralBefore int
	HeavyAfter, LightAfter, NeutralAfter    int

	Assignments []Assignment
	// UnassignedOffers counts offered virtual servers no light node
	// could accept; UnassignedLoad is their total load.
	UnassignedOffers int
	UnassignedLoad   float64

	// MovedLoad is the total load transferred; MovedByHops histograms it
	// by underlay transfer distance (the Figure 7/8 data).
	MovedLoad   float64
	MovedByHops *stats.WeightedHistogram

	// Phase completion times (virtual time relative to round start).
	TimeLBIAggregate   sim.Time // bottom-up converge-cast reaches the root
	TimeLBIDisseminate sim.Time // top-down <L,C,Lmin> reaches the last leaf
	TimePublish        sim.Time // aware mode: VSA info published into the DHT
	TimeVSAComplete    sim.Time // last rendezvous (root) finishes pairing
	TimeVSTComplete    sim.Time // last transfer finishes

	// TreeHeight at round time, for the O(log_K N) bound checks.
	TreeHeight int
}

// lg2 returns ceil(log2(v)) with a floor of 1, used for estimated DHT
// lookup hop counts.
func lg2(v int) sim.Time {
	if v < 2 {
		return 1
	}
	return sim.Time(math.Ceil(math.Log2(float64(v))))
}
