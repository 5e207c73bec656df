// Package chord simulates a Chord DHT whose physical nodes each host
// multiple virtual servers (VS), the substrate the paper's load balancer
// runs on.
//
// A virtual server is a first-class ring participant: it has its own
// identifier and owns the arc (predecessor, self] of the 32-bit space.
// A physical node hosts several virtual servers and therefore owns
// several non-contiguous arcs (Figure 1 of the paper). Transferring a
// virtual server between physical nodes re-homes the VS — a leave
// followed by a join with the same identifier — so the ring structure is
// unchanged; only the hosting changes.
//
// The simulator keeps a globally consistent ring (sorted VS blocks) and
// models the *cost* of distributed operation explicitly: lookups are
// routed hop by hop through finger tables read off the sorted ring when
// probed (from the farthest finger that can still precede the key, not
// from the top), every protocol message is counted on the sim.Engine,
// and each overlay hop is charged the underlay latency between the
// hosting physical nodes. A lookup in flight is one pooled event object
// that each hop re-schedules, so a warm ring routes without allocating.
// Membership churn (join/leave/crash) updates the ring instantly and
// fires listener callbacks; the soft-state repair the paper relies on
// lives in the K-nary tree layer above.
package chord

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"p2plb/internal/ident"
	"p2plb/internal/metrics"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// VServer is a virtual server: one ring participant.
type VServer struct {
	ID ident.ID
	// slot is the dense handle the ring assigned at join (see Slot).
	slot  int32
	Owner *Node   // hosting physical node; changes on transfer
	Load  float64 // current load attributed to this VS's region

	// blk and off cache this VS's position in the ring's blocks; they
	// are only valid while posEpoch equals the ring's current epoch.
	// Ring.pos revalidates a stale cache with a binary search on ID, so
	// membership changes cost O(log n) amortized per affected VS instead
	// of an eager rewrite per insert/delete.
	blk, off int32
	posEpoch uint64
}

// Slot returns the dense handle the ring gave vs when it joined: an
// index below Ring.NumSlots, unique among the live virtual servers, for
// per-VS arrays in place of pointer-keyed maps. A leave returns the
// slot and the next join takes it, so an array indexed by slot must
// store which VServer it describes and check it on read. A virtual
// server that never joined a ring (NewStandaloneNode) has slot 0.
func (vs *VServer) Slot() int { return int(vs.slot) }

// Node is a physical DHT node.
type Node struct {
	Index    int             // dense, stable index assigned at creation
	Underlay topology.NodeID // position in the underlay topology (-1 if none)
	Capacity float64
	Alive    bool

	vservers []*VServer
}

// VServers returns the virtual servers currently hosted by the node.
// The returned slice must not be modified.
func (n *Node) VServers() []*VServer { return n.vservers }

// TotalLoad returns L_i: the sum of the loads of the node's virtual
// servers.
func (n *Node) TotalLoad() float64 {
	var l float64
	for _, vs := range n.vservers {
		l += vs.Load
	}
	return l
}

// MinVSLoad returns L_{i,min}: the smallest virtual-server load on the
// node, and false if the node hosts no virtual servers.
func (n *Node) MinVSLoad() (float64, bool) {
	if len(n.vservers) == 0 {
		return 0, false
	}
	min := n.vservers[0].Load
	for _, vs := range n.vservers[1:] {
		if vs.Load < min {
			min = vs.Load
		}
	}
	return min, true
}

// NewStandaloneNode returns a physical node that belongs to no ring:
// it hosts the given virtual servers (their Owner back-links are set)
// but takes part in no ring bookkeeping. The multi-process deployment
// uses standalone nodes to run the classification and shed-subset
// machinery over a daemon's local inventory, where the global ring
// exists only as the union of all daemons' books.
func NewStandaloneNode(index int, capacity float64, vss []*VServer) *Node {
	n := &Node{Index: index, Underlay: -1, Capacity: capacity, Alive: true, vservers: vss}
	for _, vs := range vss {
		vs.Owner = n
	}
	return n
}

// RandomVS returns a uniformly random hosted virtual server, or nil if
// the node hosts none. The paper has each node report through one
// randomly chosen VS to avoid redundant reports.
func (n *Node) RandomVS(rng *rand.Rand) *VServer {
	if len(n.vservers) == 0 {
		return nil
	}
	return n.vservers[rng.Intn(len(n.vservers))]
}

// Listener receives ring-change notifications. The K-nary tree layer
// uses them to migrate or drop KT nodes planted in virtual servers.
type Listener interface {
	// VSAdded fires when a virtual server joins the ring.
	VSAdded(vs *VServer)
	// VSRemoved fires when a virtual server leaves the ring (its region
	// is absorbed by its successor).
	VSRemoved(vs *VServer)
	// VSTransferred fires when a virtual server moves between physical
	// nodes (ring structure unchanged).
	VSTransferred(vs *VServer, from, to *Node)
}

// LatencyFunc returns the message latency between two physical nodes, in
// simulation time units.
type LatencyFunc func(a, b *Node) sim.Time

// ConstantLatency returns a LatencyFunc charging c per message.
func ConstantLatency(c sim.Time) LatencyFunc {
	return func(a, b *Node) sim.Time { return c }
}

// TopologyLatency charges the underlay shortest-path distance between
// the hosting nodes' positions. Every node on a topology-backed ring
// must have a real underlay position: a negative Underlay (the "no
// underlay" sentinel) would index outside the distance tables, so it
// panics with a diagnosable message instead.
func TopologyLatency(d *topology.Distances) LatencyFunc {
	return func(a, b *Node) sim.Time {
		if a == b || a.Underlay == b.Underlay {
			return 0
		}
		if a.Underlay < 0 || b.Underlay < 0 {
			panic(fmt.Sprintf("chord: TopologyLatency between nodes %d and %d with underlay positions %d and %d; every node on a topology-backed ring needs a real underlay position",
				a.Index, b.Index, a.Underlay, b.Underlay))
		}
		return sim.Time(d.Between(a.Underlay, b.Underlay))
	}
}

// Config parameterizes a ring.
type Config struct {
	// Latency is the inter-node message latency model. nil means
	// ConstantLatency(1).
	Latency LatencyFunc
}

// minHopLatency is added to every overlay hop so that co-located nodes
// still spend nonzero time per hop.
const minHopLatency sim.Time = 1

// Ring is the Chord overlay.
type Ring struct {
	eng       *sim.Engine
	cfg       Config
	nodes     []*Node
	listeners []Listener

	// The numVS live virtual servers in ring (ID) order, cut into
	// blocks of at most blockMax (blockSize; tests shrink it to cross
	// splits and merges); mins[b] is block b's first ID (see blocks.go).
	blocks   []block
	mins     []ident.ID
	numVS    int
	blockMax int

	// epoch counts membership changes (VS insertions and removals). It
	// starts at 1 and only grows, so a VServer whose posEpoch matches it
	// is guaranteed to be on the ring at its cached position; everything
	// else revalidates lazily (see pos).
	epoch uint64

	// flat is VServers' ring-order view, current while flatEpoch equals
	// epoch.
	flat      []*VServer
	flatEpoch uint64

	// numSlots is the high-water mark of VServer slots; freeSlots holds
	// the slots departed virtual servers returned, the latest last.
	numSlots  int
	freeSlots []int32

	// frozen counts the FreezeMembership calls not yet thawed; while it
	// is positive every membership change panics.
	frozen int

	// hopFree holds the lookups that finished, for the next ones to
	// reuse; hopsOut counts those handed out and not yet delivered, one
	// per lookup in flight.
	hopFree []*lookupHop
	hopsOut int

	// Cached lookup metrics (filled on first completed lookup once the
	// engine carries a registry).
	mLookupHops *metrics.Histogram
	mLookupLat  *metrics.Histogram
}

// Message kinds counted on the engine.
const (
	MsgLookupHop = "chord.lookup-hop"
)

// NewRing returns an empty ring driven by eng.
func NewRing(eng *sim.Engine, cfg Config) *Ring {
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(1)
	}
	return &Ring{eng: eng, cfg: cfg, epoch: 1, blockMax: blockSize}
}

// Engine returns the simulation engine driving the ring.
func (r *Ring) Engine() *sim.Engine { return r.eng }

// Subscribe registers a ring-change listener.
func (r *Ring) Subscribe(l Listener) { r.listeners = append(r.listeners, l) }

// Latency returns the configured message latency between two nodes.
func (r *Ring) Latency(a, b *Node) sim.Time { return r.cfg.Latency(a, b) }

// Nodes returns all physical nodes ever added, including dead ones
// (check Alive). The returned slice must not be modified.
func (r *Ring) Nodes() []*Node { return r.nodes }

// AliveNodes returns the physical nodes currently in the system.
func (r *Ring) AliveNodes() []*Node {
	out := make([]*Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n.Alive {
			out = append(out, n)
		}
	}
	return out
}

// NumSlots returns the number of VServer slots the ring has handed out:
// every live virtual server's Slot is below it. It is the peak live
// count, since a join reuses a freed slot before it opens a new one, and
// it sizes per-slot arrays.
func (r *Ring) NumSlots() int { return r.numSlots }

// takeSlot gives a joining vs its slot: the one most recently freed,
// or a new one at the high-water mark.
func (r *Ring) takeSlot(vs *VServer) {
	if n := len(r.freeSlots); n > 0 {
		vs.slot = r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		return
	}
	vs.slot = int32(r.numSlots)
	r.numSlots++
}

// NumVServersIn returns the number of live virtual servers whose
// identifier lies in reg: two ranks read off the blocks, no caches
// written (not the position caches, not the flat view), so it is safe
// to call from parallel tree-build workers.
func (r *Ring) NumVServersIn(reg ident.Region) int {
	lo, hi := r.rank(reg.Start), r.rank(reg.End())
	if uint64(uint32(reg.Start))+reg.Width >= ident.SpaceSize {
		return r.NumVServers() - lo + hi // reg runs through the top of the space
	}
	return hi - lo
}

// FreezeMembership forbids membership change until the returned thaw
// runs: while frozen, AddNode, AddNodeWithIDs, BulkAddNodes, RemoveNode
// and RemoveVServer panic. Transfers, lookups and Successor work as
// before. Freezes nest — the ring thaws when every thaw has run — and
// a thaw called twice counts once.
func (r *Ring) FreezeMembership() (thaw func()) {
	r.frozen++
	thawed := false
	return func() {
		if !thawed {
			thawed = true
			r.frozen--
		}
	}
}

// MembershipFrozen reports whether a FreezeMembership is in force.
func (r *Ring) MembershipFrozen() bool { return r.frozen > 0 }

// mustBeThawed panics if op would change a frozen ring's membership.
func (r *Ring) mustBeThawed(op string) {
	if r.frozen > 0 {
		panic("chord: " + op + " on a ring whose membership is frozen")
	}
}

// AddNode creates a physical node hosting numVS virtual servers with
// identifiers drawn from the engine RNG, and joins them to the ring.
func (r *Ring) AddNode(underlay topology.NodeID, capacity float64, numVS int) *Node {
	r.mustBeThawed("AddNode")
	n := &Node{
		Index:    len(r.nodes),
		Underlay: underlay,
		Capacity: capacity,
		Alive:    true,
	}
	r.nodes = append(r.nodes, n)
	for i := 0; i < numVS; i++ {
		r.addVS(n, r.randomFreeID())
	}
	return n
}

// AddNodeWithIDs is AddNode with caller-chosen VS identifiers (tests and
// deterministic scenarios). Duplicate identifiers are rejected.
func (r *Ring) AddNodeWithIDs(underlay topology.NodeID, capacity float64, ids []ident.ID) (*Node, error) {
	r.mustBeThawed("AddNodeWithIDs")
	for _, id := range ids {
		if _, ok := r.findVS(id); ok {
			return nil, fmt.Errorf("chord: duplicate VS id %s", id)
		}
	}
	seen := map[ident.ID]bool{}
	for _, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("chord: duplicate VS id %s in request", id)
		}
		seen[id] = true
	}
	n := &Node{
		Index:    len(r.nodes),
		Underlay: underlay,
		Capacity: capacity,
		Alive:    true,
	}
	r.nodes = append(r.nodes, n)
	for _, id := range ids {
		r.addVS(n, id)
	}
	return n, nil
}

// maxIDDraws bounds the rejection sampling for a free identifier. Past
// it the space is dense enough that scanning for the first free gap is
// cheaper (and guaranteed to terminate) — rejection sampling alone
// spins unboundedly as the space saturates.
const maxIDDraws = 64

func (r *Ring) randomFreeID() ident.ID {
	if uint64(r.NumVServers()) >= ident.SpaceSize {
		panic("chord: identifier space exhausted")
	}
	for i := 0; i < maxIDDraws; i++ {
		id := ident.ID(r.eng.Rand().Uint32())
		if _, ok := r.findVS(id); !ok {
			return id
		}
	}
	// Near saturation: one more draw picks a random start, the scan
	// takes the first free identifier clockwise from it.
	return r.firstFreeFrom(ident.ID(r.eng.Rand().Uint32()))
}

// firstFreeFrom returns the first identifier at or clockwise after
// start that no virtual server holds. The caller guarantees the space
// is not exhausted.
func (r *Ring) firstFreeFrom(start ident.ID) ident.ID {
	n := r.NumVServers()
	if n == 0 {
		return start
	}
	b, i := r.seek(start)
	if b == len(r.blocks) {
		b, i = 0, 0
	}
	cand := start
	// Walk the occupied identifiers clockwise from start; the first one
	// that does not match the running candidate leaves a gap.
	for k := 0; k < n; k++ {
		if r.blocks[b].ids[i] != cand {
			return cand
		}
		cand = cand.Add(1)
		b, i = r.next(b, i)
	}
	return cand
}

// pos returns vs's position in the blocks, revalidating a stale cache
// with a binary search. It panics if vs is not on the ring — positional
// queries on departed virtual servers are caller bugs.
func (r *Ring) pos(vs *VServer) (int, int) {
	if !r.onRing(vs) {
		panic(fmt.Sprintf("chord: position query for VS %s which is not on the ring", vs.ID))
	}
	return int(vs.blk), int(vs.off)
}

// onRing reports whether vs is currently a ring member, refreshing its
// position cache when it is. In-flight messages use it to notice that a
// hop target departed while the message was travelling.
func (r *Ring) onRing(vs *VServer) bool {
	if vs.posEpoch == r.epoch {
		return true
	}
	b, i := r.seek(vs.ID)
	if b == len(r.blocks) || r.at(b, i) != vs {
		return false
	}
	r.place(vs, b, i)
	return true
}

func (r *Ring) addVS(n *Node, id ident.ID) *VServer {
	vs := &VServer{ID: id, Owner: n}
	r.takeSlot(vs)
	b, i := r.insert(vs)
	r.epoch++
	r.place(vs, b, i)
	n.vservers = append(n.vservers, vs)
	for _, l := range r.listeners {
		l.VSAdded(vs)
	}
	return vs
}

// BulkAddNodes creates count physical nodes, each hosting numVS virtual
// servers with identifiers drawn from the engine RNG, and joins them to
// the ring with a single sorted merge that rebuilds the blocks —
// O(m + n) for m new VSs over n existing ones (a radix sort), against
// O(m·(blockSize + log n)) for the incremental AddNode loop. The
// underlay and capacity callbacks are invoked once per node
// in index order; capacity draws and identifier draws interleave in
// exactly the order the equivalent AddNode loop consumes the engine
// RNG, so a bulk-built ring is identical to an incrementally built one
// at the same seed. The nodes, their virtual servers and the nodes'
// VServers lists are carved from one array each, so the allocations
// do not grow with count.
func (r *Ring) BulkAddNodes(count, numVS int, underlay func(i int) topology.NodeID, capacity func(i int) float64) []*Node {
	r.mustBeThawed("BulkAddNodes")
	old := r.VServers()
	used := newIDSet(len(old) + count*numVS)
	for _, vs := range old {
		used.add(vs.ID)
	}
	nodes := make([]*Node, count)
	slab := make([]Node, count)
	vslab := make([]VServer, count*numVS)
	fresh := make([]*VServer, count*numVS) // draw order: node i's are fresh[i*numVS:][:numVS]
	r.nodes = slices.Grow(r.nodes, count)
	for i := range slab {
		n := &slab[i]
		u := underlay(i)
		c := capacity(i)
		*n = Node{
			Index:    len(r.nodes),
			Underlay: u,
			Capacity: c,
			Alive:    true,
			// A full-capacity window: a transfer in reallocates the list
			// rather than write over the next node's.
			vservers: fresh[i*numVS : (i+1)*numVS : (i+1)*numVS],
		}
		r.nodes = append(r.nodes, n)
		nodes[i] = n
		for j := i * numVS; j < (i+1)*numVS; j++ {
			vs := &vslab[j]
			vs.ID, vs.Owner = r.drawFreeID(used), n
			r.takeSlot(vs)
			used.add(vs.ID)
			fresh[j] = vs
		}
	}
	if len(fresh) == 0 {
		return nodes
	}
	// Sort after every draw, so the RNG order and the slots stay those of
	// an AddNode loop. A key is an ID over its draw index; IDs are
	// unique, so ordering the keys by ID alone orders them totally.
	keys := make([]uint64, len(fresh))
	for j, vs := range fresh {
		keys[j] = uint64(vs.ID)<<32 | uint64(j)
	}
	keys = sortByID(keys, make([]uint64, len(keys)))

	merged := make([]*VServer, 0, len(old)+len(fresh))
	i := 0
	for _, k := range keys {
		for id := ident.ID(k >> 32); i < len(old) && ident.Less(old[i].ID, id); i++ {
			merged = append(merged, old[i])
		}
		merged = append(merged, fresh[uint32(k)])
	}
	merged = append(merged, old[i:]...)
	r.epoch++
	r.fill(merged)
	// Listeners observe the same joins the incremental path would fire,
	// in draw order, each against the fully merged ring.
	for _, vs := range fresh {
		for _, l := range r.listeners {
			l.VSAdded(vs)
		}
	}
	return nodes
}

// sortByID sorts keys, each an ID in its upper 32 bits, by that ID: a
// least-significant-digit radix sort, a byte a pass, through tmp, which
// is as long as keys. It returns whichever of the two holds the result.
func sortByID(keys, tmp []uint64) []uint64 {
	for shift := 32; shift < 64; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		if at[byte(keys[0]>>shift)] == len(keys) {
			continue // one digit throughout: the pass would move nothing
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[at[d]] = k
			at[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// drawFreeID is randomFreeID against a pending-membership set: bulk
// population checks candidate identifiers against both the ring and the
// batch being built, consuming the engine RNG in the same accept/reject
// sequence the incremental path would.
func (r *Ring) drawFreeID(used *idSet) ident.ID {
	if uint64(used.n) >= ident.SpaceSize {
		panic("chord: identifier space exhausted")
	}
	for i := 0; i < maxIDDraws; i++ {
		id := ident.ID(r.eng.Rand().Uint32())
		if !used.has(id) {
			return id
		}
	}
	cand := ident.ID(r.eng.Rand().Uint32())
	for used.has(cand) {
		cand = cand.Add(1)
	}
	return cand
}

// idSet is a set of identifiers sized once for the most it will hold:
// open addressing with linear probing in a power-of-two table kept at
// most half full. A slot holds an identifier, 0 marks it empty, and
// identifier 0 itself is the flag zero.
type idSet struct {
	slots []uint32
	zero  bool
	n     int  // members
	shift uint // 32 - log2(len(slots)): a hash's top bits pick the home slot
}

func newIDSet(most int) *idSet {
	bits := uint(1)
	for bits < 32 && 1<<bits < 2*most {
		bits++
	}
	return &idSet{slots: make([]uint32, 1<<bits), shift: 32 - bits}
}

// find returns the slot that holds id, or the empty slot where its probe
// sequence ends. id is not 0.
//
//lbvet:hotpath
func (s *idSet) find(id uint32) int {
	mask := len(s.slots) - 1
	i := int((id * 0x9e3779b9) >> s.shift) // Fibonacci hashing
	for s.slots[i] != id && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

func (s *idSet) has(id ident.ID) bool {
	if id == 0 {
		return s.zero
	}
	return s.slots[s.find(uint32(id))] != 0
}

func (s *idSet) add(id ident.ID) {
	if id == 0 {
		if !s.zero {
			s.zero, s.n = true, s.n+1
		}
		return
	}
	if i := s.find(uint32(id)); s.slots[i] == 0 {
		s.slots[i], s.n = uint32(id), s.n+1
	}
}

// RemoveNode removes a physical node from the system (leave or crash).
// Each of its virtual servers leaves the ring; a departed VS's region
// and load are absorbed by its ring successor, mirroring how the
// successor takes over the keys of a failed participant.
func (r *Ring) RemoveNode(n *Node) {
	r.mustBeThawed("RemoveNode")
	if !n.Alive {
		return
	}
	n.Alive = false
	vss := n.vservers
	n.vservers = nil
	for _, vs := range vss {
		r.removeVS(vs)
	}
}

func (r *Ring) removeVS(vs *VServer) {
	r.delete(r.pos(vs))
	r.epoch++
	vs.posEpoch = 0 // departed: every future pos query must fail
	r.freeSlots = append(r.freeSlots, vs.slot)
	// The successor absorbs the departed region's load.
	if r.NumVServers() > 0 && vs.Load > 0 {
		r.Successor(vs.ID).Load += vs.Load
	}
	for _, l := range r.listeners {
		l.VSRemoved(vs)
	}
}

// RemoveVServer makes a virtual server leave the ring without its node
// leaving: the CFS-style shedding baseline, where an overloaded node
// simply deletes virtual servers. The departed VS's region and load are
// absorbed by its ring successor (which may live on a different node —
// the mechanism behind load thrashing).
func (r *Ring) RemoveVServer(vs *VServer) {
	r.mustBeThawed("RemoveVServer")
	owner := vs.Owner
	for i, v := range owner.vservers {
		if v == vs {
			owner.vservers = append(owner.vservers[:i], owner.vservers[i+1:]...)
			break
		}
	}
	r.removeVS(vs)
}

// Transfer re-homes a virtual server from its current owner to the node
// to. The ring structure (identifier, region, load) is unchanged.
func (r *Ring) Transfer(vs *VServer, to *Node) {
	from := vs.Owner
	if from == to {
		return
	}
	for i, v := range from.vservers {
		if v == vs {
			from.vservers = append(from.vservers[:i], from.vservers[i+1:]...)
			break
		}
	}
	vs.Owner = to
	to.vservers = append(to.vservers, vs)
	for _, l := range r.listeners {
		l.VSTransferred(vs, from, to)
	}
}

// findVS returns the VS with exactly the given identifier.
func (r *Ring) findVS(id ident.ID) (*VServer, bool) {
	b, i := r.seek(id)
	if b < len(r.blocks) && r.blocks[b].ids[i] == id {
		return r.at(b, i), true
	}
	return nil, false
}

// Successor returns the virtual server owning key: the first VS at or
// clockwise after key. It is the ground truth the routed lookup must
// agree with. It returns nil on an empty ring.
//
//lbvet:hotpath
func (r *Ring) Successor(key ident.ID) *VServer {
	if len(r.blocks) == 0 {
		return nil
	}
	b, i := r.seek(key)
	if b == len(r.blocks) {
		b = 0 // past the last identifier: wrap to the first (i is 0)
	}
	return r.at(b, i)
}

// Predecessor returns the virtual server immediately counterclockwise of
// vs on the ring (itself if it is alone).
func (r *Ring) Predecessor(vs *VServer) *VServer {
	return r.at(r.prev(r.pos(vs)))
}

// RegionOf returns the arc of the identifier space owned by vs:
// (predecessor, vs] as a half-open region.
func (r *Ring) RegionOf(vs *VServer) ident.Region {
	return ident.OwnershipArc(r.Predecessor(vs).ID, vs.ID)
}

// closestPreceding returns the live VS reachable from cur's finger table
// that most closely precedes key, or nil when cur's immediate successor
// already owns key. Finger k of cur is Successor(cur.ID + 2^k), read off
// the consistent ring when probed.
//
// The scan starts at the highest finger whose target lies strictly
// before key: with d the clockwise distance from cur to key (2^32 when
// key == cur), that is k = bits.Len64(d−1)−1. A finger with 2^k ≥ d
// targets a point at or past key, and its successor lies clockwise in
// [target, cur], never in (cur, key), so skipping it returns what the
// full 32-finger scan returns.
//
//lbvet:hotpath
func (r *Ring) closestPreceding(cur *VServer, key ident.ID) *VServer {
	// If key is in (cur, successor(cur)], routing terminates.
	succ := r.at(r.next(r.pos(cur)))
	if key.Between(cur.ID, succ.ID) {
		return nil
	}
	d := cur.ID.Dist(key)
	if d == 0 {
		d = ident.SpaceSize
	}
	for k := bits.Len64(d-1) - 1; k >= 0; k-- {
		f := r.Successor(cur.ID.Add(uint64(1) << uint(k)))
		if f == cur {
			continue
		}
		// f must strictly precede key (f in (cur, key)).
		if f.ID != key && f.ID.Between(cur.ID, key) {
			return f
		}
	}
	return succ
}

// LookupResult is delivered to a Lookup callback.
type LookupResult struct {
	VS   *VServer // owner of the key
	Hops int      // overlay hops traversed
	Cost sim.Time // total latency charged
}

// Lookup routes a lookup for key starting at the physical node from,
// delivering the result asynchronously after the routed path's latency.
// Each overlay hop costs the underlay latency between consecutive
// hosting nodes (plus minHopLatency) and is counted as a message.
func (r *Ring) Lookup(from *Node, key ident.ID, cb func(LookupResult)) {
	r.lookup(from, key, nil, cb)
}

// lookup is Lookup that, when learn is non-nil, records the resolved
// owner in learn before the callback runs (CachedLookup's miss path).
func (r *Ring) lookup(from *Node, key ident.ID, learn *LookupCache, cb func(LookupResult)) {
	if r.NumVServers() == 0 {
		panic("chord: lookup on empty ring")
	}
	start := from.vservers
	var cur *VServer
	if len(start) > 0 {
		cur = start[0]
	} else {
		// A node with no virtual servers routes via the key's owner
		// region start; charge one hop to enter the ring.
		cur = r.Successor(ident.ID(r.eng.Rand().Uint32()))
	}
	r.lookupStep(r.newHop(from, key, learn, cb), cur)
}

// hopKind says what a lookup hop in flight is addressed to, and so what
// its arrival checks.
type hopKind uint8

const (
	hopForward hopKind = iota // cur's closest preceding finger
	hopFinal                  // cur's successor, which owned the key at send
	hopCached                 // a cached owner, straight from the origin
)

// lookupHop is one lookup in flight: the sim.Eventer that each of its
// overlay hops re-schedules. Hops come from the ring's free list and go
// back to it before the callback runs, so a warm ring routes without
// allocating and a callback may start the next lookup.
type lookupHop struct {
	r      *Ring
	origin *Node
	key    ident.ID
	kind   hopKind
	to     *VServer // where the hop in flight lands
	hops   int      // overlay hops sent, including the one in flight
	cost   sim.Time // latency charged, including the hop in flight
	// cache is the LookupCache this lookup reports to: a hopCached hop
	// counts its hit or stale arrival there, and any other hop teaches
	// it the owner on delivery. nil once there is nothing left to report.
	cache *LookupCache
	cb    func(LookupResult)
}

// newHop takes a lookup from the free list, or makes one.
func (r *Ring) newHop(origin *Node, key ident.ID, c *LookupCache, cb func(LookupResult)) *lookupHop {
	var h *lookupHop
	if n := len(r.hopFree); n > 0 {
		h = r.hopFree[n-1]
		r.hopFree = r.hopFree[:n-1]
	} else {
		h = new(lookupHop)
	}
	*h = lookupHop{r: r, origin: origin, key: key, cache: c, cb: cb}
	r.hopsOut++
	return h
}

// lookupStep sends h's next hop from cur: to the closest preceding
// finger, or to cur's successor when that owns the key.
//
//lbvet:hotpath
func (r *Ring) lookupStep(h *lookupHop, cur *VServer) {
	next := r.closestPreceding(cur, h.key)
	h.kind = hopForward
	if next == nil {
		next = r.at(r.next(r.pos(cur)))
		h.kind = hopFinal
	}
	r.sendHop(h, cur.Owner, next)
}

// sendHop charges and schedules one overlay hop of h from the physical
// node from to the virtual server to.
//
//lbvet:hotpath
func (r *Ring) sendHop(h *lookupHop, from *Node, to *VServer) {
	hop := r.cfg.Latency(from, to.Owner) + minHopLatency
	r.eng.CountMessage(MsgLookupHop, hop)
	h.to = to
	h.hops++
	h.cost += hop
	r.eng.ScheduleEv(hop, h)
}

// RunEvent lands the hop in flight and either delivers the result or
// sends the next hop. Membership may have changed while the hop
// travelled: a departed target restarts routing from the ring's current
// owner of the key, and a target whose region a join split forwards.
//
//lbvet:hotpath
func (h *lookupHop) RunEvent() {
	r := h.r
	switch h.kind {
	case hopCached:
		if r.onRing(h.to) && r.RegionOf(h.to).Contains(h.key) {
			h.cache.hits++
			h.cache = nil // a hit has nothing to teach
			r.deliver(h)
			return
		}
		// Stale arrival: the entry outlived its usefulness between the
		// version check and the hop landing (or a join shrank the
		// region). Forget it and keep routing from where the hop landed.
		h.cache.stale++
		h.cache.invalidate(h.origin, h.key)
		h.cache = nil
		start := h.to
		if !r.onRing(start) {
			start = r.Successor(h.key)
		}
		r.lookupStep(h, start)
	case hopFinal:
		switch {
		case !r.onRing(h.to):
			r.lookupStep(h, r.Successor(h.key))
		case !r.RegionOf(h.to).Contains(h.key):
			r.lookupStep(h, h.to)
		default:
			r.deliver(h)
		}
	default:
		if !r.onRing(h.to) {
			r.lookupStep(h, r.Successor(h.key))
			return
		}
		r.lookupStep(h, h.to)
	}
}

// deliver completes h at its current target: it records the metrics,
// returns h to the free list, teaches h's cache the owner, and runs the
// callback last.
func (r *Ring) deliver(h *lookupHop) {
	res := LookupResult{VS: h.to, Hops: h.hops, Cost: h.cost}
	origin, key, learn, cb := h.origin, h.key, h.cache, h.cb
	r.observeLookup(res.Hops, res.Cost)
	*h = lookupHop{}
	r.hopFree = append(r.hopFree, h)
	r.hopsOut--
	if learn != nil {
		learn.put(origin, key, res.VS)
	}
	cb(res)
}

// observeLookup records a completed routed lookup's hop count and
// charged latency into the engine's metrics registry, if one is
// attached.
func (r *Ring) observeLookup(hops int, cost sim.Time) {
	if r.mLookupHops == nil {
		reg := r.eng.Metrics()
		r.mLookupHops = reg.Histogram("chord.lookup.hops")
		r.mLookupLat = reg.Histogram("chord.lookup.latency")
	}
	r.mLookupHops.Observe(int64(hops))
	r.mLookupLat.Observe(int64(cost))
}

// CheckInvariants verifies internal consistency (tests): the block
// layout and ring order, position caches, owner back-links, that
// regions partition the circle, and that live and free slots partition
// [0, NumSlots). It panics on violation.
func (r *Ring) CheckInvariants() {
	r.checkBlocks()
	var total uint64
	held := make([]bool, r.numSlots)
	for _, s := range r.freeSlots {
		if int(s) >= r.numSlots || held[s] {
			panic(fmt.Sprintf("chord: free slot %d out of range or listed twice", s))
		}
		held[s] = true
	}
	for b, blk := range r.blocks {
		for i, vs := range blk.vss {
			if s := vs.Slot(); s >= r.numSlots || held[s] {
				panic(fmt.Sprintf("chord: vs %s holds slot %d, out of range or not its own", vs.ID, s))
			}
			held[vs.slot] = true
			if vs.posEpoch > r.epoch {
				panic(fmt.Sprintf("chord: vs %s posEpoch %d ahead of ring epoch %d", vs.ID, vs.posEpoch, r.epoch))
			}
			if pb, pi := r.pos(vs); pb != b || pi != i {
				panic(fmt.Sprintf("chord: vs %s resolves to position (%d, %d) != (%d, %d)", vs.ID, pb, pi, b, i))
			}
			if !vs.Owner.Alive {
				panic("chord: VS owned by dead node")
			}
			found := false
			for _, v := range vs.Owner.vservers {
				if v == vs {
					found = true
					break
				}
			}
			if !found {
				panic("chord: owner does not list VS")
			}
			total += r.RegionOf(vs).Width
		}
	}
	n := r.NumVServers()
	if n > 0 && total != ident.SpaceSize {
		panic(fmt.Sprintf("chord: regions cover %d of %d", total, ident.SpaceSize))
	}
	if n+len(r.freeSlots) != r.numSlots {
		panic(fmt.Sprintf("chord: %d live and %d free slots, want %d", n, len(r.freeSlots), r.numSlots))
	}
}

// Conservation is a snapshot of the quantities the fault-tolerance layer
// must preserve across drops, duplicates, partitions and crashes: the
// total load in the system. Capture it with SnapshotConservation before
// injecting faults and hand it to CheckConservation after every round.
type Conservation struct {
	TotalLoad float64
	NumVS     int
}

// SnapshotConservation captures the current load books.
func (r *Ring) SnapshotConservation() Conservation {
	var total float64
	vss := r.VServers()
	for _, vs := range vss {
		total += vs.Load
	}
	return Conservation{TotalLoad: total, NumVS: len(vss)}
}

// CheckConservation verifies the fault-tolerance contract against a
// pre-fault snapshot and returns the first violation found:
//
//   - no VS is lost: every virtual server on the global ring is hosted
//     by exactly one node, and every hosted virtual server is on the
//     global ring (a prepare that never commits must leave the VS with
//     its sender; an abort must not orphan it);
//   - no VS is double-hosted: a virtual server never appears in two
//     nodes' books, and its Owner back-link matches the hosting node (a
//     duplicated commit must be idempotent);
//   - every hosting node is alive and no load is negative;
//   - total load is conserved within a relative 1e-9 tolerance (crashes
//     hand the departed region's load to the ring successor and joins
//     enter with zero load, so the total is invariant even under
//     membership change).
//
// The VS population may legitimately shrink (crash) or grow (restart,
// join); Conservation.NumVS is recorded for tests that run without
// membership change and want to assert it separately. Unlike
// CheckInvariants this returns an error instead of panicking, so fault
// experiments can attribute the failing round.
func (r *Ring) CheckConservation(base Conservation) error {
	vss := r.VServers()
	// Hosts per ring member, by slot; a departed server matches no entry.
	type hosting struct {
		vs    *VServer
		count int
	}
	hostings := make([]hosting, r.numSlots)
	var total float64
	for i, vs := range vss {
		if i > 0 && !ident.Less(vss[i-1].ID, vs.ID) {
			return fmt.Errorf("chord: ring order violated at position %d", i)
		}
		if vs.Owner == nil {
			return fmt.Errorf("chord: vs %s has no owner", vs.ID)
		}
		if !vs.Owner.Alive {
			return fmt.Errorf("chord: vs %s owned by dead node %d", vs.ID, vs.Owner.Index)
		}
		if vs.Load < 0 {
			return fmt.Errorf("chord: vs %s has negative load %v", vs.ID, vs.Load)
		}
		hostings[vs.slot] = hosting{vs: vs}
		total += vs.Load
	}
	for _, n := range r.nodes {
		for _, vs := range n.vservers {
			if !n.Alive {
				return fmt.Errorf("chord: dead node %d still hosts vs %s", n.Index, vs.ID)
			}
			s := vs.Slot()
			if s >= len(hostings) || hostings[s].vs != vs {
				return fmt.Errorf("chord: node %d hosts vs %s which is not on the ring", n.Index, vs.ID)
			}
			if vs.Owner != n {
				return fmt.Errorf("chord: vs %s hosted by node %d but owned by node %d (double-hosted)",
					vs.ID, n.Index, vs.Owner.Index)
			}
			hostings[s].count++
		}
	}
	for _, vs := range vss {
		switch c := hostings[vs.slot].count; {
		case c == 0:
			return fmt.Errorf("chord: vs %s is on the ring but hosted by no node (lost)", vs.ID)
		case c > 1:
			return fmt.Errorf("chord: vs %s hosted %d times (double-hosted)", vs.ID, c)
		}
	}
	tol := 1e-9 * math.Max(1, math.Abs(base.TotalLoad))
	if diff := math.Abs(total - base.TotalLoad); diff > tol {
		return fmt.Errorf("chord: total load %v drifted from snapshot %v (|Δ|=%v)",
			total, base.TotalLoad, diff)
	}
	return nil
}
