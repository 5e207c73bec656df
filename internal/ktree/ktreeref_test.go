// Package ktree implements the self-organized, fully distributed K-nary
// tree the paper builds on top of the DHT (§3.1) for load-balancing
// information aggregation/dissemination and virtual server assignment.
//
// Every KT node is responsible for a region of the identifier space; the
// root is responsible for the whole space. A KT node is planted in the
// virtual server that owns the center point of its region (the center is
// its DHT key). A KT node whose region is completely covered by its
// hosting virtual server's region is a leaf; otherwise the region is
// split into K near-equal parts and the partitioning recurses — with two
// compressions that keep the materialized tree near log_K(N) deep and
// ~4.3 nodes per virtual server (2.0 of them internal) instead of the
// ~22/VS a naive dyadic recursion produces:
//
//   - Chain collapse (path compression): when a split leaves exactly one
//     part that still straddles an ownership boundary, no intermediate KT
//     node is materialized for it — the split descends directly into that
//     part, accumulating the covered side-parts as leaves of the current
//     node. A region straddling a single VS boundary therefore costs a
//     handful of leaves instead of a 32-deep single-child chain.
//   - Leaf merging: adjacent sibling leaves owned by the same virtual
//     server coalesce into one leaf with the concatenated region.
//
// Children of an internal node are stored as a dense slice (no nil
// slots) that tiles the node's region in clockwise order; because of the
// compressions a node can have more than K children, but never fewer
// than two. Leaves still tile the identifier circle and a leaf's region
// always lies inside its hosting virtual server's region, so every
// virtual server hosts at least one leaf — the property the reporting
// protocols rely on ("it is guaranteed that a KT leaf node will be
// planted in each virtual server").
//
// Memory. The tree costs what it holds. Nodes and child-pointer slices
// are bump-allocated from arenas — pointer-stable blocks of Node and of
// child slots, one arena per builder — and a block is sized for what it
// is about to hold: a fresh subtree's first block from the number of
// virtual servers in its region (two binary searches on the ring, 4.5
// nodes and as many child slots per VS), any other first block a handful
// of nodes, every later block a quarter of what the arena has allocated
// so far. Whatever of its last block a builder leaves unused goes on the
// tree's free list. Repair rewrites a node's child slice in place
// whenever the new child count fits its capacity, and the nodes and
// child slices a pass discards go on the free list too, from which later
// passes plant before they touch an arena; so under steady churn the
// heap is flat, and what a Repair allocates is proportional to what it
// changes, not to the tree. The free list never shrinks short of a full
// Build (which drops it with the old tree): a ring that halves keeps the
// nodes it shed for the ring that grows back.
//
// Stale holders. A *Node is valid for as long as the node is in the
// tree. A holder that keeps one across a Repair — a protocol round in
// flight while something else repairs the tree — may find it discarded
// (no longer reachable from Root or LeavesOf). A discarded node, its
// child slice and its discarded descendants stay exactly as that pass
// left them until the next pass that finds the ring changed begins; from
// then on the pointer may be handed out again as a different node
// anywhere in the tree. So following discarded nodes across one Repair
// reads a consistent, if outdated, subtree; across two it may read a
// live node somewhere else, and whoever may hold nodes that long must
// take them again from Root or LeavesOf. A surviving node's Host and Children change under
// its holders, as they always have. The test-only switch in
// internal/poison blanks nodes the moment they become reusable, which
// turns a too-long hold into a crash; TestNoReaderOfDiscardedNodes runs
// a round across a Repair under it.
//
// The tree is soft state, maintained incrementally: the tree subscribes
// to its ring as a chord.Listener and records the identifier arcs whose
// ownership changed (joins and departures; VS transfers move a virtual
// server between physical nodes without changing ownership, so they
// dirty nothing). Repair re-decomposes only the subtrees overlapping
// those dirty arcs and splices untouched subtrees back unchanged —
// exactly the paper's periodic per-node region checks, heartbeats and
// pruning, compressed into one deterministic sweep per maintenance
// round. A repair on a quiescent ring sends no messages at all.
//
// Build and the dirty portions of Repair shard across cores per subtree
// (internal/par): the decomposition only reads the ring through
// Successor — a pure binary search with no caches — and all message
// accounting and leaf bookkeeping are accumulated per worker and applied
// serially in deterministic task order, so the sharded sweep needs no
// randomness and produces bit-identical trees regardless of core count.
//
// Planting a KT node costs one DHT lookup; in this simulator the lookup
// is resolved against the consistent ring and charged an estimated
// O(log₂ V) hop cost (the chord package demonstrates routed lookups
// match this).
package ktree_test

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/par"
	"p2plb/internal/sim"
)

// Message kinds counted on the engine.
const (
	MsgPlant     = "ktree.plant"     // planting a KT node (one DHT lookup)
	MsgHeartbeat = "ktree.heartbeat" // parent probing a child during repair
)

// maxPendingArcs bounds the dirty-arc journal. Past this much churn a
// full rebuild is cheaper than tracking, so the journal overflows into
// a whole-tree repair.
const maxPendingArcs = 1 << 16

// Arena block sizes, in nodes and in child-pointer slots. An arena's
// first block is minNodeBlock nodes, or the one child slice asked for,
// unless its builder sized it from the virtual servers it is about to
// cover (nodesPerVS); every later block is a quarter of what the arena
// has allocated so far — the last block, the only one that can be partly
// unused, is at most a fifth of the arena — up to nodeChunk/childChunk.
const (
	minNodeBlock = 8
	nodeChunk    = 4096
	childChunk   = 8192
)

// nodesPerVS sizes a fresh subtree's first arena block: a region
// holding v virtual servers decomposes into about 4.3·v KT nodes (2.0
// internal), 4.1–4.7 across the subtree tasks of a 10k-VS ring, and as
// many child slots less one.
func nodesPerVS(v int) int { return v*9/2 + 1 }

// Node is one KT node.
type Node struct {
	Region   ident.Region   // responsible portion of the identifier space
	Key      ident.ID       // center of Region; the DHT key it is planted at
	Host     *chord.VServer // virtual server currently hosting this KT node
	Parent   *Node          // nil for the root
	Children []*Node        // nil for leaves; dense, >= 2 entries, tiling Region clockwise
	Depth    int            // root is 0
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Children == nil }

// Tree is the distributed K-nary tree over a ring.
type Tree struct {
	ring       *chord.Ring
	k          int
	root       *Node
	leavesByVS map[*chord.VServer][]*Node
	numNodes   int
	numLeaves  int
	depthCount []int // depthCount[d] = number of nodes at depth d

	// taskDepth is the depth at which Build/Repair hand subtrees to
	// parallel workers: shallow levels run serially, producing at most
	// ~k^taskDepth independent subtree tasks.
	taskDepth int

	// Dirty-arc journal fed by the ring listener callbacks. overflow
	// means the journal was dropped and the next Repair reconciles the
	// whole tree.
	pending  []ident.Region
	overflow bool

	// free holds what earlier Repair passes discarded; a pass draws from
	// it before touching an arena. What the latest pass discarded waits
	// in heldNodes/heldKids and joins free when the next pass begins.
	free      freeList
	heldNodes []*Node
	heldKids  [][]*Node
}

// New returns an unbuilt tree of branching factor k (k >= 2) over ring.
// The tree subscribes to the ring so that churn between repairs is
// tracked as dirty identifier arcs.
func New(ring *chord.Ring, k int) (*Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("ktree: branching factor %d < 2", k)
	}
	// Aim for ~256 parallel subtree tasks: the smallest d with k^d >= 256.
	d := 0
	for n := 1; n < 256; n *= k {
		d++
	}
	t := &Tree{
		ring:       ring,
		k:          k,
		taskDepth:  d,
		leavesByVS: make(map[*chord.VServer][]*Node),
	}
	ring.Subscribe(t)
	return t, nil
}

// K returns the branching factor.
func (t *Tree) K() int { return t.k }

// Root returns the KT root node (nil before Build).
func (t *Tree) Root() *Node { return t.root }

// NumNodes returns the number of KT nodes.
func (t *Tree) NumNodes() int { return t.numNodes }

// NumLeaves returns the number of KT leaf nodes.
func (t *Tree) NumLeaves() int { return t.numLeaves }

// Height returns the maximum depth of any node (root = 0).
func (t *Tree) Height() int {
	for d := len(t.depthCount) - 1; d >= 0; d-- {
		if t.depthCount[d] > 0 {
			return d
		}
	}
	return 0
}

// Ring returns the underlying ring.
func (t *Tree) Ring() *chord.Ring { return t.ring }

// LeavesOf returns the KT leaves planted in vs. The returned slice must
// not be modified.
func (t *Tree) LeavesOf(vs *chord.VServer) []*Node { return t.leavesByVS[vs] }

// VSAdded implements chord.Listener: a join changes ownership exactly on
// the new virtual server's region.
func (t *Tree) VSAdded(vs *chord.VServer) {
	if t.root == nil || t.overflow {
		return // unbuilt trees start from Build, which reconciles everything
	}
	t.markDirty(t.ring.RegionOf(vs))
}

// VSRemoved implements chord.Listener: a departure changes ownership
// exactly on the departed region, which the absorbing successor now
// owns. The successor's post-removal region is a superset of the
// departed arc, so marking it dirty is always safe.
func (t *Tree) VSRemoved(vs *chord.VServer) {
	if t.root == nil || t.overflow {
		return
	}
	succ := t.ring.Successor(vs.ID)
	if succ == nil {
		// Ring emptied out; the next Build/Repair handles it wholesale.
		t.overflow = true
		t.pending = nil
		return
	}
	t.markDirty(t.ring.RegionOf(succ))
}

// VSTransferred implements chord.Listener: moving a virtual server
// between physical nodes changes no key ownership, and Host pointers
// reference the VServer object itself, so the tree structure is
// untouched — nothing becomes dirty.
func (t *Tree) VSTransferred(vs *chord.VServer, from, to *chord.Node) {}

func (t *Tree) markDirty(r ident.Region) {
	if len(t.pending) >= maxPendingArcs {
		t.overflow = true
		t.pending = nil
		return
	}
	t.pending = append(t.pending, r)
}

// plantCost estimates the cost, in latency units, of the DHT lookup that
// plants a KT node: O(log₂ V) overlay hops.
func (t *Tree) plantCost() sim.Time {
	v := t.ring.NumVServers()
	if v < 2 {
		return 1
	}
	return sim.Time(math.Ceil(math.Log2(float64(v))))
}

// heartbeatCost is the latency of one parent→child probe.
func (t *Tree) heartbeatCost(parent, child *Node) sim.Time {
	return t.ring.Latency(parent.Host.Owner, child.Host.Owner) + 1
}

// EdgeLatency returns the one-way message latency between a node and its
// parent, used by the aggregation protocols running over the tree.
func (t *Tree) EdgeLatency(n *Node) sim.Time {
	if n.Parent == nil {
		return 0
	}
	return t.ring.Latency(n.Host.Owner, n.Parent.Host.Owner) + 1
}

// owner returns the virtual server owning id. Ring.Successor is a pure
// binary search (no position-cache writes), so owner is safe to call
// from parallel build workers.
func (t *Tree) owner(id ident.ID) *chord.VServer { return t.ring.Successor(id) }

// coveredBy returns the single virtual server owning every identifier
// of r, or nil if ownership is split. Ownership changes exactly at
// virtual-server identifiers (when more than one exists), so r is
// single-owner iff no VS identifier lies in r short of its last key —
// and Successor(r.Start) is the only candidate. When no boundary cuts
// r, that same successor owns all of it.
func (t *Tree) coveredBy(r ident.Region) *chord.VServer {
	first := t.owner(r.Start)
	if t.ring.NumVServers() > 1 && r.Width > 1 && r.Start.Dist(first.ID) < r.Width-1 {
		return nil
	}
	return first
}

// Build constructs the tree from scratch against the current ring state.
// Each planted node is charged one MsgPlant message. Rebuilding a built
// tree over a ring whose membership is frozen panics: a frozen ring
// promises readers mid-round that the tree under them stays put. Repair
// stays legal; a frozen ring's joins and leaves journal nothing for it.
func (t *Tree) Build() error {
	if t.root != nil && t.ring.MembershipFrozen() {
		panic("ktree: Build of a built tree over a ring whose membership is frozen")
	}
	return t.build()
}

func (t *Tree) build() error {
	if t.ring.NumVServers() == 0 {
		return fmt.Errorf("ktree: cannot build over an empty ring")
	}
	t.pending, t.overflow = nil, false
	t.root = nil
	t.free, t.heldNodes, t.heldKids = freeList{}, nil, nil
	t.leavesByVS = make(map[*chord.VServer][]*Node, t.ring.NumVServers())
	t.numNodes, t.numLeaves = 0, 0
	t.depthCount = t.depthCount[:0]

	b := t.newBuilder(nil)
	full := ident.Full()
	if host := t.coveredBy(full); host != nil {
		root := b.newLeaf(full, host, nil)
		t.root = root
	} else {
		root := b.newInternal(full, nil)
		t.root = root
		b.process(root, true, 0)
	}
	t.runTasks(b)
	t.apply(b)
	return nil
}

// Repair reconciles the tree with the current ring after membership or
// hosting changes. Only subtrees overlapping the dirty identifier arcs
// recorded since the last Build/Repair are re-decomposed; untouched
// subtrees are spliced back verbatim, so a repair on a quiescent ring
// makes no changes and sends no messages. Along dirty paths every
// surviving child is probed (one MsgHeartbeat, priced against the
// child's re-resolved current host) and every created or re-planted
// node is charged one MsgPlant. It returns the number of KT nodes
// planted, re-planted, or pruned.
func (t *Tree) Repair() (changes int, err error) {
	if t.ring.NumVServers() == 0 {
		return 0, fmt.Errorf("ktree: cannot repair over an empty ring")
	}
	if t.root == nil || t.overflow {
		if err := t.build(); err != nil {
			return 0, err
		}
		return t.numNodes, nil
	}
	dirty := newDirtySet(t.pending)
	t.pending = nil
	if dirty.empty() {
		return 0, nil
	}
	t.release()
	b := t.newBuilder(dirty)
	full := ident.Full()
	if host := t.coveredBy(full); host != nil {
		// The whole ring has a single owner: the tree is one root leaf.
		if t.root.IsLeaf() && t.root.Host == host {
			return 0, nil
		}
		old := t.root
		t.root = b.newLeaf(full, host, nil)
		b.discardSubtree(old)
	} else {
		if t.root.IsLeaf() {
			// Former single-VS ring grew: the root leaf becomes internal.
			b.removeLeaf(t.root)
			b.changes++ // the root is re-planted as an internal node
		}
		b.process(t.root, false, 0)
	}
	t.runTasks(b)
	return t.apply(b), nil
}

// Walk visits every node in depth-first preorder (clockwise child
// order).
func (t *Tree) Walk(visit func(*Node)) {
	if t.root == nil {
		return
	}
	var rec func(*Node)
	rec = func(n *Node) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.root)
}

// ---------------------------------------------------------------------
// Dirty-arc bookkeeping

// dirtySet is a sorted, disjoint set of linear identifier intervals
// [lo, hi) over [0, SpaceSize); wrap-around arcs are split in two.
type dirtySet struct {
	lo, hi []uint64
}

func newDirtySet(arcs []ident.Region) *dirtySet {
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for _, r := range arcs {
		if r.IsEmpty() {
			continue
		}
		lo := uint64(uint32(r.Start))
		hi := lo + r.Width
		if hi <= ident.SpaceSize {
			ivs = append(ivs, iv{lo, hi})
		} else {
			ivs = append(ivs, iv{lo, ident.SpaceSize}, iv{0, hi - ident.SpaceSize})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	d := &dirtySet{}
	for _, v := range ivs {
		if n := len(d.hi); n > 0 && v.lo <= d.hi[n-1] {
			if v.hi > d.hi[n-1] {
				d.hi[n-1] = v.hi
			}
			continue
		}
		d.lo = append(d.lo, v.lo)
		d.hi = append(d.hi, v.hi)
	}
	return d
}

func (d *dirtySet) empty() bool { return len(d.lo) == 0 }

func (d *dirtySet) overlapsLinear(lo, hi uint64) bool {
	i := sort.Search(len(d.hi), func(i int) bool { return d.hi[i] > lo })
	return i < len(d.lo) && d.lo[i] < hi
}

// count returns how many dirty intervals r overlaps (none for a nil set:
// a full rebuild has no free list to share out).
func (d *dirtySet) count(r ident.Region) int {
	if d == nil || r.IsEmpty() {
		return 0
	}
	lo := uint64(uint32(r.Start))
	hi := lo + r.Width
	n := 0
	if hi > ident.SpaceSize {
		n = d.countLinear(0, hi-ident.SpaceSize)
		hi = ident.SpaceSize
	}
	return n + d.countLinear(lo, hi)
}

func (d *dirtySet) countLinear(lo, hi uint64) int {
	first := sort.Search(len(d.hi), func(i int) bool { return d.hi[i] > lo })
	return sort.Search(len(d.lo), func(i int) bool { return d.lo[i] >= hi }) - first
}

// overlaps reports whether the region shares an identifier with any
// dirty interval. A nil set (full rebuild) is treated as all-dirty.
//
//lbvet:hotpath
func (d *dirtySet) overlaps(r ident.Region) bool {
	if d == nil {
		return true
	}
	if r.IsEmpty() || d.empty() {
		return false
	}
	lo := uint64(uint32(r.Start))
	hi := lo + r.Width
	if hi <= ident.SpaceSize {
		return d.overlapsLinear(lo, hi)
	}
	return d.overlapsLinear(lo, ident.SpaceSize) || d.overlapsLinear(0, hi-ident.SpaceSize)
}

// ---------------------------------------------------------------------
// Arenas and the free list

// arena bump-allocates nodes and child-pointer slices from blocks.
// Blocks never move, so *Node pointers are stable for the lifetime of
// the tree. Each builder (serial phase or parallel worker) owns one
// arena, so allocation takes no locks.
type arena struct {
	nodes []Node  // unused rest of the current node block
	kids  []*Node // unused rest of the current child-slot block

	// Size of the next block when a builder set it (a fresh subtree's
	// estimate); otherwise a quarter of nodeTotal/kidTotal, the slots
	// allocated so far.
	nodeNext, kidNext   int
	nodeTotal, kidTotal int
}

// blockSize returns the size of an arena's next block: want when the
// builder sized it, else a quarter of what the arena has allocated, at
// most chunk — and never below need.
func blockSize(want, total, chunk, need int) int {
	if want == 0 {
		want = min(total/4, chunk)
	}
	return max(want, need)
}

//lbvet:hotpath
func (a *arena) node() *Node {
	if len(a.nodes) == 0 {
		//lbvet:ignore hotalloc cold block refill: an arena refills O(log nodes) times, each block at least a quarter of everything before it
		a.nodes = make([]Node, blockSize(a.nodeNext, a.nodeTotal, nodeChunk, minNodeBlock))
		a.nodeTotal += len(a.nodes)
		a.nodeNext = 0
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	return n
}

// childSlice carves a zero-length slice with capacity n from the
// current child block.
//
//lbvet:hotpath
func (a *arena) childSlice(n int) []*Node {
	if len(a.kids) < n {
		//lbvet:ignore hotalloc cold block refill: an arena refills O(log slots) times, each block at least a quarter of everything before it
		a.kids = make([]*Node, blockSize(a.kidNext, a.kidTotal, childChunk, n))
		a.kidTotal += len(a.kids)
		a.kidNext = 0
	}
	s := a.kids[:0:n]
	a.kids = a.kids[n:]
	return s
}

// freeList is what Repair passes discarded and later passes reuse: whole
// nodes, and child slices by capacity. A pass only takes from it; what
// the pass itself discards is held back until the next pass begins
// (release), so a discarded node stays exactly as it was across one
// Repair (see the package comment on stale holders).
type freeList struct {
	nodes []*Node
	kids  [][][]*Node // kids[c] holds child slices of capacity c
}

// put adds a discarded child slice to its capacity class.
func (f *freeList) put(s []*Node) {
	for len(f.kids) <= cap(s) {
		f.kids = append(f.kids, nil)
	}
	f.kids[cap(s)] = append(f.kids[cap(s)], s[:0])
}

// share returns the run of a free-list stack that builder idx may take
// from. The runs are contiguous, in builder order, and as long as the
// builders' weights (cum holds their prefix sums), so what a parallel
// task is handed depends on its position in task order and never on
// scheduling. The serial builder is alone (cum is {0, 1}) and sees the
// whole stack.
func share[E any](stack []E, idx int, cum []int) []E {
	total := cum[len(cum)-1]
	return stack[len(stack)*cum[idx]/total : len(stack)*cum[idx+1]/total]
}

// settleStack removes from a stack what each builder took, from the end
// of its share, keeping the rest in order.
func settleStack[E any](stack []E, cum []int, took func(idx int) int) []E {
	w := 0
	for idx := 0; idx < len(cum)-1; idx++ {
		s := share(stack, idx, cum)
		w += copy(stack[w:], s[:len(s)-took(idx)])
	}
	clear(stack[w:])
	return stack[:w]
}

// settle removes from every stack what a pass's builders took; took
// holds one row per builder (nodes, then child slices by capacity).
func (f *freeList) settle(cum []int, took []int) {
	classes := len(took) / (len(cum) - 1)
	f.nodes = settleStack(f.nodes, cum, func(idx int) int { return took[idx*classes] })
	for c := 1; c < classes; c++ {
		f.kids[c] = settleStack(f.kids[c], cum, func(idx int) int { return took[idx*classes+c] })
	}
}

// ---------------------------------------------------------------------
// Builder: the shared Build/Repair machinery

// piece is one element of a region's compressed decomposition: a leaf
// (host != nil) or a subtree still straddling ownership boundaries.
type piece struct {
	region ident.Region
	host   *chord.VServer
}

// leafEvent interleaves serially created leaves with deferred subtree
// tasks so the final leavesByVS append order is the clockwise DFS
// order, independent of worker count.
type leafEvent struct {
	leaf *Node
	task int // valid when leaf == nil
}

// task is a subtree handed to a parallel worker: expand a fresh node,
// or repair an existing one.
type task struct {
	node  *Node
	fresh bool
}

// builder accumulates one Build/Repair pass's allocations, message
// tallies, and leaf bookkeeping. The serial phase uses one builder;
// each parallel subtree task gets its own, and the results merge in
// deterministic task order.
type builder struct {
	t     *Tree
	ar    arena
	dirty *dirtySet // nil during Build (nothing can be reused)

	// This builder's share of the tree's free list (see share) and how
	// much of it is gone: took[0] counts nodes, took[c] child slices of
	// capacity c (no child slice is shorter than two). freeNodes is
	// what is left of its share of the nodes.
	idx       int
	cum       []int
	took      []int
	freeNodes []*Node

	// tasks is non-nil only on the serial builder: subtrees rooted at
	// taskDepth are deferred here instead of recursed into.
	tasks []task

	plants  int64
	hbCount int64
	hbCost  sim.Time
	changes int

	nodesDelta  int
	leavesDelta int
	depthDelta  []int

	events     []leafEvent
	removed    []*Node       // leaves to unregister from leavesByVS
	freedNodes []*Node       // discarded nodes and unused arena nodes, bound for the free list
	freedKids  [][]*Node     // child slices of discarded or outgrown nodes, likewise
	taskLeaves [][]leafEvent // per-task leaf events, filled by runTasks

	// Depth-indexed scratch for decompose and materialize, so
	// steady-state decomposition allocates nothing.
	bufs  [][]piece
	olds  [][]*Node
	parts []ident.Region
	hosts []*chord.VServer
	right []piece
}

func (t *Tree) newBuilder(dirty *dirtySet) *builder {
	b := &builder{t: t, dirty: dirty, cum: []int{0, 1}, freeNodes: t.free.nodes}
	b.took = make([]int, max(1, len(t.free.kids)))
	b.tasks = make([]task, 0, 16)
	return b
}

// workerClone returns the builder for task idx; took is its row of the
// pass's tally.
func (b *builder) workerClone(idx int, cum, took []int) *builder {
	return &builder{t: b.t, dirty: b.dirty, idx: idx, cum: cum, took: took, freeNodes: share(b.t.free.nodes, idx, cum)}
}

// node returns a blank node: one an earlier pass discarded if this
// builder's share of the free list has any left, else a new one.
func (b *builder) node() *Node {
	last := len(b.freeNodes) - 1
	if last < 0 {
		return b.ar.node()
	}
	n := b.freeNodes[last]
	b.freeNodes = b.freeNodes[:last]
	b.took[0]++
	*n = Node{}
	return n
}

// childSlice returns an empty child slice of capacity at least n. One
// from the free list has exactly n and may still hold what its last
// owner left there; materialize fills every slot.
func (b *builder) childSlice(n int) []*Node {
	if n < len(b.took) {
		s := share(b.t.free.kids[n], b.idx, b.cum)
		if b.took[n] < len(s) {
			b.took[n]++
			return s[len(s)-b.took[n]]
		}
	}
	return b.ar.childSlice(n)
}

func (b *builder) bumpDepth(d, delta int) {
	for len(b.depthDelta) <= d {
		b.depthDelta = append(b.depthDelta, 0)
	}
	b.depthDelta[d] += delta
}

func (b *builder) newLeaf(r ident.Region, host *chord.VServer, parent *Node) *Node {
	n := b.node()
	n.Region, n.Key, n.Host, n.Parent = r, r.Center(), host, parent
	if parent != nil {
		n.Depth = parent.Depth + 1
	}
	b.plants++
	b.changes++
	b.nodesDelta++
	b.leavesDelta++
	b.bumpDepth(n.Depth, 1)
	b.events = append(b.events, leafEvent{leaf: n})
	return n
}

func (b *builder) newInternal(r ident.Region, parent *Node) *Node {
	n := b.node()
	n.Region, n.Key, n.Parent = r, r.Center(), parent
	n.Host = b.t.owner(n.Key)
	if parent != nil {
		n.Depth = parent.Depth + 1
	}
	b.plants++
	b.changes++
	b.nodesDelta++
	b.bumpDepth(n.Depth, 1)
	return n
}

func (b *builder) removeLeaf(n *Node) {
	b.leavesDelta--
	b.removed = append(b.removed, n)
}

// discard prunes one old node: it counts as one change, a leaf
// unregisters from leavesByVS, and the node and its child slice are
// bound for the free list. The node itself is left as it is.
func (b *builder) discard(n *Node) {
	b.changes++
	b.nodesDelta--
	b.bumpDepth(n.Depth, -1)
	b.freedNodes = append(b.freedNodes, n)
	if n.IsLeaf() {
		b.removeLeaf(n)
	} else {
		b.freedKids = append(b.freedKids, n.Children)
	}
}

// discardSubtree prunes an entire old subtree.
//
//lbvet:hotpath
func (b *builder) discardSubtree(n *Node) {
	b.discard(n)
	for _, c := range n.Children {
		b.discardSubtree(c)
	}
}

// schedule recurses into a subtree, or defers it as a parallel task
// when the serial phase reaches taskDepth.
func (b *builder) schedule(n *Node, fresh bool, lvl int) {
	if b.tasks != nil && n.Depth >= b.t.taskDepth {
		b.events = append(b.events, leafEvent{task: len(b.tasks)})
		b.tasks = append(b.tasks, task{node: n, fresh: fresh})
		return
	}
	b.process(n, fresh, lvl+1)
}

// process decomposes internal node n and (re)materializes its children.
// fresh marks nodes created during this pass, whose hosts are already
// current; for surviving nodes the host is re-resolved first (a change
// is a re-plant) and the parent's probe is priced against the current
// host (not the possibly departed pre-repair one).
func (b *builder) process(n *Node, fresh bool, lvl int) {
	if !fresh {
		if h := b.t.owner(n.Key); h != n.Host {
			n.Host = h
			b.plants++
			b.changes++
		}
		if n.Parent != nil {
			b.heartbeat(n.Parent, n)
		}
	}
	b.materialize(n, b.decompose(n.Region, lvl), lvl)
}

func (b *builder) heartbeat(parent, child *Node) {
	b.hbCount++
	b.hbCost += b.t.heartbeatCost(parent, child)
}

// scratch makes the depth-indexed buffers reach lvl and the per-split
// ones hold k entries; after a builder's first few calls it does
// nothing.
func (b *builder) scratch(lvl int) {
	for len(b.bufs) <= lvl {
		b.bufs = append(b.bufs, nil)
		b.olds = append(b.olds, nil)
	}
	if k := b.t.k; len(b.parts) < k {
		b.parts = make([]ident.Region, k)
		b.hosts = make([]*chord.VServer, k)
	}
}

// decompose computes the compressed child decomposition of a
// non-covered region: K-way splits descend directly through
// single-straddler levels (chain collapse), covered parts become leaf
// pieces, and adjacent same-host leaf pieces merge. The result tiles R
// clockwise and has at least two elements. The returned slice is
// per-recursion-level scratch, valid until the next decompose at the
// same level.
//
//lbvet:hotpath
func (b *builder) decompose(R ident.Region, lvl int) []piece {
	b.scratch(lvl)
	k := b.t.k
	out, right := b.bufs[lvl][:0], b.right[:0]
	cur := R
	for {
		parts := splitInto(cur, k, b.parts)
		ncIdx, ncCount := -1, 0
		for i, p := range parts {
			if p.IsEmpty() {
				b.hosts[i] = nil
				continue
			}
			b.hosts[i] = b.t.coveredBy(p)
			if b.hosts[i] == nil {
				ncCount++
				ncIdx = i
			}
		}
		// Chain collapse: a single straddling part materializes no KT
		// node — descend into it, keeping the covered side-parts as
		// leaves of the node being decomposed. The parts clockwise-after
		// it wait on a stack (outer levels lie clockwise-after inner
		// ones), pushed reversed and unwound reversed below.
		last := k
		if ncCount == 1 {
			last = ncIdx
			for i := k - 1; i > ncIdx; i-- {
				if !parts[i].IsEmpty() {
					//lbvet:ignore hotalloc builder scratch: reaches its high-water mark within a builder's first calls, then only reused
					right = append(right, piece{region: parts[i], host: b.hosts[i]})
				}
			}
		}
		for i := 0; i < last; i++ {
			if !parts[i].IsEmpty() {
				out = emit(out, piece{region: parts[i], host: b.hosts[i]})
			}
		}
		if ncCount != 1 {
			break
		}
		cur = parts[ncIdx]
	}
	for i := len(right) - 1; i >= 0; i-- {
		out = emit(out, right[i])
	}
	b.bufs[lvl], b.right = out, right
	return out
}

// emit appends p to a clockwise run of pieces, merging it into the last
// one when both are leaves of one host (internal pieces have nil hosts
// and never merge; the run tiles a region, so neighbors are adjacent).
//
//lbvet:hotpath
func emit(out []piece, p piece) []piece {
	if n := len(out); n > 0 && p.host != nil && out[n-1].host == p.host {
		out[n-1].region.Width += p.region.Width
		return out
	}
	//lbvet:ignore hotalloc builder scratch: reaches its high-water mark within a builder's first calls, then only reused
	return append(out, p)
}

// splitInto is Region.Split into a caller-provided buffer of k entries.
//
//lbvet:hotpath
func splitInto(r ident.Region, k int, out []ident.Region) []ident.Region {
	base := r.Width / uint64(k)
	rem := r.Width % uint64(k)
	start := r.Start
	for i := 0; i < k; i++ {
		w := base
		if uint64(i) < rem {
			w++
		}
		out[i] = ident.Region{Start: start, Width: w}
		start = start.Add(w)
	}
	return out[:k]
}

// materialize builds n's child list from pieces, reusing old children
// that survive unchanged: a leaf with identical region and host, or an
// internal child with identical region (spliced back whole if its
// region is clean, repaired in place if dirty). Old children with no
// surviving counterpart are discarded. Reuse matches by region start in
// a single merge scan — both lists tile n.Region clockwise. The new list
// is written over the old one when it fits its capacity; the scan reads
// a copy, because its write index can overtake its read index.
func (b *builder) materialize(n *Node, pieces []piece, lvl int) {
	old := append(b.olds[lvl][:0], n.Children...)
	b.olds[lvl] = old
	kids := n.Children[:0]
	if len(pieces) > cap(kids) {
		kids = b.childSlice(len(pieces))
		if n.Children != nil {
			b.freedKids = append(b.freedKids, n.Children)
		}
	}
	base := n.Region.Start
	j := 0
	for _, p := range pieces {
		off := base.Dist(p.region.Start)
		for j < len(old) && base.Dist(old[j].Region.Start) < off {
			b.discardSubtree(old[j])
			j++
		}
		var c *Node
		if j < len(old) && base.Dist(old[j].Region.Start) == off {
			oc := old[j]
			switch {
			case p.host != nil && oc.IsLeaf() && oc.Region == p.region && oc.Host == p.host:
				c = oc
				j++
				b.heartbeat(n, c)
			case p.host == nil && !oc.IsLeaf() && oc.Region == p.region:
				c = oc
				j++
				if b.dirty.overlaps(p.region) {
					b.schedule(c, false, lvl)
				} else {
					// Clean subtree: splice back whole; its own probe
					// still happens (the parent checks it is alive).
					b.heartbeat(n, c)
				}
			}
		}
		if c == nil {
			if p.host != nil {
				c = b.newLeaf(p.region, p.host, n)
			} else {
				c = b.newInternal(p.region, n)
				b.schedule(c, true, lvl)
			}
		}
		kids = append(kids, c)
	}
	for ; j < len(old); j++ {
		b.discardSubtree(old[j])
	}
	if len(kids) < len(old) {
		clear(kids[len(kids):len(old)]) // written in place and shorter: drop the old tail
	}
	n.Children = kids
}

// runTasks executes the deferred subtree tasks across cores and merges
// each worker's tallies into the serial builder in task order, so the
// result is independent of scheduling and worker count. The free list
// is settled the same way: first for what the serial phase took, then —
// shared out among the tasks by how many dirty arcs each must reconcile,
// the best cheap guess at what it will plant — for what the tasks took.
func (t *Tree) runTasks(b *builder) {
	b.releaseArena()
	t.free.settle(b.cum, b.took)
	b.taskLeaves = nil
	if len(b.tasks) == 0 {
		return
	}
	classes, of := len(b.took), len(b.tasks)
	took := make([]int, classes*of)
	cum := make([]int, of+1)
	for i, tk := range b.tasks {
		cum[i+1] = cum[i] + 1 + b.dirty.count(tk.node.Region)
	}
	workers := make([]*builder, of)
	par.For(of, 0, func(idx int) {
		tk := b.tasks[idx]
		wb := b.workerClone(idx, cum, took[idx*classes:(idx+1)*classes])
		if tk.fresh {
			// A new subtree: size the arena from the virtual servers it
			// covers, so its one block is mostly filled.
			wb.ar.nodeNext = nodesPerVS(t.ring.NumVServersIn(tk.node.Region))
			wb.ar.kidNext = wb.ar.nodeNext
		}
		wb.process(tk.node, tk.fresh, 0)
		wb.releaseArena()
		workers[idx] = wb
	})
	t.free.settle(cum, took)
	b.taskLeaves = make([][]leafEvent, len(workers))
	for i, wb := range workers {
		b.plants += wb.plants
		b.hbCount += wb.hbCount
		b.hbCost += wb.hbCost
		b.changes += wb.changes
		b.nodesDelta += wb.nodesDelta
		b.leavesDelta += wb.leavesDelta
		for d, delta := range wb.depthDelta {
			if delta != 0 {
				b.bumpDepth(d, delta)
			}
		}
		b.removed = append(b.removed, wb.removed...)
		b.freedNodes = append(b.freedNodes, wb.freedNodes...)
		b.freedKids = append(b.freedKids, wb.freedKids...)
		b.taskLeaves[i] = wb.events
	}
}

// releaseArena hands what a finished builder's arena did not use to the
// free list — the nodes one by one, the child slots as pairs, the size
// most in demand — so no block is ever partly lost.
func (b *builder) releaseArena() {
	for i := range b.ar.nodes {
		b.freedNodes = append(b.freedNodes, &b.ar.nodes[i])
	}
	for len(b.ar.kids) >= 2 {
		n := 2
		if len(b.ar.kids) == 3 {
			n = 3
		}
		b.freedKids = append(b.freedKids, b.ar.childSlice(n))
	}
	b.ar = arena{}
}

// apply commits a finished pass: engine message tallies, node/leaf
// counters, and the leavesByVS updates (removals first, then additions
// in clockwise DFS order); what the pass discarded is held for the next
// pass to release. It returns the pass's change count.
func (t *Tree) apply(b *builder) int {
	eng := t.ring.Engine()
	if b.plants > 0 {
		eng.CountMessageN(MsgPlant, b.plants, sim.Time(b.plants)*t.plantCost())
	}
	if b.hbCount > 0 {
		eng.CountMessageN(MsgHeartbeat, b.hbCount, b.hbCost)
	}
	t.numNodes += b.nodesDelta
	t.numLeaves += b.leavesDelta
	for d, delta := range b.depthDelta {
		for len(t.depthCount) <= d {
			t.depthCount = append(t.depthCount, 0)
		}
		t.depthCount[d] += delta
	}
	for _, n := range b.removed {
		t.unregisterLeaf(n)
	}
	var add func(evs []leafEvent)
	add = func(evs []leafEvent) {
		for _, ev := range evs {
			if ev.leaf != nil {
				t.leavesByVS[ev.leaf.Host] = append(t.leavesByVS[ev.leaf.Host], ev.leaf)
				continue
			}
			if b.taskLeaves != nil {
				add(b.taskLeaves[ev.task])
			}
		}
	}
	add(b.events)
	t.heldNodes, t.heldKids = b.freedNodes, b.freedKids
	return b.changes
}

// release puts what the previous pass discarded on the free list; until
// now those nodes and child slices were exactly as that pass left them.
func (t *Tree) release() {
	for _, s := range t.heldKids {
		if poison.Freed {
			clear(s[:cap(s)])
		}
		t.free.put(s)
	}
	if poison.Freed {
		for _, n := range t.heldNodes {
			*n = Node{}
		}
	}
	t.free.nodes = append(t.free.nodes, t.heldNodes...)
	t.heldNodes, t.heldKids = nil, nil
}

// unregisterLeaf removes n from its host's leaf list, leaving no
// reference to it in the list's backing array.
func (t *Tree) unregisterLeaf(n *Node) {
	leaves := t.leavesByVS[n.Host]
	if i := slices.Index(leaves, n); i >= 0 {
		leaves = slices.Delete(leaves, i, i+1)
	}
	if len(leaves) == 0 {
		delete(t.leavesByVS, n.Host)
	} else {
		t.leavesByVS[n.Host] = leaves
	}
}

// CheckInvariants panics if the tree violates its structural
// invariants: the root covers the full space, children are dense,
// partition their parent's region clockwise and are at least two, no
// adjacent sibling leaves share a host (they would have merged), every
// leaf is covered by its host's region, every node's host owns its key,
// internal regions straddle an ownership boundary, leaf bookkeeping and
// the node/leaf/height counters match the tree, and every live virtual
// server hosts at least one leaf.
func (t *Tree) CheckInvariants() {
	if t.root == nil {
		panic("ktree: no root")
	}
	if !t.root.Region.IsFull() {
		panic("ktree: root does not cover the identifier space")
	}
	leaves, nodes, height := 0, 0, 0
	depths := map[int]int{}
	t.Walk(func(n *Node) {
		nodes++
		depths[n.Depth]++
		if n.Depth > height {
			height = n.Depth
		}
		if n.Key != n.Region.Center() {
			panic("ktree: key is not the region center")
		}
		if t.ring.Successor(n.Key) != n.Host {
			panic("ktree: host does not own the node's key")
		}
		covered := t.ring.RegionOf(n.Host).Covers(n.Region)
		if n.IsLeaf() {
			leaves++
			if !covered {
				panic(fmt.Sprintf("ktree: leaf region %v not covered by host region %v",
					n.Region, t.ring.RegionOf(n.Host)))
			}
			found := false
			for _, l := range t.leavesByVS[n.Host] {
				if l == n {
					found = true
					break
				}
			}
			if !found {
				panic("ktree: leaf missing from leavesByVS")
			}
			return
		}
		if covered {
			panic(fmt.Sprintf("ktree: internal node %v is coverable and should be a leaf", n.Region))
		}
		if len(n.Children) < 2 {
			panic("ktree: internal node with fewer than two children")
		}
		at := n.Region.Start
		var total uint64
		for i, c := range n.Children {
			if c == nil {
				panic("ktree: nil child slot")
			}
			if c.Region.Start != at {
				panic("ktree: children do not tile parent region")
			}
			if c.Parent != n || c.Depth != n.Depth+1 {
				panic("ktree: child linkage wrong")
			}
			if i > 0 && c.IsLeaf() && n.Children[i-1].IsLeaf() && c.Host == n.Children[i-1].Host {
				panic("ktree: unmerged adjacent sibling leaves with one host")
			}
			at = c.Region.End()
			total += c.Region.Width
		}
		if total != n.Region.Width {
			panic("ktree: child widths do not sum to parent width")
		}
	})
	if nodes != t.numNodes || leaves != t.numLeaves || height != t.Height() {
		panic(fmt.Sprintf("ktree: bookkeeping mismatch nodes %d/%d leaves %d/%d height %d/%d",
			nodes, t.numNodes, leaves, t.numLeaves, height, t.Height()))
	}
	for d, c := range depths {
		if t.depthCount[d] != c {
			panic(fmt.Sprintf("ktree: depth histogram mismatch at depth %d: %d != %d", d, t.depthCount[d], c))
		}
	}
	registered := 0
	for _, vsLeaves := range t.leavesByVS {
		registered += len(vsLeaves)
	}
	if registered != t.numLeaves {
		panic(fmt.Sprintf("ktree: leavesByVS registers %d leaves, tree has %d", registered, t.numLeaves))
	}
	for _, vs := range t.ring.VServers() {
		if len(t.leavesByVS[vs]) == 0 {
			panic(fmt.Sprintf("ktree: virtual server %s hosts no leaf", vs.ID))
		}
	}
}
