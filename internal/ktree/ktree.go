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
// Together they turn a region holding a single ownership boundary x
// into exactly two leaves, [start, x] and the rest; the decomposition
// emits those at once instead of descending to them.
//
// The children of an internal node tile its region in clockwise order;
// because of the compressions a node can have more than K children, but
// never fewer than two. Leaves still tile the identifier circle and a
// leaf's region always lies inside its hosting virtual server's region,
// so every virtual server hosts at least one leaf — the property the
// reporting protocols rely on ("it is guaranteed that a KT leaf node
// will be planted in each virtual server").
//
// Memory. The tree is one table of 48-byte records addressed by Handle —
// region, key, the host's chord.VServer.Slot, parent, first child, next
// sibling, child count, depth and generation — beside one array of host
// pointers in the same slots, and a leaf list per chord.VServer.Slot.
// The records hold no pointer, so the garbage collector never scans the
// table and copying a record pays no write barrier; the host array is
// written only where a record is planted or re-planted. Build grows the
// table once, by the count of what it will plant, and writes each record
// where it stays. Repair relinks surviving children in place and plants
// in the slots earlier passes freed (one stack, which only Build drops)
// before it grows the table, so a Repair allocates what it changes.
//
// Stale holders. A Handle carries the generation its slot had when it
// was taken. A holder that keeps one across a Repair may find the node
// discarded. A discarded node's record and host stay as that pass left
// them until the next pass that finds the ring changed begins; then the
// slot is freed, and its generation with it. So a handle held across
// one Repair reads a consistent, if outdated, subtree, whose hosts may
// have left the ring (a joiner that reuses a departed host's
// chord.VServer.Slot does not replace it); across two, Follow reports
// it stale and counts it (StaleFollows). Holders check Follow where a
// handle crosses an engine event; synchronous sweeps need not. A
// surviving node's host and children change under its holders.
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
// (internal/par), reading only the ring's ID-sorted virtual servers.
// Each subtree task stages what it plants and tallies; the merge gives
// staged records their slots in task order, free stack first, so trees
// are bit-identical, down to the handles, at any core count. A fresh
// task counts its nodes first; in a Build every task is fresh and no
// slot is free, so each stages straight into the window of the table
// its slots will be.
//
// Planting a KT node costs one DHT lookup, resolved against the
// consistent ring and charged an estimated O(log₂ V) hops (the chord
// package shows routed lookups match this).
package ktree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

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

// nilRef is an absent link: no parent, first child or next sibling.
const nilRef int32 = -1

// maxDepth bounds a node's depth: every split at least halves a region,
// and a region of one identifier is a leaf.
const maxDepth = ident.Bits

// Handle names one KT node: its slot in the tree's record table and the
// slot's generation when the handle was taken. The zero Handle names no
// node.
type Handle struct {
	i   int32
	gen uint32
}

// Index returns h's slot, below HandleBound: per-node state can live in
// a slice indexed by it.
func (h Handle) Index() int { return int(h.i) }

// IsNil reports whether h names no node.
func (h Handle) IsNil() bool { return h.gen == 0 }

// rec is one KT node's record; a free slot's has gen 0. It holds no
// pointer (TestRecordHoldsNoPointers): its host is Tree.hosts at the
// same index, and slot is that host's chord.VServer.Slot, which a
// virtual server keeps after it leaves. A record a worker stages has no
// generation yet; until adopt stamps one, gen holds the ring position
// of its host.
type rec struct {
	region              ident.Region
	key                 ident.ID
	slot                int32
	parent, first, next int32
	kids, depth         int32
	gen                 uint32
}

// leafList is the leaves of the virtual server vs, in the entry its
// Slot names; it answers only for vs.
type leafList struct {
	vs *chord.VServer
	hs []Handle
}

// Tree is the distributed K-nary tree over a ring.
type Tree struct {
	ring       *chord.Ring
	k          int
	recs       []rec
	hosts      []*chord.VServer // hosts[i] is the host recs[i] was last planted in
	root       int32
	leaves     []leafList // by chord.VServer.Slot
	numLeaves  int
	depthCount [maxDepth + 1]int // depthCount[d] = number of nodes at depth d

	// taskDepth is the depth at which Build/Repair hand subtrees to
	// parallel workers: shallow levels run serially, producing at most
	// ~k^taskDepth independent subtree tasks.
	taskDepth int

	// Dirty-arc journal fed by the ring listener callbacks; on overflow
	// it is dropped and the next Repair reconciles the whole tree.
	pending  []ident.Region
	overflow bool

	// free holds the slots earlier passes discarded; what the latest
	// pass discarded waits in held until the next pass begins.
	free, held []int32
	gen        uint32 // the last generation handed out
	stale      atomic.Int64
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
	t := &Tree{ring: ring, k: k, taskDepth: d, root: nilRef}
	ring.Subscribe(t)
	return t, nil
}

// handle returns the handle of slot i, or the zero Handle for nilRef.
func (t *Tree) handle(i int32) Handle {
	if i == nilRef {
		return Handle{}
	}
	return Handle{i: i, gen: t.recs[i].gen}
}

// Root returns the KT root node (the zero Handle before Build).
func (t *Tree) Root() Handle { return t.handle(t.root) }

// Region returns h's region; its center is the key h is planted at.
func (t *Tree) Region(h Handle) ident.Region { return t.recs[h.i].region }

// Host returns the virtual server currently hosting h.
func (t *Tree) Host(h Handle) *chord.VServer { return t.hosts[h.i] }

// Depth returns h's depth; the root is 0.
func (t *Tree) Depth(h Handle) int { return int(t.recs[h.i].depth) }

// Parent returns h's parent, the zero Handle for the root.
func (t *Tree) Parent(h Handle) Handle { return t.handle(t.recs[h.i].parent) }

// FirstChild returns h's first child clockwise; zero for a leaf.
func (t *Tree) FirstChild(h Handle) Handle { return t.handle(t.recs[h.i].first) }

// NextSibling returns the sibling clockwise after h; zero for the last.
func (t *Tree) NextSibling(h Handle) Handle { return t.handle(t.recs[h.i].next) }

// NumChildren returns how many children h has: 0 for a leaf, else >= 2.
func (t *Tree) NumChildren(h Handle) int { return int(t.recs[h.i].kids) }

// IsLeaf reports whether h is a leaf.
func (t *Tree) IsLeaf(h Handle) bool { return t.recs[h.i].first == nilRef }

// HandleBound bounds the slots the tree's handles name; Repair can raise it.
func (t *Tree) HandleBound() int { return len(t.recs) }

// Follow reports whether h still names the node it was taken for (in
// the tree, or discarded by the latest pass). A stale handle is counted
// and must not be read through.
func (t *Tree) Follow(h Handle) bool {
	if int(h.i) < len(t.recs) && t.recs[h.i].gen == h.gen {
		return true
	}
	t.stale.Add(1)
	return false
}

// StaleFollows returns how many times Follow has found a stale handle.
func (t *Tree) StaleFollows() int64 { return t.stale.Load() }

// NumNodes returns the number of KT nodes: the slots neither free nor held.
func (t *Tree) NumNodes() int { return len(t.recs) - len(t.free) - len(t.held) }

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

// LeavesOf returns the KT leaves planted in vs: those that survived
// every Repair since they were planted, in their order, then newer ones
// in clockwise order. The returned slice must not be modified.
func (t *Tree) LeavesOf(vs *chord.VServer) []Handle {
	if s := vs.Slot(); s < len(t.leaves) && t.leaves[s].vs == vs {
		return t.leaves[s].hs
	}
	return nil
}

// VSAdded implements chord.Listener: a join changes ownership exactly on
// the new virtual server's region.
func (t *Tree) VSAdded(vs *chord.VServer) {
	if t.root == nilRef || t.overflow {
		return // unbuilt trees start from Build, which reconciles everything
	}
	t.markDirty(t.ring.RegionOf(vs))
}

// VSRemoved implements chord.Listener: a departure changes ownership
// exactly on the departed region, which the absorbing successor now
// owns. The successor's post-removal region is a superset of the
// departed arc, so marking it dirty is always safe.
func (t *Tree) VSRemoved(vs *chord.VServer) {
	if t.root == nilRef || t.overflow {
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

// VSTransferred implements chord.Listener: a transfer changes no key
// ownership, and hosts are the VServers themselves, so nothing is dirty.
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

// EdgeLatency returns the one-way message latency between a node and its
// parent, used by the aggregation protocols running over the tree.
func (t *Tree) EdgeLatency(h Handle) sim.Time {
	r := &t.recs[h.i]
	if r.parent == nilRef {
		return 0
	}
	return t.ring.Latency(t.hosts[h.i].Owner, t.hosts[r.parent].Owner) + 1
}

// Build constructs the tree from scratch against the current ring state.
// Each planted node is charged one MsgPlant message. Rebuilding a built
// tree over a ring whose membership is frozen panics: a frozen ring
// promises readers mid-round that the tree under them stays put. Repair
// stays legal; a frozen ring's joins and leaves journal nothing for it.
func (t *Tree) Build() error {
	if t.root != nilRef && t.ring.MembershipFrozen() {
		panic("ktree: Build of a built tree over a ring whose membership is frozen")
	}
	return t.build()
}

func (t *Tree) build() error {
	if t.ring.NumVServers() == 0 {
		return fmt.Errorf("ktree: cannot build over an empty ring")
	}
	t.pending, t.overflow = nil, false
	// Every slot is planted again under a new generation, so handles
	// into the old tree read as stale.
	clear(t.hosts) // no departed virtual server stays reachable past the new tree's end
	t.recs, t.hosts, t.free, t.held = t.recs[:0], t.hosts[:0], nil, nil
	t.depthCount = [maxDepth + 1]int{}

	b := t.newBuilder(nil)
	full := piece{region: ident.Full(), hi: len(b.vss)}
	full.host = b.coveredBy(full.region, 0)
	t.root = b.plant(full, nilRef)
	if full.host < 0 {
		b.process(t.root, true, 0, len(b.vss), 0)
	}
	serial := len(b.leaves)
	t.runTasks(b)
	t.mergeLeaves(b.leaves, serial)
	t.apply(b)
	return nil
}

// mergeLeaves puts a Build's new leaves in clockwise order: the serial
// phase's, leaves[:serial], and after them the workers', which run
// clockwise already (each worker plants its subtree depth-first and the
// tasks are in clockwise order). The few serial leaves are merged into
// the workers' run in place; the leaves tile the circle from identifier
// 0, so their starts order them.
func (t *Tree) mergeLeaves(leaves []int32, serial int) {
	head := slices.Clone(leaves[:serial])
	slices.SortFunc(head, t.byStart)
	rest := leaves[serial:]
	k, j := 0, 0
	for _, i := range head {
		for ; j < len(rest) && t.byStart(rest[j], i) < 0; j++ {
			leaves[k] = rest[j] // k < serial+j: the write stays behind the read
			k++
		}
		leaves[k] = i
		k++
	}
	// rest[j:] is already in place, at leaves[k:].
}

// byStart orders records x and y by region start.
func (t *Tree) byStart(x, y int32) int {
	return ident.Compare(t.recs[x].region.Start, t.recs[y].region.Start)
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
	if t.root == nilRef || t.overflow {
		if err := t.build(); err != nil {
			return 0, err
		}
		return t.NumNodes(), nil
	}
	dirty := newDirtySet(t.pending)
	t.pending = nil
	if dirty.empty() {
		return 0, nil
	}
	t.release()
	b := t.newBuilder(dirty)
	root := t.recs[t.root]
	if host := b.coveredBy(root.region, 0); host >= 0 {
		// The whole ring has a single owner: the tree is one root leaf.
		if root.first == nilRef && t.hosts[t.root] == b.vss[host] {
			return 0, nil
		}
		old := t.root
		t.root = b.plant(piece{region: root.region, host: host}, nilRef)
		b.discard(old)
	} else {
		if root.first == nilRef {
			// Former single-VS ring grew: the root leaf is re-planted as
			// an internal node. It leaves its host's list now, before
			// process re-resolves the host.
			t.unregisterLeaf(t.root)
			b.changes++
		}
		b.process(t.root, false, 0, len(b.vss), 0)
	}
	t.runTasks(b)
	return t.apply(b), nil
}

// Walk visits every node in depth-first preorder (clockwise child
// order).
func (t *Tree) Walk(visit func(Handle)) {
	if t.root == nilRef {
		return
	}
	var rec func(i int32)
	rec = func(i int32) {
		visit(t.handle(i))
		for c := t.recs[i].first; c != nilRef; c = t.recs[c].next {
			rec(c)
		}
	}
	rec(t.root)
}

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
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi)) })
	d := &dirtySet{}
	for _, v := range ivs {
		if n := len(d.hi); n > 0 && v.lo <= d.hi[n-1] {
			d.hi[n-1] = max(d.hi[n-1], v.hi)
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

// take puts a new record, planted in host, in the table under a new
// generation: in the slot most recently freed, else in a new one at the
// end.
func (t *Tree) take(r rec, host *chord.VServer) int32 {
	r.gen = t.nextGen()
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.recs[i], t.hosts[i] = r, host
		return i
	}
	t.recs = append(t.recs, r)
	t.hosts = append(t.hosts, host)
	return int32(len(t.recs) - 1)
}

// nextGen hands out a new generation.
func (t *Tree) nextGen() uint32 {
	t.gen++
	if t.gen == 0 {
		t.gen = 1 // 0 marks a free slot
	}
	return t.gen
}

// release frees what the previous pass discarded; until now those
// records were exactly as that pass left them.
func (t *Tree) release() {
	for _, i := range t.held {
		t.recs[i].gen = 0
	}
	t.free = append(t.free, t.held...)
	t.held = nil
}

// piece is one element of a region's compressed decomposition: a leaf
// of the virtual server at ring position host, or (host < 0) a subtree
// whose owners lie at ring positions [lo, hi]. It names its host by
// position, so decomposing writes no pointer.
type piece struct {
	region ident.Region
	host   int
	lo, hi int
}

// task is a subtree handed to a parallel worker: expand a fresh node,
// or repair an existing one.
type task struct {
	n      int32
	fresh  bool
	lo, hi int
}

// builder accumulates one Build/Repair pass's plants, discards and
// tallies. The serial phase's builder plants straight into the table; a
// parallel subtree task's (a worker's) stages what it plants. A ref
// names a table slot (>= 0), nilRef, or staged record j as -2-j.
type builder struct {
	t     *Tree
	vss   []*chord.VServer // the ring's virtual servers, sorted by ID
	dirty *dirtySet        // nil during Build (nothing can be reused)

	// tasks is non-nil only on the serial builder: subtrees rooted at
	// taskDepth are deferred here instead of recursed into.
	tasks []task

	// A worker's new records, and the table slots whose links it set
	// and which may therefore name one. A fresh task counts what it will
	// plant first (count), and its stage has room for exactly that.
	staged           []rec
	patched          []int32
	want, wantLeaves int

	plants     int64
	hbCount    int64
	hbCost     sim.Time
	changes    int
	depthDelta [maxDepth + 1]int

	leaves  []int32 // new leaves
	removed []int32 // discarded leaves, to leave their hosts' lists
	freed   []int32 // discarded slots, bound for the free stack

	// Depth-indexed and per-split scratch for decompose, so
	// steady-state decomposition allocates nothing.
	bufs  [][]piece
	parts []ident.Region
	hosts []int
	pos   []int
	right []piece
}

func (t *Tree) newBuilder(dirty *dirtySet) *builder {
	return &builder{t: t, vss: t.ring.VServers(), dirty: dirty, tasks: make([]task, 0, 16)}
}

// at returns the record ref names, valid until the builder plants again.
func (b *builder) at(ref int32) *rec {
	if ref >= 0 {
		return &b.t.recs[ref]
	}
	return &b.staged[-2-ref]
}

// host returns the virtual server the record ref names is planted in.
func (b *builder) host(ref int32) *chord.VServer {
	if ref >= 0 {
		return b.t.hosts[ref]
	}
	return b.vss[b.staged[-2-ref].gen] // a staged record's gen is its host's position
}

// plant adds a new node for piece p under parent (nilRef for the root):
// a leaf of p.host, or, when p.host < 0, an internal node planted in
// the owner of its region's center.
func (b *builder) plant(p piece, parent int32) int32 {
	r := rec{region: p.region, key: p.region.Center(), parent: parent, first: nilRef, next: nilRef}
	at := p.host
	if at < 0 {
		at = b.search(r.key, p.lo, p.hi) % len(b.vss)
	}
	r.slot = int32(b.vss[at].Slot())
	if parent != nilRef {
		r.depth = b.at(parent).depth + 1
	}
	b.plants++
	b.changes++
	b.depthDelta[r.depth]++
	var n int32
	if b.tasks == nil {
		r.gen = uint32(at)
		b.staged = append(b.staged, r)
		n = -1 - int32(len(b.staged))
	} else {
		n = b.t.take(r, b.vss[at])
	}
	if p.host >= 0 {
		b.leaves = append(b.leaves, n)
	}
	return n
}

// search returns the ring position of id's owner, known to lie in
// [lo, hi]: the first virtual server at or past id, len(vss) past them
// all (the owner is then vss[0]). A split searches only the range of
// positions its parent's region spans.
//
//lbvet:hotpath
func (b *builder) search(id ident.ID, lo, hi int) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ident.Less(b.vss[m].ID, id) { // the owner wraps at len(vss)
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// owner returns the virtual server at ring position p.
func (b *builder) owner(p int) *chord.VServer { return b.vss[p%len(b.vss)] }

// coveredBy returns the ring position, below len(vss), of the single
// virtual server owning every identifier of r, or -1 if ownership is
// split; p is the ring position of r.Start's owner, the only candidate.
// Ownership changes exactly at virtual-server identifiers (when more
// than one exists), so r is single-owner iff no VS identifier lies in r
// short of its last key.
func (b *builder) coveredBy(r ident.Region, p int) int {
	p %= len(b.vss)
	if len(b.vss) > 1 && r.Width > 1 && r.Start.Dist(b.vss[p].ID) < r.Width-1 {
		return -1
	}
	return p
}

// discard prunes an old subtree: each node counts as one change, a leaf
// leaves its host's list, and the slots are bound for the free stack.
// The records are left as they are.
func (b *builder) discard(n int32) {
	r := &b.t.recs[n]
	b.changes++
	b.depthDelta[r.depth]--
	b.freed = append(b.freed, n)
	if r.first == nilRef {
		b.removed = append(b.removed, n)
	}
	for c := r.first; c != nilRef; c = b.t.recs[c].next {
		b.discard(c)
	}
}

// schedule recurses into a subtree, or defers it as a parallel task
// when the serial phase reaches taskDepth.
func (b *builder) schedule(n int32, fresh bool, lo, hi, lvl int) {
	if b.tasks != nil && int(b.at(n).depth) >= b.t.taskDepth {
		b.tasks = append(b.tasks, task{n: n, fresh: fresh, lo: lo, hi: hi})
		return
	}
	b.process(n, fresh, lo, hi, lvl+1)
}

// process decomposes internal node n, whose owners lie at ring
// positions [lo, hi], and (re)materializes its children. A surviving
// (not fresh) node, always a table slot, has its host re-resolved first
// — a change is a re-plant — so the parent's probe is priced against
// the current host.
func (b *builder) process(n int32, fresh bool, lo, hi, lvl int) {
	if !fresh {
		r := b.at(n)
		if h := b.owner(b.search(r.key, lo, hi)); h != b.t.hosts[n] {
			b.t.hosts[n], r.slot = h, int32(h.Slot())
			b.plants++
			b.changes++
		}
		if r.parent != nilRef {
			b.heartbeat(r.parent, n)
		}
	}
	b.materialize(n, b.decompose(b.at(n).region, lo, hi, lvl), lvl)
}

func (b *builder) heartbeat(parent, child int32) {
	b.hbCount++
	b.hbCost += b.t.ring.Latency(b.host(parent).Owner, b.host(child).Owner) + 1
}

// decompose computes the compressed child decomposition of a
// non-covered region whose owners lie at ring positions [lo, hi]: K-way
// splits descend directly through single-straddler levels (chain
// collapse), covered parts become leaf pieces, and adjacent same-host
// leaf pieces merge. The result tiles R clockwise and has at least two
// elements. The returned slice is per-recursion-level scratch, valid
// until the next decompose at the same level.
//
//lbvet:hotpath
func (b *builder) decompose(R ident.Region, lo, hi, lvl int) []piece {
	k := b.t.k
	for len(b.bufs) <= lvl {
		//lbvet:ignore hotalloc builder scratch: reaches its high-water mark within a builder's first calls, then only reused
		b.bufs = append(b.bufs, nil)
	}
	if len(b.parts) < k {
		//lbvet:ignore hotalloc builder scratch: made on a builder's first call, then only reused
		b.parts, b.hosts, b.pos = make([]ident.Region, k), make([]int, k), make([]int, k+1)
	}
	out, right, pos := b.bufs[lvl][:0], b.right[:0], b.pos
	cur := R
	for {
		if b.lone(cur, lo, hi) {
			// One ownership boundary, at x, the ID at position lo: every
			// split below keeps it in one part and leaves the others
			// covered, and what the chain emits merges into two leaves,
			// [cur.Start, x] of lo's and the rest of (lo+1)'s.
			left := ident.Region{Start: cur.Start, Width: cur.Start.Dist(b.vss[lo].ID) + 1}
			out = emit(out, piece{region: left, host: lo})
			out = emit(out, piece{region: ident.Region{Start: left.End(), Width: cur.Width - left.Width}, host: (lo + 1) % len(b.vss)})
			break
		}
		parts := splitInto(cur, k, b.parts)
		// pos[i] is the ring position of part i's start, pos[k] that of
		// cur's end. Empty parts trail the split and end where cur does.
		pos[0], pos[k] = lo, hi
		for i := 1; i < k; i++ {
			pos[i] = hi
			if !parts[i].IsEmpty() {
				pos[i] = b.search(parts[i].Start, pos[i-1], hi)
			}
		}
		ncIdx, ncCount := -1, 0
		for i, p := range parts {
			if p.IsEmpty() {
				b.hosts[i] = -1
				continue
			}
			b.hosts[i] = b.coveredBy(p, pos[i])
			if b.hosts[i] < 0 {
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
					right = append(right, piece{region: parts[i], host: b.hosts[i], lo: pos[i], hi: pos[i+1]})
				}
			}
		}
		for i := 0; i < last; i++ {
			if !parts[i].IsEmpty() {
				out = emit(out, piece{region: parts[i], host: b.hosts[i], lo: pos[i], hi: pos[i+1]})
			}
		}
		if ncCount != 1 {
			break
		}
		cur, lo, hi = parts[ncIdx], pos[ncIdx], pos[ncIdx+1]
	}
	for i := len(right) - 1; i >= 0; i-- {
		out = emit(out, right[i])
	}
	b.bufs[lvl], b.right = out, right
	return out
}

// lone reports whether exactly one virtual-server ID lies in the
// non-covered region r short of its last key, r's owners lying at ring
// positions [lo, hi]: positions lo..hi-1 hold the IDs in r, and an ID on
// r's last key marks no boundary inside it.
//
//lbvet:hotpath
func (b *builder) lone(r ident.Region, lo, hi int) bool {
	n := hi - lo
	if b.vss[hi-1].ID == r.Start.Add(r.Width-1) {
		n--
	}
	return n == 1
}

// emit appends p to a clockwise run of pieces, merging it into the last
// one when both are leaves of one host (internal pieces have no host
// and never merge; the run tiles a region, so neighbors are adjacent).
//
//lbvet:hotpath
func emit(out []piece, p piece) []piece {
	if n := len(out); n > 0 && p.host >= 0 && out[n-1].host == p.host {
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

// materialize links n's children from pieces, reusing old children that
// survive unchanged: a leaf with identical region and host, or an
// internal child with identical region (spliced back whole if its
// region is clean, repaired in place if dirty). Old children with no
// surviving counterpart are discarded. Reuse matches by region start in
// a single merge scan — both lists tile n's region clockwise — and the
// scan steps past an old child before the new list relinks it.
func (b *builder) materialize(n int32, pieces []piece, lvl int) {
	base := b.at(n).region.Start
	old := b.at(n).first
	prev := nilRef
	for _, p := range pieces {
		off := base.Dist(p.region.Start)
		for old != nilRef && base.Dist(b.t.recs[old].region.Start) < off {
			next := b.t.recs[old].next
			b.discard(old)
			old = next
		}
		c := nilRef
		if old != nilRef {
			switch oc := &b.t.recs[old]; {
			case base.Dist(oc.region.Start) != off:
			case p.host >= 0 && oc.first == nilRef && oc.region == p.region && b.t.hosts[old] == b.vss[p.host]:
				c, old = old, oc.next
				b.heartbeat(n, c)
			case p.host < 0 && oc.first != nilRef && oc.region == p.region:
				c, old = old, oc.next
				if b.dirty.overlaps(p.region) {
					b.schedule(c, false, p.lo, p.hi, lvl)
				} else {
					// Clean subtree: splice back whole; its own probe
					// still happens (the parent checks it is alive).
					b.heartbeat(n, c)
				}
			}
		}
		if c == nilRef {
			c = b.plant(p, n)
			if p.host < 0 {
				b.schedule(c, true, p.lo, p.hi, lvl)
			}
		}
		if prev == nilRef {
			b.link(n).first = c
		} else {
			b.link(prev).next = c
		}
		prev = c
	}
	for old != nilRef {
		next := b.t.recs[old].next
		b.discard(old)
		old = next
	}
	b.link(prev).next = nilRef
	b.at(n).kids = int32(len(pieces))
}

// link returns the record ref names for a link to be written, noting a
// table slot on a worker's patch list.
func (b *builder) link(ref int32) *rec {
	if ref >= 0 && b.tasks == nil {
		b.patched = append(b.patched, ref)
	}
	return b.at(ref)
}

// runTasks runs the deferred subtree tasks across cores and merges the
// workers in task order, so no slot depends on scheduling. Each fresh
// task first counts what it will plant. In a fresh pass (a Build: every
// task fresh, no slot free) the table then grows once, and each task
// stages straight into its window of it, the slots adopt would give it,
// next to a window of the leaf list; otherwise each fresh task's stage
// is sized to its count.
func (t *Tree) runTasks(b *builder) {
	workers := make([]*builder, len(b.tasks))
	par.For(len(b.tasks), 0, func(idx int) {
		tk := b.tasks[idx]
		wb := &builder{t: t, vss: b.vss, dirty: b.dirty}
		if tk.fresh {
			wb.want, wb.wantLeaves = wb.count(t.recs[tk.n].region, tk.lo, tk.hi, 0)
		}
		workers[idx] = wb
	})
	if b.dirty == nil && len(t.free) == 0 {
		recs, leaves := 0, 0
		for _, wb := range workers {
			recs += wb.want
			leaves += wb.wantLeaves
		}
		t.recs, t.hosts = roomFor(t.recs, recs), roomFor(t.hosts, recs)
		b.leaves = slices.Grow(b.leaves, leaves)
		r, l := len(t.recs), len(b.leaves)
		for _, wb := range workers {
			wb.staged = t.recs[r : r : r+wb.want]
			wb.leaves = b.leaves[l : l : l+wb.wantLeaves]
			r, l = r+wb.want, l+wb.wantLeaves
		}
	} else {
		for _, wb := range workers {
			if wb.want > 0 {
				wb.staged, wb.leaves = make([]rec, 0, wb.want), make([]int32, 0, wb.wantLeaves)
			}
		}
	}
	par.For(len(b.tasks), 0, func(idx int) {
		tk := b.tasks[idx]
		wb := workers[idx]
		wb.process(tk.n, tk.fresh, tk.lo, tk.hi, 0)
		if tk.fresh && (len(wb.staged) != wb.want || len(wb.leaves) != wb.wantLeaves) {
			// A stage that outgrew its window left the table; one that
			// fell short left slots no record fills.
			panic(fmt.Sprintf("ktree: a subtree task planted %d nodes and %d leaves, its count said %d and %d",
				len(wb.staged), len(wb.leaves), wb.want, wb.wantLeaves))
		}
	})
	staged, leaves := 0, 0
	for _, wb := range workers {
		staged += len(wb.staged)
		leaves += len(wb.leaves)
	}
	b.leaves = slices.Grow(b.leaves, leaves)
	need := staged - len(t.free)
	t.recs, t.hosts = roomFor(t.recs, need), roomFor(t.hosts, need)
	for _, wb := range workers {
		t.adopt(wb)
		b.plants += wb.plants
		b.hbCount += wb.hbCount
		b.hbCost += wb.hbCost
		b.changes += wb.changes
		for d, delta := range wb.depthDelta {
			b.depthDelta[d] += delta
		}
		b.leaves = append(b.leaves, wb.leaves...) // in a fresh pass, onto itself
		b.removed = append(b.removed, wb.removed...)
		b.freed = append(b.freed, wb.freed...)
	}
}

// count returns how many nodes, and how many of them leaves, a fresh
// node of region r, whose owners lie at ring positions [lo, hi], plants
// below itself: what process will stage for it.
func (b *builder) count(r ident.Region, lo, hi, lvl int) (nodes, leaves int) {
	for _, p := range b.decompose(r, lo, hi, lvl) {
		nodes++
		if p.host >= 0 {
			leaves++
			continue
		}
		n, l := b.count(p.region, p.lo, p.hi, lvl+1)
		nodes, leaves = nodes+n, leaves+l
	}
	return nodes, leaves
}

// roomFor returns s with room for need more entries and, when it must
// grow, for what the next passes plant before their discards come free,
// so a churn Repair does not copy the table.
func roomFor[T any](s []T, need int) []T {
	if need <= cap(s)-len(s) {
		return s
	}
	return slices.Grow(s, need+(len(s)+need)/16)
}

// adopt gives a worker's staged records their slots, in staging order
// (as take would: the free stack's first, then new ones at the end),
// and rewrites the refs to them in records, patched slots and leaves.
// Knowing every slot first, it rewrites a record's refs as it copies
// it; a stage that is already the table's next window is rewritten in
// place. The table has room for the records the free stack cannot take.
func (t *Tree) adopt(wb *builder) {
	reuse := min(len(t.free), len(wb.staged))
	free := t.free[len(t.free)-reuse:] // staged record j < reuse takes free[reuse-1-j]
	t.free = t.free[:len(t.free)-reuse]
	at := int32(len(t.recs) - reuse) // staged record j >= reuse takes slot at+j
	t.recs, t.hosts = t.recs[:int(at)+len(wb.staged)], t.hosts[:int(at)+len(wb.staged)]
	slot := func(j int) int32 {
		if j < reuse {
			return free[reuse-1-j]
		}
		return at + int32(j)
	}
	fix := func(ref int32) int32 {
		if ref < nilRef {
			return slot(int(-2 - ref))
		}
		return ref
	}
	for j, r := range wb.staged {
		s := slot(j)
		t.hosts[s] = wb.vss[r.gen] // the host's position, until now
		r.gen = t.nextGen()
		r.parent, r.first, r.next = fix(r.parent), fix(r.first), fix(r.next)
		t.recs[s] = r
	}
	for _, i := range wb.patched {
		r := &t.recs[i]
		r.first, r.next = fix(r.first), fix(r.next)
	}
	for j, ref := range wb.leaves {
		wb.leaves[j] = fix(ref)
	}
}

// apply commits a finished pass — message tallies, depth histogram,
// leaf lists — and holds what it discarded; it returns its changes.
func (t *Tree) apply(b *builder) int {
	eng := t.ring.Engine()
	if b.plants > 0 {
		eng.CountMessageN(MsgPlant, b.plants, sim.Time(b.plants)*t.plantCost())
	}
	if b.hbCount > 0 {
		eng.CountMessageN(MsgHeartbeat, b.hbCount, b.hbCost)
	}
	for d, delta := range b.depthDelta {
		t.depthCount[d] += delta
	}
	for _, i := range b.removed {
		t.unregisterLeaf(i)
	}
	// New leaves join their hosts' lists in clockwise order, which is
	// the order of their regions, since the leaves tile the circle from
	// identifier 0. A Build's are in that order already (mergeLeaves).
	if b.dirty == nil {
		t.listLeaves(b.leaves)
	} else {
		slices.SortFunc(b.leaves, t.byStart)
		for _, i := range b.leaves {
			t.registerLeaf(i)
		}
	}
	t.held = b.freed
	return b.changes
}

// listLeaves gives every virtual server the list of a Build's leaves,
// which come in clockwise order. A leaf lies in its host's region and
// the regions are arcs, so each host's leaves are one run of that order,
// carved from one array with room for exactly that run. The exception is
// the host whose region wraps past identifier 0: its leaves are the
// first run and the last, and its list is their concatenation.
func (t *Tree) listLeaves(leaves []int32) {
	t.leaves, t.numLeaves = make([]leafList, t.ring.NumSlots()), len(leaves)
	all := make([]Handle, len(leaves))
	for j, i := range leaves {
		all[j] = t.handle(i)
	}
	for j := 0; j < len(leaves); {
		s := t.recs[leaves[j]].slot
		k := j + 1
		for k < len(leaves) && t.recs[leaves[k]].slot == s {
			k++
		}
		if l := &t.leaves[s]; l.vs == nil {
			l.vs, l.hs = t.hosts[leaves[j]], all[j:k:k]
		} else {
			l.hs = append(l.hs, all[j:k]...) // the wrapping host's last run
		}
		j = k
	}
}

// registerLeaf appends leaf i to its host's list.
func (t *Tree) registerLeaf(i int32) {
	vs, s := t.hosts[i], int(t.recs[i].slot)
	if s >= len(t.leaves) {
		t.leaves = append(t.leaves, make([]leafList, s+1-len(t.leaves))...)
	}
	l := &t.leaves[s]
	if l.vs != vs {
		l.vs, l.hs = vs, l.hs[:0]
	}
	l.hs = append(l.hs, t.handle(i))
	t.numLeaves++
}

// unregisterLeaf removes leaf i from its host's list, keeping the
// others in order and leaving no handle past the list's end.
func (t *Tree) unregisterLeaf(i int32) {
	l := &t.leaves[t.recs[i].slot]
	if k := slices.IndexFunc(l.hs, func(h Handle) bool { return h.i == i }); k >= 0 {
		l.hs = slices.Delete(l.hs, k, k+1)
		t.numLeaves--
	}
	if len(l.hs) == 0 {
		l.vs = nil // the next virtual server in this slot reuses the array
	}
}

// CheckInvariants panics if the tree violates its structural
// invariants: the root covers the full space, children partition their
// parent's region clockwise, are at least two and as many as the
// parent's count, no adjacent sibling leaves share a host (they would
// have merged), every leaf is covered by its host's region, every
// node's host owns its key, internal regions straddle an ownership
// boundary, leaf bookkeeping and the node/leaf/height counters match
// the tree, and every live virtual server hosts at least one leaf.
func (t *Tree) CheckInvariants() {
	if t.root == nilRef {
		panic("ktree: no root")
	}
	if !t.recs[t.root].region.IsFull() {
		panic("ktree: root does not cover the identifier space")
	}
	leaves, nodes := 0, 0
	var depths [maxDepth + 1]int
	t.Walk(func(h Handle) {
		n := &t.recs[h.i]
		nodes++
		depths[n.depth]++
		if n.gen == 0 {
			panic("ktree: a node in the tree sits in a free slot")
		}
		if n.key != n.region.Center() {
			panic("ktree: key is not the region center")
		}
		host := t.hosts[h.i]
		if t.ring.Successor(n.key) != host {
			panic("ktree: host does not own the node's key")
		}
		if int(n.slot) != host.Slot() {
			panic("ktree: record's slot is not its host's")
		}
		covered := t.ring.RegionOf(host).Covers(n.region)
		if n.first == nilRef {
			leaves++
			if !covered {
				panic(fmt.Sprintf("ktree: leaf region %v not covered by host region %v",
					n.region, t.ring.RegionOf(host)))
			}
			if !slices.Contains(t.LeavesOf(host), h) {
				panic("ktree: leaf missing from its host's leaf list")
			}
			return
		}
		if covered {
			panic(fmt.Sprintf("ktree: internal node %v is coverable and should be a leaf", n.region))
		}
		if n.kids < 2 {
			panic("ktree: internal node with fewer than two children")
		}
		at := n.region.Start
		var total uint64
		kids := int32(0)
		prev := nilRef
		for ci := n.first; ci != nilRef; ci = t.recs[ci].next {
			c := &t.recs[ci]
			kids++
			if c.region.Start != at {
				panic("ktree: children do not tile parent region")
			}
			if c.parent != h.i || c.depth != n.depth+1 {
				panic("ktree: child linkage wrong")
			}
			if prev != nilRef && t.recs[prev].first == nilRef && c.first == nilRef && t.hosts[prev] == t.hosts[ci] {
				panic("ktree: unmerged adjacent sibling leaves with one host")
			}
			prev = ci
			at = c.region.End()
			total += c.region.Width
		}
		if kids != n.kids {
			panic(fmt.Sprintf("ktree: node counts %d children, links %d", n.kids, kids))
		}
		if total != n.region.Width {
			panic("ktree: child widths do not sum to parent width")
		}
	})
	if nodes != t.NumNodes() || leaves != t.numLeaves || depths != t.depthCount {
		panic(fmt.Sprintf("ktree: bookkeeping mismatch nodes %d/%d leaves %d/%d depths %v/%v",
			nodes, t.NumNodes(), leaves, t.numLeaves, depths, t.depthCount))
	}
	registered := 0
	for _, l := range t.leaves {
		registered += len(l.hs)
	}
	if registered != t.numLeaves {
		panic(fmt.Sprintf("ktree: leaf lists register %d leaves, tree has %d", registered, t.numLeaves))
	}
	for _, vs := range t.ring.VServers() {
		if len(t.LeavesOf(vs)) == 0 {
			panic(fmt.Sprintf("ktree: virtual server %s hosts no leaf", vs.ID))
		}
	}
}
