package chord

import (
	"p2plb/internal/ident"
)

// This file adds the serving layer's hot-path lookup cache: the
// Kademlia lookup-performance playbook (Salah–Roos–Strufe, PAPERS.md)
// applied to the Chord routed lookup. Each origin node remembers the
// owner of recently resolved keys; a hit turns an O(log n)-hop routed
// lookup into a single overlay hop straight to the cached owner. Under
// Zipf popularity the head of the curve dominates traffic, so a small
// per-origin cache absorbs most lookups.
//
// Correctness is pinned by two rules (see DESIGN.md "Serving layer"):
//
//   - Invalidation on transfer/churn: the cache subscribes to ring
//     events and bumps a per-slot version (VServer.Slot) on VSRemoved
//     and VSTransferred. A cached entry is only usable while the version
//     it recorded matches its server's slot — a departed or re-homed
//     virtual server can never be returned from the cache alone, even
//     after a joiner takes its slot.
//   - Validation at arrival: even a version-matched entry is re-checked
//     when the single hop lands — the target must still be on the ring
//     AND still own the key (VSAdded region splits shrink regions
//     without touching the old owner). A stale arrival is not an error:
//     the request keeps routing from wherever it landed, exactly like
//     an in-flight hop whose target departed, and the stale entry is
//     dropped.
//
// Cached hits therefore return byte-identical owners to the uncached
// Ring.Lookup at every instant — only hops and latency differ — which
// is what TestCachedLookupEquivalence pins under churn and transfers.

type cacheEntry struct {
	vs  *VServer
	ver uint32
}

type cacheShard struct {
	m    map[ident.ID]cacheEntry
	fifo []ident.ID // insertion order; may hold residue of invalidated keys
	head int
}

// LookupCache is a bounded per-origin-node cache of key → owning
// virtual server. It must be Subscribe'd to the ring it serves (the
// constructor does this) so transfers and churn invalidate entries.
// Like the ring itself it is engine-owned, single-goroutine state.
type LookupCache struct {
	perNode int
	shards  []cacheShard
	ver     []uint32 // by VServer.Slot, one per slot the ring has handed out

	hits   int64 // cache hit, validated at arrival
	misses int64 // no usable entry; full routed lookup
	stale  int64 // hit that failed arrival validation
}

// NewLookupCache returns a cache holding at most perNode entries per
// origin node (default 128) and subscribes it to ring.
func NewLookupCache(ring *Ring, perNode int) *LookupCache {
	if perNode <= 0 {
		perNode = 128
	}
	c := &LookupCache{perNode: perNode, ver: make([]uint32, ring.NumSlots())}
	ring.Subscribe(c)
	return c
}

// VSAdded implements Listener. A join splits the region of the new VS's
// successor; cached entries for that successor stay version-valid but
// fail arrival validation for keys the split took away, so no bump is
// needed — the arrival check is the guard. A join that opens a new slot
// gives it a version.
func (c *LookupCache) VSAdded(vs *VServer) {
	for vs.Slot() >= len(c.ver) {
		c.ver = append(c.ver, 0)
	}
}

// VSRemoved implements Listener: entries naming vs become unusable,
// and so stay when a joiner takes its slot.
func (c *LookupCache) VSRemoved(vs *VServer) { c.ver[vs.Slot()]++ }

// VSTransferred implements Listener: vs now lives on a different node,
// so a cached single hop would go to the wrong host.
func (c *LookupCache) VSTransferred(vs *VServer, from, to *Node) { c.ver[vs.Slot()]++ }

// Stats returns the cache's hit / miss / stale-arrival counters.
func (c *LookupCache) Stats() (hits, misses, stale int64) {
	return c.hits, c.misses, c.stale
}

// get returns origin's cached owner for key if a version-valid entry
// exists. Point reads only — no allocation on the hit path.
//
//lbvet:hotpath
func (c *LookupCache) get(origin *Node, key ident.ID) (*VServer, bool) {
	if origin.Index >= len(c.shards) {
		return nil, false
	}
	e, ok := c.shards[origin.Index].m[key]
	if !ok || e.ver != c.ver[e.vs.Slot()] {
		return nil, false
	}
	return e.vs, true
}

// put records that a lookup from origin resolved key to vs, evicting
// the oldest entries once the shard is full.
func (c *LookupCache) put(origin *Node, key ident.ID, vs *VServer) {
	for origin.Index >= len(c.shards) {
		c.shards = append(c.shards, cacheShard{})
	}
	sh := &c.shards[origin.Index]
	if sh.m == nil {
		sh.m = make(map[ident.ID]cacheEntry, c.perNode)
	}
	if _, exists := sh.m[key]; !exists {
		for len(sh.m) >= c.perNode && sh.head < len(sh.fifo) {
			old := sh.fifo[sh.head]
			sh.head++
			delete(sh.m, old) // no-op for invalidated residue
		}
		if sh.head > c.perNode && sh.head*2 > len(sh.fifo) {
			sh.fifo = append(sh.fifo[:0], sh.fifo[sh.head:]...)
			sh.head = 0
		}
		sh.fifo = append(sh.fifo, key)
	}
	sh.m[key] = cacheEntry{vs: vs, ver: c.ver[vs.Slot()]}
}

// invalidate drops origin's entry for key (after a stale arrival).
func (c *LookupCache) invalidate(origin *Node, key ident.ID) {
	if origin.Index < len(c.shards) {
		delete(c.shards[origin.Index].m, key)
	}
}

// OnRing reports whether vs is currently a ring member. In-flight
// consumers (the lookup cache, the serving layer's replica sets) use it
// to notice a target departed while a message was travelling.
func (r *Ring) OnRing(vs *VServer) bool { return r.onRing(vs) }

// CachedLookup is Lookup accelerated by c: a version-valid cache hit
// costs a single overlay hop to the cached owner, validated on arrival
// (stale arrivals keep routing from where they landed, charging their
// hops). A miss runs the normal routed lookup and teaches the cache the
// result. A nil cache is exactly Lookup. Hit and miss ride Lookup's
// pooled hop, so a hit allocates nothing on a warm ring.
//
//lbvet:hotpath
func (r *Ring) CachedLookup(c *LookupCache, from *Node, key ident.ID, cb func(LookupResult)) {
	if c == nil {
		r.Lookup(from, key, cb)
		return
	}
	if vs, ok := c.get(from, key); ok {
		h := r.newHop(from, key, c, cb)
		h.kind = hopCached
		r.sendHop(h, from, vs)
		return
	}
	c.misses++
	r.lookup(from, key, c, cb)
}
