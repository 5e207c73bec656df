package chord

import (
	"testing"

	"p2plb/internal/ident"
	"p2plb/internal/sim"
)

func cacheRing(seed int64, nodes int) (*sim.Engine, *Ring) {
	eng := sim.NewEngine(seed)
	ring := NewRing(eng, Config{})
	for i := 0; i < nodes; i++ {
		ring.AddNode(-1, 1+float64(i%7), 4)
	}
	return eng, ring
}

// otherNode returns an alive node that is not n.
func otherNode(t *testing.T, r *Ring, n *Node) *Node {
	t.Helper()
	for _, cand := range r.AliveNodes() {
		if cand != n {
			return cand
		}
	}
	t.Fatal("no other node")
	return nil
}

// A warm cache turns a repeat lookup into a single hop to the same
// owner the uncached lookup resolves.
func TestCachedLookupHitSingleHop(t *testing.T) {
	eng, ring := cacheRing(1, 16)
	cache := NewLookupCache(ring, 64)
	key := ident.ID(1 << 30)
	owner := ring.Successor(key)
	from := otherNode(t, ring, owner.Owner)

	var first, second *LookupResult
	ring.CachedLookup(cache, from, key, func(res LookupResult) {
		first = &res
		ring.CachedLookup(cache, from, key, func(res2 LookupResult) { second = &res2 })
	})
	eng.Run()
	if first == nil || second == nil {
		t.Fatal("lookups did not complete")
	}
	if first.VS != owner || second.VS != owner {
		t.Fatalf("resolved %v / %v, want %v", first.VS.ID, second.VS.ID, owner.ID)
	}
	if second.Hops != 1 {
		t.Fatalf("cached hit took %d hops, want 1", second.Hops)
	}
	hits, misses, stale := cache.Stats()
	if hits != 1 || misses != 1 || stale != 0 {
		t.Fatalf("stats hits=%d misses=%d stale=%d, want 1/1/0", hits, misses, stale)
	}
}

// Invalidation on churn/transfer: after the cached owner departs the
// ring or moves host, the version check must refuse the entry — the
// cache can never by itself return a departed or re-homed VS.
func TestCacheInvalidatedOnRemoveAndTransfer(t *testing.T) {
	eng, ring := cacheRing(2, 16)
	cache := NewLookupCache(ring, 64)
	key := ident.ID(77777)
	owner := ring.Successor(key)
	from := otherNode(t, ring, owner.Owner)

	ring.CachedLookup(cache, from, key, func(LookupResult) {})
	eng.Run()

	// Transfer: same VS, new host — the cached single hop would go to
	// the wrong node, so the entry must miss.
	ring.Transfer(owner, otherNode(t, ring, owner.Owner))
	var afterTransfer *LookupResult
	ring.CachedLookup(cache, from, key, func(res LookupResult) { afterTransfer = &res })
	eng.Run()
	if afterTransfer == nil || afterTransfer.VS != owner {
		t.Fatalf("post-transfer lookup resolved %+v, want still %v", afterTransfer, owner.ID)
	}
	if _, misses, _ := stats3(cache); misses != 2 {
		t.Fatalf("transfer did not invalidate: misses = %d, want 2", misses)
	}

	// Removal: the VS leaves the ring entirely.
	ring.RemoveVServer(owner)
	var afterRemove *LookupResult
	ring.CachedLookup(cache, from, key, func(res LookupResult) { afterRemove = &res })
	eng.Run()
	if afterRemove == nil {
		t.Fatal("post-removal lookup did not complete")
	}
	if afterRemove.VS == owner {
		t.Fatal("cache returned a departed VS")
	}
	if !ring.OnRing(afterRemove.VS) || afterRemove.VS != ring.Successor(key) {
		t.Fatalf("post-removal lookup resolved %v, want %v", afterRemove.VS.ID, ring.Successor(key).ID)
	}
}

// A departed VS's entries stay dead after a joiner takes its slot: the
// version lives in the slot, and the joiner's entries start from the
// version the departure left there.
func TestCacheMissesDepartedVSInReusedSlot(t *testing.T) {
	eng, ring := cacheRing(4, 16)
	cache := NewLookupCache(ring, 64)
	key := ident.ID(123456789)
	owner := ring.Successor(key)
	from := otherNode(t, ring, owner.Owner)
	ring.CachedLookup(cache, from, key, func(LookupResult) {})
	eng.Run()
	if vs, ok := cache.get(from, key); !ok || vs != owner {
		t.Fatal("the lookup did not teach the cache its owner")
	}

	ring.RemoveVServer(owner)
	joiner := ring.AddNode(-1, 1, 1).VServers()[0]
	if joiner.Slot() != owner.Slot() {
		t.Fatalf("joiner took slot %d, want the departed VS's %d", joiner.Slot(), owner.Slot())
	}
	if vs, ok := cache.get(from, key); ok {
		t.Fatalf("cache answered %s for the departed VS's key after its slot was reused", vs.ID)
	}
	ring.CachedLookup(cache, from, joiner.ID, func(LookupResult) {})
	eng.Run()
	if vs, ok := cache.get(from, joiner.ID); !ok || vs != joiner {
		t.Fatal("the joiner's own entry does not hit")
	}
	if len(cache.ver) > ring.NumSlots() {
		t.Fatalf("%d versions for %d slots", len(cache.ver), ring.NumSlots())
	}
}

func stats3(c *LookupCache) (int64, int64, int64) { return c.Stats() }

// A version-valid hit whose owner departs while the hop is in flight
// must not deliver the departed VS: the arrival check reroutes and the
// entry is dropped.
func TestCachedLookupStaleArrivalReroutes(t *testing.T) {
	eng, ring := cacheRing(3, 16)
	cache := NewLookupCache(ring, 64)
	key := ident.ID(424242)
	owner := ring.Successor(key)
	from := otherNode(t, ring, owner.Owner)

	ring.CachedLookup(cache, from, key, func(LookupResult) {})
	eng.Run()

	var got *LookupResult
	ring.CachedLookup(cache, from, key, func(res LookupResult) { got = &res })
	// The single cached hop is now in flight; the owner's node dies
	// before it lands.
	ring.RemoveNode(owner.Owner)
	eng.Run()
	if got == nil {
		t.Fatal("lookup did not complete")
	}
	if got.VS == owner {
		t.Fatal("stale arrival delivered a departed VS")
	}
	if got.VS != ring.Successor(key) {
		t.Fatalf("rerouted to %v, want %v", got.VS.ID, ring.Successor(key).ID)
	}
	if got.Hops < 2 {
		t.Fatalf("stale arrival charged %d hops, want the reroute to add hops", got.Hops)
	}
	if _, _, stale := cache.Stats(); stale != 1 {
		t.Fatalf("stale = %d, want 1", stale)
	}
}

// The cached and uncached lookups must agree with the ground-truth
// Successor at delivery time through a long randomized interleaving of
// lookups, VS transfers and node churn. A third of the callbacks start
// a nested lookup, cached or routed, which may reuse the pooled hop the
// callback's own lookup just released; after every event the pool must
// hold exactly one hop per lookup in flight and none twice.
func TestCachedLookupEquivalenceUnderChurn(t *testing.T) {
	eng, ring := cacheRing(4, 32)
	cache := NewLookupCache(ring, 64)
	rng := eng.Rand()

	// A small hot-key pool so repeats actually hit the cache.
	keys := make([]ident.ID, 48)
	for i := range keys {
		keys[i] = ident.ID(rng.Uint32())
	}

	const steps = 600
	issued, checked, nested := 0, 0, 0
	var lookup func(depth int)
	lookup = func(depth int) {
		nodes := ring.AliveNodes()
		from := nodes[rng.Intn(len(nodes))]
		key := keys[rng.Intn(len(keys))]
		c := cache
		if depth > 0 && rng.Intn(2) == 0 {
			c = nil // a routed lookup from inside a callback
		}
		issued++
		ring.CachedLookup(c, from, key, func(res LookupResult) {
			checked++
			if !ring.OnRing(res.VS) {
				t.Errorf("delivered VS %v is not on the ring", res.VS.ID)
			}
			if want := ring.Successor(key); res.VS != want {
				t.Errorf("resolved %v, ground truth %v", res.VS.ID, want.ID)
			}
			if res.Hops < 1 || res.Cost < sim.Time(res.Hops) {
				t.Errorf("implausible result: hops=%d cost=%d", res.Hops, res.Cost)
			}
			if depth < 3 && rng.Intn(3) == 0 {
				nested++
				lookup(depth + 1)
			}
		})
	}
	for step := 0; step < steps; step++ {
		at := sim.Time(step * 3)
		eng.ScheduleEv(at, sim.Func(func() { lookup(0) }))
		// Transfers racing in-flight lookups (same tick, after issue).
		if step%5 == 4 {
			eng.ScheduleEv(at, sim.Func(func() {
				vss := ring.VServers()
				vs := vss[rng.Intn(len(vss))]
				ring.Transfer(vs, ring.AliveNodes()[rng.Intn(len(ring.AliveNodes()))])
			}))
		}
		// Churn: nodes leave and join between lookups.
		if step%11 == 7 {
			eng.ScheduleEv(at+1, sim.Func(func() {
				nodes := ring.AliveNodes()
				if len(nodes) > 8 {
					ring.RemoveNode(nodes[rng.Intn(len(nodes))])
				}
				ring.AddNode(-1, 1+rng.Float64()*9, 4)
			}))
		}
	}
	for eng.Step() {
		if ring.hopsOut != issued-checked {
			t.Fatalf("%d hops handed out for %d lookups in flight", ring.hopsOut, issued-checked)
		}
		for i, h := range ring.hopFree {
			if h.cb != nil {
				t.Fatalf("free hop %d still holds a lookup for key %s", i, h.key)
			}
			for _, g := range ring.hopFree[:i] {
				if g == h {
					t.Fatalf("hop %d is on the free list twice", i)
				}
			}
		}
	}
	if checked != issued || issued != steps+nested {
		t.Fatalf("completed %d of %d lookups (%d top-level, %d nested)", checked, issued, steps, nested)
	}
	if nested < steps/10 {
		t.Fatalf("only %d nested lookups", nested)
	}
	hits, misses, _ := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("interleaving did not exercise the cache: hits=%d misses=%d", hits, misses)
	}
	ring.CheckInvariants()
}
