package chord

import (
	"math"
	"slices"
	"testing"

	"p2plb/internal/ident"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// ringModel is the ring as one sorted slice, the layout the blocks
// replaced, searched and edited with the slices package.
type ringModel []*VServer

// search returns the index of the first virtual server at or past id.
func (m ringModel) search(id ident.ID) int {
	i, _ := slices.BinarySearchFunc(m, id, func(v *VServer, id ident.ID) int { return ident.Compare(v.ID, id) })
	return i
}

func (m *ringModel) add(vss []*VServer) {
	for _, vs := range vss {
		*m = slices.Insert(*m, m.search(vs.ID), vs)
	}
}

func (m *ringModel) remove(vss []*VServer) {
	*m = slices.DeleteFunc(*m, func(v *VServer) bool { return slices.Contains(vss, v) })
}

// successor is the first virtual server at or past key, wrapping.
func (m ringModel) successor(key ident.ID) *VServer {
	return m[m.search(key)%len(m)]
}

func (m ringModel) has(id ident.ID) bool {
	i := m.search(id)
	return i < len(m) && m[i].ID == id
}

// seamID maps two script bytes to an identifier next to the 0 / 2^32−1
// seam, next to the middle of the space, or beside a multiple of 2^24.
func seamID(a, b int) ident.ID {
	switch b % 4 {
	case 0:
		return ident.ID(a)
	case 1:
		return ident.ID(math.MaxUint32 - a)
	case 2:
		return ident.ID(1<<31 + a - 128)
	}
	return ident.ID(a<<24 | b)
}

// FuzzRingVsModel runs byte scripts of joins, leaves and transfers on a
// ring of small blocks and holds it, after every step, to a plain sorted
// slice of the same virtual servers. The first byte picks the block size
// (4 to 16), so scripts split and merge blocks within a few steps; each
// step is three bytes, op, a and b. op%6 picks a random join of 1+a%4
// virtual servers, a join at one or two identifiers beside the seam or
// another boundary (refused, and the step a no-op, when one is taken), a
// bulk join, a node leaving, a virtual server leaving or a transfer.
func FuzzRingVsModel(f *testing.F) {
	f.Add([]byte("\x04\x00\x03\x00\x01\x05\x01\x01\x07\x03\x03\x02\x00\x04\x05\x00\x02\x00\x03\x01\x00\x05\x02\x01\x04\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		eng := sim.NewEngine(1)
		r := NewRing(eng, Config{})
		r.blockMax = 4 + int(data[0])%13
		data = data[1:]
		var model ringModel
		for steps := 0; len(data) >= 3 && steps < 200; steps++ {
			op, a, b := data[0], int(data[1]), int(data[2])
			data = data[3:]
			alive := r.AliveNodes()
			switch op % 6 {
			case 0:
				model.add(r.AddNode(-1, 1, 1+a%4).VServers())
			case 1:
				ids := []ident.ID{seamID(a, b)}
				if a%2 == 1 {
					ids = append(ids, ids[0].Add(uint64(1+b%3)))
				}
				n, err := r.AddNodeWithIDs(-1, 1, ids)
				if taken := model.has(ids[0]) || (len(ids) > 1 && model.has(ids[1])); taken != (err != nil) {
					t.Fatalf("AddNodeWithIDs(%v): error %v, a model taken %v", ids, err, taken)
				}
				if err == nil {
					model.add(n.VServers())
				}
			case 2:
				for _, n := range r.BulkAddNodes(1+a%3, 1+b%3, func(int) topology.NodeID { return -1 }, func(int) float64 { return 1 }) {
					model.add(n.VServers())
				}
			case 3:
				if len(alive) > 0 {
					n := alive[a%len(alive)]
					gone := slices.Clone(n.VServers())
					r.RemoveNode(n)
					model.remove(gone)
				}
			case 4:
				if len(model) > 0 {
					vs := model[a%len(model)]
					r.RemoveVServer(vs)
					model.remove([]*VServer{vs})
				}
			case 5:
				if len(model) > 0 && len(alive) > 0 {
					r.Transfer(model[a%len(model)], alive[b%len(alive)])
				}
			}
			checkAgainstModel(t, r, model, seamID(b, a))
		}
	})
}

// checkAgainstModel fails on the first query where r and the model
// disagree: the invariants, the count and flat view, every virtual
// server's predecessor, next position and region, Successor at and
// beside every identifier and at probe, and NumVServersIn over every
// region, the whole circle and the arcs on either side of probe.
func checkAgainstModel(t *testing.T, r *Ring, model ringModel, probe ident.ID) {
	t.Helper()
	r.CheckInvariants()
	if r.NumVServers() != len(model) {
		t.Fatalf("%d virtual servers, the model has %d", r.NumVServers(), len(model))
	}
	if !slices.Equal(r.VServers(), []*VServer(model)) {
		t.Fatalf("VServers() differs from the model")
	}
	if len(model) == 0 {
		if r.Successor(probe) != nil {
			t.Fatal("an empty ring has a successor")
		}
		return
	}
	keys := []ident.ID{0, math.MaxUint32, probe}
	for i, vs := range model {
		pred := model[(i+len(model)-1)%len(model)]
		if got := r.Predecessor(vs); got != pred {
			t.Fatalf("Predecessor(%s) = %s, the model says %s", vs.ID, got.ID, pred.ID)
		}
		if got, want := r.at(r.next(r.pos(vs))), model[(i+1)%len(model)]; got != want {
			t.Fatalf("the position after %s holds %s, the model says %s", vs.ID, got.ID, want.ID)
		}
		if got, want := r.RegionOf(vs), ident.OwnershipArc(pred.ID, vs.ID); got != want {
			t.Fatalf("RegionOf(%s) = %v, the model says %v", vs.ID, got, want)
		}
		if got := r.NumVServersIn(r.RegionOf(vs)); got != 1 {
			t.Fatalf("NumVServersIn(RegionOf(%s)) = %d, want 1", vs.ID, got)
		}
		keys = append(keys, vs.ID, vs.ID.Add(1), vs.ID.Add(math.MaxUint32))
	}
	for _, key := range keys {
		if got, want := r.Successor(key), model.successor(key); got != want {
			t.Fatalf("Successor(%s) = %s, the model says %s", key, got.ID, want.ID)
		}
	}
	for _, reg := range []ident.Region{
		{Start: 0, Width: ident.SpaceSize},
		{Start: probe, Width: 1 << 31},
		{Start: probe.Add(1 << 31), Width: 1 << 31},
	} {
		want := 0
		for _, vs := range model {
			if reg.Contains(vs.ID) {
				want++
			}
		}
		if got := r.NumVServersIn(reg); got != want {
			t.Fatalf("NumVServersIn(%v) = %d, the model counts %d", reg, got, want)
		}
	}
}
