package chord

import (
	"math/rand"
	"testing"

	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// TestSlotsUnderChurn runs random join, leave and transfer scripts and
// holds the ring's VServer slots to their contract after every step:
// live slots are unique and below NumSlots, a join takes the most
// recently freed slot (a model stack of freed slots predicts every
// slot handed out), and NumSlots never exceeds the peak live count.
func TestSlotsUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		eng := sim.NewEngine(seed)
		r := NewRing(eng, Config{})
		rng := rand.New(rand.NewSource(seed))
		var freed []int // model: slots returned by leaves, latest last
		next := 0       // model: the next fresh slot
		peak := 0
		// expect is the slot the model says the next joiner takes.
		expect := func() int {
			if n := len(freed); n > 0 {
				s := freed[n-1]
				freed = freed[:n-1]
				return s
			}
			next++
			return next - 1
		}
		checkJoined := func(vss []*VServer) {
			t.Helper()
			for _, vs := range vss {
				if want := expect(); vs.Slot() != want {
					t.Fatalf("seed %d: joiner %s took slot %d, want %d", seed, vs.ID, vs.Slot(), want)
				}
			}
		}
		for step := 0; step < 400; step++ {
			alive := r.AliveNodes()
			switch op := rng.Intn(10); {
			case op < 3 || len(alive) < 2:
				checkJoined(r.AddNode(-1, 1, 1+rng.Intn(3)).VServers())
			case op < 4:
				for _, n := range r.BulkAddNodes(1+rng.Intn(3), 2, func(int) topology.NodeID { return -1 }, func(int) float64 { return 1 }) {
					checkJoined(n.VServers())
				}
			case op < 6:
				n := alive[rng.Intn(len(alive))]
				for _, vs := range n.VServers() {
					freed = append(freed, vs.Slot())
				}
				r.RemoveNode(n)
			case op < 8:
				n := alive[rng.Intn(len(alive))]
				if vss := n.VServers(); len(vss) > 0 {
					vs := vss[rng.Intn(len(vss))]
					freed = append(freed, vs.Slot())
					r.RemoveVServer(vs)
				}
			default:
				from, to := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
				if vss := from.VServers(); len(vss) > 0 {
					vs := vss[rng.Intn(len(vss))]
					before := vs.Slot()
					r.Transfer(vs, to)
					if vs.Slot() != before {
						t.Fatalf("seed %d: transfer moved slot %d to %d", seed, before, vs.Slot())
					}
				}
			}
			if r.NumVServers() > peak {
				peak = r.NumVServers()
			}
			if r.NumSlots() > peak {
				t.Fatalf("seed %d step %d: NumSlots %d exceeds the peak live count %d", seed, step, r.NumSlots(), peak)
			}
			seen := make(map[int]bool, r.NumVServers())
			for _, vs := range r.VServers() {
				s := vs.Slot()
				if s < 0 || s >= r.NumSlots() || seen[s] {
					t.Fatalf("seed %d step %d: live slot %d out of [0, %d) or held twice", seed, step, s, r.NumSlots())
				}
				seen[s] = true
			}
			r.CheckInvariants()
		}
	}
}
