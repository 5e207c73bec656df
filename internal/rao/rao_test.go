package rao

import (
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

func fixture(seed int64, nodes, vsPer int) *chord.Ring {
	mu := float64(nodes) * 100
	return workload.NewRing(sim.NewEngine(seed), workload.RingSpec{Nodes: nodes, VSPerNode: vsPer,
		Loads: workload.Gaussian{Mu: mu, Sigma: mu / 400}})
}

func TestValidation(t *testing.T) {
	ring := fixture(1, 16, 3)
	if _, err := Run(ring, Config{Epsilon: -1}, 5); err == nil {
		t.Error("negative epsilon should fail")
	}
	if _, err := Run(ring, Config{Scheme: Scheme(9)}, 5); err == nil {
		t.Error("unknown scheme should fail")
	}
	if _, err := Run(ring, Config{}, 0); err == nil {
		t.Error("zero rounds should fail")
	}
	empty := chord.NewRing(sim.NewEngine(1), chord.Config{})
	if _, err := Run(empty, Config{}, 5); err == nil {
		t.Error("empty ring should fail")
	}
}

func TestSchemeStrings(t *testing.T) {
	if OneToOne.String() != "one-to-one" || OneToMany.String() != "one-to-many" ||
		ManyToMany.String() != "many-to-many" {
		t.Fatal("scheme strings wrong")
	}
}

func TestManyToManyConvergesFast(t *testing.T) {
	ring := fixture(2, 192, 5)
	res, err := Run(ring, Config{Scheme: ManyToMany, Epsilon: 0.05}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyStart < 96 {
		t.Fatalf("fixture too tame: %d heavy", res.HeavyStart)
	}
	if !res.Converged {
		t.Errorf("many-to-many did not converge: %d heavy after %d rounds",
			res.HeavyEnd, res.Rounds)
	}
	if res.Rounds > 3 {
		t.Errorf("many-to-many needed %d rounds, want <= 3 (global matching)", res.Rounds)
	}
	if res.MovedLoad <= 0 || res.MovedByHops.Total() != res.MovedLoad {
		t.Error("moved-load accounting inconsistent")
	}
	ring.CheckInvariants()
}

func TestOneToManyConverges(t *testing.T) {
	ring := fixture(3, 160, 5)
	res, err := Run(ring, Config{Scheme: OneToMany, Epsilon: 0.05}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyEnd > res.HeavyStart/10 {
		t.Errorf("one-to-many barely progressed: %d -> %d heavy", res.HeavyStart, res.HeavyEnd)
	}
	if ring.Engine().MessageCount(MsgRegister) == 0 || ring.Engine().MessageCount(MsgQuery) == 0 {
		t.Error("directory traffic not accounted")
	}
	ring.CheckInvariants()
}

func TestOneToOneProgressesSlowly(t *testing.T) {
	ring := fixture(4, 160, 5)
	res, err := Run(ring, Config{Scheme: OneToOne, Epsilon: 0.05}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Fatal("no probes issued")
	}
	if res.ProbeHits == 0 {
		t.Fatal("no probe ever hit a heavy node (most nodes are heavy!)")
	}
	if res.MovedLoad <= 0 {
		t.Fatal("one-to-one moved nothing")
	}
	if res.HeavyEnd >= res.HeavyStart {
		t.Errorf("no progress: %d -> %d heavy", res.HeavyStart, res.HeavyEnd)
	}
	ring.CheckInvariants()
}

func TestSchemeOrdering(t *testing.T) {
	// For the same budget of rounds, the schemes should order
	// many-to-many <= one-to-many <= one-to-one in residual heavy nodes
	// (the ordering Rao et al. report).
	rounds := 4
	residual := map[Scheme]int{}
	for _, s := range []Scheme{OneToOne, OneToMany, ManyToMany} {
		ring := fixture(5, 192, 5)
		res, err := Run(ring, Config{Scheme: s, Epsilon: 0.05}, rounds)
		if err != nil {
			t.Fatal(err)
		}
		residual[s] = res.HeavyEnd
	}
	t.Logf("residual heavy after %d rounds: 1-1=%d 1-M=%d M-M=%d",
		rounds, residual[OneToOne], residual[OneToMany], residual[ManyToMany])
	if residual[ManyToMany] > residual[OneToMany] {
		t.Errorf("many-to-many (%d) worse than one-to-many (%d)",
			residual[ManyToMany], residual[OneToMany])
	}
	if residual[OneToMany] > residual[OneToOne] {
		t.Errorf("one-to-many (%d) worse than one-to-one (%d)",
			residual[OneToMany], residual[OneToOne])
	}
}

func TestDeterministic(t *testing.T) {
	run := func() *Result {
		ring := fixture(6, 96, 4)
		res, err := Run(ring, Config{Scheme: OneToOne, Epsilon: 0.05}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MovedLoad != b.MovedLoad || a.Probes != b.Probes || a.Transfers != b.Transfers {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestBestShedVS(t *testing.T) {
	eng := sim.NewEngine(1)
	ring := chord.NewRing(eng, chord.Config{})
	n := ring.AddNode(-1, 10, 4)
	loads := []float64{5, 12, 7, 0}
	for i, vs := range n.VServers() {
		vs.Load = loads[i]
	}
	if vs := bestShedVS(n, 8); vs == nil || vs.Load != 7 {
		t.Fatalf("bestShedVS(8) = %v, want load 7", vs)
	}
	if vs := bestShedVS(n, 100); vs == nil || vs.Load != 12 {
		t.Fatalf("bestShedVS(100) = %v, want load 12", vs)
	}
	if vs := bestShedVS(n, 3); vs != nil {
		t.Fatalf("bestShedVS(3) = %v, want nil", vs)
	}
}
