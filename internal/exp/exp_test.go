package exp

import (
	"reflect"
	"testing"

	"p2plb/internal/core"
	"p2plb/internal/topology"
)

// smallSetup keeps unit tests fast; full-scale runs live in the
// benchmarks and cmd/lbsim.
func smallSetup(seed int64) Setup {
	s := DefaultSetup(seed)
	s.Nodes = 256
	return s
}

func smallTopo(seed int64) topology.Params {
	return topology.Params{
		TransitDomains:        3,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   3,
		StubDomainSizeMean:    40,
		TransitEdgeProb:       0.6,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.42,
		Seed:                  seed,
	}
}

func TestBuildDefaults(t *testing.T) {
	inst, err := Build(smallSetup(1))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Ring.NumVServers() != 256*5 {
		t.Fatalf("VS count %d", inst.Ring.NumVServers())
	}
	if inst.Tree.Root().IsNil() {
		t.Fatal("tree not built")
	}
	if inst.Graph != nil || inst.Mapper != nil {
		t.Fatal("no topology requested but one was built")
	}
	// Loads must be drawn.
	var total float64
	for _, vs := range inst.Ring.VServers() {
		total += vs.Load
	}
	if total <= 0 {
		t.Fatal("no loads assigned")
	}
}

func TestBuildValidation(t *testing.T) {
	s := smallSetup(1)
	s.Nodes = 0
	if _, err := Build(s); err == nil {
		t.Error("zero nodes should fail")
	}
	s = smallSetup(1)
	s.Mode = core.ProximityAware
	if _, err := Build(s); err == nil {
		t.Error("aware mode without topology should fail")
	}
	s = smallSetup(1)
	tp := smallTopo(1)
	s.Topology = &tp
	s.Nodes = 100000
	if _, err := Build(s); err == nil {
		t.Error("more nodes than stub nodes should fail")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallSetup(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallSetup(3))
	if err != nil {
		t.Fatal(err)
	}
	va, vb := a.Ring.VServers(), b.Ring.VServers()
	if len(va) != len(vb) {
		t.Fatal("VS counts differ")
	}
	for i := range va {
		if va[i].ID != vb[i].ID || va[i].Load != vb[i].Load {
			t.Fatal("same seed produced different rings")
		}
	}
}

func TestFig4ShapeSmall(t *testing.T) {
	ba, err := Fig4(smallSetup(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(ba.UnitBefore) != 256 || len(ba.UnitAfter) != 256 {
		t.Fatalf("unit load lengths %d/%d", len(ba.UnitBefore), len(ba.UnitAfter))
	}
	// The paper's headline numbers: ~75% heavy before, none after.
	if p := ba.PercentHeavyBefore(); p < 0.5 || p > 0.95 {
		t.Errorf("percent heavy before = %.2f, want ~0.75", p)
	}
	if ba.Result.HeavyAfter != 0 {
		t.Errorf("heavy after = %d, want 0", ba.Result.HeavyAfter)
	}
}

func TestLoadByCapacitySmall(t *testing.T) {
	for _, pareto := range []bool{false, true} {
		s := smallSetup(5)
		s.Pareto = pareto
		inst, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		before := inst.Balancer.LoadByCapacityClass()
		if _, err := inst.Balancer.RunRound(); err != nil {
			t.Fatal(err)
		}
		after := inst.Balancer.LoadByCapacityClass()
		// After balancing, unit load must become far more uniform across
		// classes: compare the unit-load ratio of the largest to the
		// smallest class before and after.
		classes := after.Classes()
		if len(classes) < 3 {
			t.Skip("profile under-sampled at this scale")
		}
		lo, hi := classes[0], classes[len(classes)-2] // skip rarely-sampled top class
		ratioBefore := (before.Mean(lo) / lo) / (before.Mean(hi) / hi)
		ratioAfter := (after.Mean(lo) / lo) / (after.Mean(hi) / hi)
		if ratioAfter > ratioBefore/5 {
			t.Errorf("pareto=%v: unit-load skew only improved %vx -> %vx",
				pareto, ratioBefore, ratioAfter)
		}
	}
}

func TestMovedLoadDistributionSmall(t *testing.T) {
	dist, err := MovedLoadDistribution(smallTopo, 2, 100, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Aware.Total() <= 0 || dist.Ignorant.Total() <= 0 {
		t.Fatal("no load moved")
	}
	if dist.HeavyResidualAware != 0 || dist.HeavyResidualIgnorant != 0 {
		t.Errorf("residual heavy nodes: %d aware, %d ignorant",
			dist.HeavyResidualAware, dist.HeavyResidualIgnorant)
	}
	aware, ignorant := dist.MeanHops()
	if aware >= ignorant {
		t.Errorf("aware mean hops %.2f >= ignorant %.2f", aware, ignorant)
	}
	// Aware CDF must dominate at short distances.
	if dist.Aware.FractionWithin(2) <= dist.Ignorant.FractionWithin(2) {
		t.Error("aware does not dominate within 2 hops")
	}

	// Small twins of figs 7 and 8: the same drivers on both presets at
	// 256 nodes over two graphs. Their PDFs are pinned bucket for bucket,
	// so a change to the distance oracle, the landmark mapping or the
	// round that moves either figure fails here.
	twins := []struct {
		name            string
		topo            func(int64) topology.Params
		aware, ignorant []float64
	}{
		{
			"ts5k-large", topology.TS5kLarge,
			[]float64{
				0, 0.05925073306339919, 0.10344184186913871, 0, 0, 0, 0, 0.0022315236928279625,
				0.04258556739938581, 0.13280947747171554, 0.1499763918136869, 0.06555271692947415,
				0.09643099139008704, 0.11410524570523019, 0.10205492053446824, 0.04260431773114472,
				0.02597385251741725, 0.0492682553003389, 0.011005025458460362, 0.0027091391232249864,
			},
			[]float64{
				0, 0.005463060386558712, 0.0026305537585584685, 0, 0, 0, 0, 0.0009045552274382123,
				0.024568584009882495, 0.03776156137240651, 0.07988772438575852, 0.046280375794288446,
				0.11534562036373415, 0.17967430200036716, 0.2282113262246297, 0.06270093691299457,
				0.0768635553932122, 0.09106762641808373, 0.03844450794906671, 0.010195709803020307,
			},
		},
		{
			"ts5k-small", topology.TS5kSmall,
			[]float64{
				0, 0.004711127926603918, 0, 0, 0, 0, 0.002818657902808421, 0.012351175295948447,
				0.018384843973656004, 0.019481685303199707, 0.010227399502232367,
				0.022711873869152598, 0.040565211703884885, 0.03416981408224644, 0.03971600072437041,
				0.03060130848088566, 0.05473585682529414, 0.06211743912731475, 0.04350930422850176,
				0.05810755348929794, 0.09636264739072037, 0.07184151017503777, 0.06249872340598713,
				0.07470156959077591, 0.0808777618480571, 0.0632244355469056, 0.0310389280491636,
				0.012904586666873757, 0.018279917593149436, 0.010505922888658295,
				0.007340505086363486, 0.0052112715670516955, 0.0038272499772548678,
				0.0014307089251289061, 0.0005674401870624971, 0.0010552597117058765,
				0.0027755859575089767, 0.0013467229971972318,
			},
			[]float64{
				0, 0.002403222691830261, 0, 0, 0, 0, 0, 0.0005923102830602075, 0.0008911485567836818,
				0.001589243726013337, 0.006020673285119759, 0.003365691406600892,
				0.007565327544882466, 0.00759576929124851, 0.014761410304099713, 0.01401087918726681,
				0.04471804959334217, 0.045098599493895754, 0.06506531569515858, 0.07331575939888209,
				0.1220093888348497, 0.07079435994895217, 0.10497814690429177, 0.08959719571825325,
				0.08124120270491554, 0.0594947793964999, 0.05325253595784611, 0.03757545705651328,
				0.026283489049269318, 0.02180228098814007, 0.018931582617857982,
				0.010888301330555818, 0.007913332310713086, 0.0049650353450676355,
				0.003279511378090244,
			},
		},
	}
	for _, tw := range twins {
		dist, err := MovedLoadDistribution(tw.topo, 2, 1, 256, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := dist.Aware.PDF(); !reflect.DeepEqual(got, tw.aware) {
			t.Errorf("%s aware PDF = %#v, want %#v", tw.name, got, tw.aware)
		}
		if got := dist.Ignorant.PDF(); !reflect.DeepEqual(got, tw.ignorant) {
			t.Errorf("%s ignorant PDF = %#v, want %#v", tw.name, got, tw.ignorant)
		}
	}
}

func TestMovedLoadDistributionErrors(t *testing.T) {
	if _, err := MovedLoadDistribution(smallTopo, 0, 1, 128, nil); err == nil {
		t.Error("zero graphs should fail")
	}
}

func TestVSATimesScaling(t *testing.T) {
	rows, err := VSATimes([]int{2, 8}, []int{64, 256}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byKey := map[[2]int]PhaseTimes{}
	for _, r := range rows {
		byKey[[2]int{r.K, r.Nodes}] = r
		if r.LBIUp <= 0 || r.VSADone < r.LBIDown {
			t.Errorf("implausible times: %+v", r)
		}
	}
	// Higher K gives a shallower tree.
	if byKey[[2]int{8, 256}].TreeHeight >= byKey[[2]int{2, 256}].TreeHeight {
		t.Error("K=8 tree not shallower than K=2")
	}
	// 4x nodes must not cost 4x VSA time (logarithmic growth).
	if byKey[[2]int{2, 256}].VSADone > 3*byKey[[2]int{2, 64}].VSADone {
		t.Errorf("VSA time grew superlogarithmically: %d -> %d",
			byKey[[2]int{2, 64}].VSADone, byKey[[2]int{2, 256}].VSADone)
	}
}

func TestFig4Driver(t *testing.T) {
	// Fig4 at reduced scale, plus sanity on the percentage helper.
	ba, err := Fig4(smallSetup(20))
	if err != nil {
		t.Fatal(err)
	}
	p := ba.PercentHeavyBefore()
	if p <= 0 || p >= 1 {
		t.Fatalf("PercentHeavyBefore = %v", p)
	}
	empty := &BeforeAfter{Result: &core.Result{}}
	if empty.PercentHeavyBefore() != 0 {
		t.Fatal("empty census should report 0")
	}
}

func TestLoadByCapacityDriver(t *testing.T) {
	// LoadByCapacity at the paper's scale, the run `lbsim -fig 5` prints.
	rows, res, err := LoadByCapacity(DefaultSetup(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyAfter != 0 {
		t.Errorf("heavy after = %d", res.HeavyAfter)
	}
	if len(rows) < 4 {
		t.Fatalf("only %d capacity rows", len(rows))
	}
	var totalNodes int
	for _, r := range rows {
		totalNodes += r.Nodes
		if r.MeanAfter < 0 || r.UnitAfter < 0 {
			t.Fatalf("negative row values: %+v", r)
		}
	}
	if totalNodes != 4096 {
		t.Fatalf("rows cover %d nodes, want 4096", totalNodes)
	}
	// Unit load after must be far more uniform than before across the
	// mid classes.
	var r10, r1000 CapacityClassRow
	for _, r := range rows {
		if r.Capacity == 10 {
			r10 = r
		}
		if r.Capacity == 1000 {
			r1000 = r
		}
	}
	if r1000.UnitBefore/r10.UnitBefore > 0.2 {
		t.Error("fixture not skewed before balancing")
	}
	if ratio := r1000.UnitAfter / r10.UnitAfter; ratio < 0.5 || ratio > 4 {
		t.Errorf("unit-load ratio after = %v, want near 1", ratio)
	}
}

func TestVSATimesErrors(t *testing.T) {
	if _, err := VSATimes([]int{1}, []int{64}, 1, nil); err == nil {
		t.Error("K=1 should fail")
	}
	if _, err := VSATimes([]int{2}, []int{0}, 1, nil); err == nil {
		t.Error("zero nodes should fail")
	}
}

func TestChurnSensitivity(t *testing.T) {
	rows, err := ChurnSensitivity(30, 128, []int{0, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Failed > 0 {
			t.Errorf("churn %d: %d rounds failed", r.Churn, r.Failed)
		}
		if r.Rounds < 4 {
			t.Errorf("churn %d: only %d rounds ran", r.Churn, r.Rounds)
		}
	}
	// Churn keeps creating imbalance: the churned system should keep
	// finding heavy nodes in steady state while the static one is done
	// after round one.
	if rows[1].MeanHeavyBefore <= rows[0].MeanHeavyBefore {
		t.Errorf("churned system (%v heavy/round) not busier than static (%v)",
			rows[1].MeanHeavyBefore, rows[0].MeanHeavyBefore)
	}
	if rows[1].MeanHeavyAfter > rows[1].MeanHeavyBefore/2 {
		t.Errorf("rounds not absorbing churn: %v -> %v heavy",
			rows[1].MeanHeavyBefore, rows[1].MeanHeavyAfter)
	}
	// The exact rows, so that a change to how the sweep schedules its
	// rounds is checked against the scheduler it replaces, not only
	// against itself.
	want := []ChurnRow{
		{Churn: 0, Rounds: 5},
		{Churn: 4, Rounds: 5, MeanHeavyBefore: 18.5, MovedPerRound: 491.0636617984857},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("churn rows moved:\n got %+v\nwant %+v", rows, want)
	}
}

func TestChurnSensitivityValidation(t *testing.T) {
	if _, err := ChurnSensitivity(1, 64, []int{0}, 1); err == nil {
		t.Error("single round should fail")
	}
	if _, err := ChurnSensitivity(1, 64, []int{64}, 3); err == nil {
		t.Error("excessive churn rate should fail")
	}
	if _, err := ChurnSensitivity(1, 64, []int{-1}, 3); err == nil {
		t.Error("negative churn rate should fail")
	}
}

// TestChurnOnTopology is the regression test for the churn/underlay
// latency bug: on a topology-backed instance (ts5k-small), joiners used
// to arrive with the -1 "no underlay" sentinel, and the first latency
// query involving one read Distances.Between(-1, ...). Joiners now take
// real stub positions, so the churn sweep must complete without panics.
func TestChurnOnTopology(t *testing.T) {
	s := DefaultSetup(40)
	s.Nodes = 96
	tp := topology.TS5kSmall(40)
	s.Topology = &tp
	rows, err := ChurnSensitivitySetup(s, []int{3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Failed > 0 {
		t.Errorf("%d rounds failed under topology-backed churn", rows[0].Failed)
	}
	if rows[0].Rounds < 2 {
		t.Errorf("only %d rounds ran", rows[0].Rounds)
	}
}
