package exp

import (
	"fmt"

	"p2plb/internal/core"
	"p2plb/internal/metrics"
	"p2plb/internal/par"
	"p2plb/internal/stats"
	"p2plb/internal/topology"
)

// BeforeAfter is the Figure 4 payload: per-node unit loads (load divided
// by capacity) before and after one load-balancing round.
type BeforeAfter struct {
	UnitBefore []float64
	UnitAfter  []float64
	Result     *core.Result
}

// PercentHeavyBefore returns the share of nodes that were heavy before
// the round (the paper reports about 75%).
func (b *BeforeAfter) PercentHeavyBefore() float64 {
	total := b.Result.HeavyBefore + b.Result.LightBefore + b.Result.NeutralBefore
	if total == 0 {
		return 0
	}
	return float64(b.Result.HeavyBefore) / float64(total)
}

// Fig4 reproduces Figure 4 on s: the per-node unit loads before and
// after one load-balancing round (the paper's Gaussian load model and
// no underlay, at DefaultSetup).
func Fig4(s Setup) (*BeforeAfter, error) {
	inst, err := Build(s)
	if err != nil {
		return nil, err
	}
	out := &BeforeAfter{UnitBefore: inst.Balancer.UnitLoads()}
	out.Result, err = inst.Balancer.RunRound()
	if err != nil {
		return nil, err
	}
	out.UnitAfter = inst.Balancer.UnitLoads()
	return out, nil
}

// CapacityClassRow is one row of the Figure 5/6 data: per capacity
// class, the node count and the mean load before and after balancing.
type CapacityClassRow struct {
	Capacity   float64
	Nodes      int
	MeanBefore float64
	MeanAfter  float64
	// UnitBefore/UnitAfter are the mean unit loads (load/capacity);
	// after balancing these should be nearly equal across classes —
	// the "aligned skews".
	UnitBefore float64
	UnitAfter  float64
}

// LoadByCapacity reproduces Figures 5 (Gaussian) and 6 (s.Pareto) on
// s: the distribution of load across node-capacity classes before and
// after one load-balancing round.
func LoadByCapacity(s Setup) ([]CapacityClassRow, *core.Result, error) {
	inst, err := Build(s)
	if err != nil {
		return nil, nil, err
	}
	before := inst.Balancer.LoadByCapacityClass()
	res, err := inst.Balancer.RunRound()
	if err != nil {
		return nil, nil, err
	}
	after := inst.Balancer.LoadByCapacityClass()
	var rows []CapacityClassRow
	for _, c := range before.Classes() {
		rows = append(rows, CapacityClassRow{
			Capacity:   c,
			Nodes:      before.Count(c),
			MeanBefore: before.Mean(c),
			MeanAfter:  after.Mean(c),
			UnitBefore: before.Mean(c) / c,
			UnitAfter:  after.Mean(c) / c,
		})
	}
	return rows, res, nil
}

// MovedLoadDist is the Figure 7/8 payload: the distribution of moved
// load over transfer distance for the proximity-aware and the
// proximity-ignorant approach, aggregated over several graph instances.
type MovedLoadDist struct {
	Aware    *stats.WeightedHistogram
	Ignorant *stats.WeightedHistogram
	// Graphs is the number of topology instances aggregated.
	Graphs int
	// HeavyResidualAware/Ignorant count nodes still heavy after the
	// round, summed over instances (should be 0).
	HeavyResidualAware    int
	HeavyResidualIgnorant int
}

// MeanHops returns the load-weighted mean transfer distance per mode.
func (m *MovedLoadDist) MeanHops() (aware, ignorant float64) {
	mean := func(h *stats.WeightedHistogram) float64 {
		if h.Total() == 0 {
			return 0
		}
		var hw float64
		for b := 0; b <= h.MaxBucket(); b++ {
			hw += float64(b) * h.Weight(b)
		}
		return hw / h.Total()
	}
	return mean(m.Aware), mean(m.Ignorant)
}

// MovedLoadDistribution reproduces Figures 7 and 8: run one
// load-balancing round per mode on `graphs` independent topology
// instances (the paper runs 10 graphs per topology) and aggregate the
// moved-load-versus-distance histograms. Both modes of one seed share
// its generated graph and distance tables. Instances run in parallel; a
// non-nil registry is shared across all of them (its primitives are
// concurrency-safe), so one snapshot covers the whole sweep.
func MovedLoadDistribution(topo func(seed int64) topology.Params, graphs int, seedBase int64, nodes int, reg *metrics.Registry) (*MovedLoadDist, error) {
	if graphs < 1 {
		return nil, fmt.Errorf("exp: need at least one graph instance")
	}
	seeds := make([]int64, graphs)
	for g := range seeds {
		seeds[g] = seedBase + int64(g)
	}
	modes := [2]core.Mode{core.ProximityAware, core.ProximityIgnorant}
	results, err := par.MapErr(seeds, 0, func(seed int64) (out [2]*core.Result, err error) {
		p := topo(seed)
		u, err := newUnderlay(p, seed)
		if err != nil {
			return out, err
		}
		for i, mode := range modes {
			s := DefaultSetup(seed)
			s.Nodes = nodes
			s.Topology = &p
			s.Mode = mode
			s.Metrics = reg
			inst, err := build(s, u)
			if err != nil {
				return out, err
			}
			if out[i], err = inst.Balancer.RunRound(); err != nil {
				return out, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := &MovedLoadDist{
		Aware:    &stats.WeightedHistogram{},
		Ignorant: &stats.WeightedHistogram{},
		Graphs:   graphs,
	}
	for _, r := range results {
		aware, ignorant := r[0], r[1]
		out.Aware.Merge(aware.MovedByHops)
		out.HeavyResidualAware += aware.HeavyAfter
		out.Ignorant.Merge(ignorant.MovedByHops)
		out.HeavyResidualIgnorant += ignorant.HeavyAfter
	}
	return out, nil
}

// PhaseTimes is one row of the VSA-time experiment (§5.2's
// "VSA completes quickly in O(log_K N) time" claim).
type PhaseTimes struct {
	K          int
	Nodes      int
	VServers   int
	TreeHeight int
	LBIUp      int64
	LBIDown    int64
	VSADone    int64 // from round start
	VSTDone    int64
}

// VSATimes measures phase completion times for the given tree degrees
// and system sizes under the default Gaussian workload. A non-nil
// registry is shared by every run. The (K, size) cells run in parallel;
// each builds its own engine from the seed, so every row is identical
// to what the sequential sweep produced and rows keep the ks-major,
// sizes-minor order.
func VSATimes(ks []int, sizes []int, seed int64, reg *metrics.Registry) ([]PhaseTimes, error) {
	type cell struct{ k, n int }
	var cells []cell
	for _, k := range ks {
		for _, n := range sizes {
			cells = append(cells, cell{k, n})
		}
	}
	return par.MapErr(cells, 0, func(c cell) (PhaseTimes, error) {
		s := DefaultSetup(seed)
		s.Nodes = c.n
		s.K = c.k
		s.Metrics = reg
		inst, err := Build(s)
		if err != nil {
			return PhaseTimes{}, err
		}
		res, err := inst.Balancer.RunRound()
		if err != nil {
			return PhaseTimes{}, err
		}
		return PhaseTimes{
			K:          c.k,
			Nodes:      c.n,
			VServers:   c.n * s.VSPerNode,
			TreeHeight: res.TreeHeight,
			LBIUp:      int64(res.TimeLBIAggregate),
			LBIDown:    int64(res.TimeLBIDisseminate),
			VSADone:    int64(res.TimeVSAComplete),
			VSTDone:    int64(res.TimeVSTComplete),
		}, nil
	})
}
