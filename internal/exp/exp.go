// Package exp is the experiment harness: it assembles rings, trees,
// topologies, workloads and balancers into the exact configurations the
// paper evaluates (§5.1), and drives the runs behind every figure.
// Both cmd/lbsim and the repository's benchmarks call into it, so the
// printed tables and the benchmark numbers come from the same code.
//
// The paper's setup, reproduced by DefaultSetup: a Chord overlay of
// 4096 nodes, each initially hosting 5 virtual servers, over a 32-bit
// identifier space; a K-nary tree with K = 2 (results for K = 8 are
// similar); Gaussian or Pareto(α=1.5) virtual-server loads; the
// Gnutella-like capacity profile; 15 landmark nodes; and the ts5k-large
// / ts5k-small transit-stub topologies (10 graph instances each).
package exp

import (
	"fmt"
	"math/rand"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/metrics"
	"p2plb/internal/proximity"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

// UseDefault marks a Setup field whose zero value is meaningful
// (Epsilon, Sigma) as "use the package default". Zero is taken
// literally for those fields: Epsilon = 0 really runs the balancer at
// ε = 0 and Sigma = 0 draws a deterministic load. DefaultSetup seeds
// them with UseDefault.
const UseDefault = -1

// Setup parameterizes one experiment instance.
type Setup struct {
	Nodes     int // DHT nodes (paper: 4096)
	VSPerNode int // initial virtual servers per node (paper: 5)
	K         int // K-nary tree degree (paper: 2, also 8)
	Seed      int64

	// Mu is the mean of the total system load; Sigma its standard
	// deviation (Gaussian model). Mu = 0 defaults to Nodes·100; a
	// negative Sigma (UseDefault) becomes Mu/200, while Sigma = 0 is
	// honoured as a zero-variance load.
	Mu, Sigma float64
	// Pareto selects the Pareto(α=1.5) load model instead of Gaussian.
	Pareto bool

	// Epsilon is the target slack. Negative (UseDefault) becomes the
	// paper's 0.05; an explicit 0 is honoured — perfect-proportionality
	// targets.
	Epsilon             float64
	RendezvousThreshold int // 0 → paper default 30

	// Topology embeds the overlay in an underlay; nil runs without one
	// (constant unit latency — Figures 4-6 do not need an underlay).
	Topology *topology.Params
	// Landmarks and HilbertBits configure the proximity mapping
	// (defaults 15 and 2). Only used when Topology is set.
	Landmarks   int
	HilbertBits int
	// QuantileGrid places landmark-space cell edges at distance
	// quantiles instead of the paper's equal-size cells; kept as an
	// ablation (see DESIGN.md) — equal-size cells with bits=4 perform
	// better end to end.
	QuantileGrid bool

	Mode core.Mode

	// Metrics, when set, is attached to the instance's engine so the run
	// records counters, histograms and series (see internal/metrics).
	// The registry may be shared across instances (multi-trial sweeps);
	// snapshots then aggregate all of them.
	Metrics *metrics.Registry
}

// DefaultSetup returns the paper's baseline configuration (no underlay).
// Epsilon and Sigma start at UseDefault so fill resolves them to the
// paper values (0.05 and Mu/200); set either to 0 explicitly to run
// with zero slack or zero variance.
func DefaultSetup(seed int64) Setup {
	return Setup{Nodes: 4096, VSPerNode: 5, K: 2, Seed: seed,
		Epsilon: UseDefault, Sigma: UseDefault}
}

func (s *Setup) fill() {
	if s.Mu == 0 {
		s.Mu = float64(s.Nodes) * 100
	}
	if s.Sigma < 0 {
		s.Sigma = s.Mu / 200
	}
	if s.Landmarks == 0 {
		s.Landmarks = proximity.DefaultLandmarkCount
	}
	if s.HilbertBits == 0 {
		s.HilbertBits = proximity.DefaultBitsPerDimension
	}
	if s.Epsilon < 0 {
		s.Epsilon = 0.05
	}
	if s.K == 0 {
		s.K = 2
	}
}

// Instance is a fully assembled experiment: ring, tree, balancer and
// (optionally) the underlay pieces.
type Instance struct {
	Setup    Setup
	Engine   *sim.Engine
	Ring     *chord.Ring
	Tree     *ktree.Tree
	Balancer *core.Balancer

	Graph *topology.Graph // nil without an underlay
	// HopDistances answers transfer-distance queries in the paper's hop
	// convention (figures); LatDistances answers latency queries used
	// for message timing and landmark measurement.
	HopDistances *topology.Distances
	LatDistances *topology.Distances
	Mapper       *proximity.Mapper // nil unless proximity-aware
}

// underlay is a generated topology with its two distance tables.
// Nothing writes to it once made, so instances can share it.
type underlay struct {
	graph    *topology.Graph
	hop, lat *topology.Distances
}

// newUnderlay generates p at seed and builds both distance tables.
// Generate draws from the seed alone, never from an engine's stream, so
// every instance of one seed can share what this returns.
func newUnderlay(p topology.Params, seed int64) (*underlay, error) {
	p.Seed = seed
	g, err := topology.Generate(p)
	if err != nil {
		return nil, err
	}
	return &underlay{graph: g, hop: topology.NewDistances(g),
		lat: topology.NewDistancesMetric(g, topology.LatencyMetric)}, nil
}

// Build assembles an Instance: generate the underlay (if any), create
// the loaded ring (workload.NewRing: Gnutella-like capacities, loads
// from the load model by each VS's identifier-space fraction), build the
// K-nary tree, choose landmarks, and wire up the balancer.
func Build(s Setup) (*Instance, error) {
	var u *underlay
	if s.Topology != nil {
		var err error
		if u, err = newUnderlay(*s.Topology, s.Seed); err != nil {
			return nil, err
		}
	}
	return build(s, u)
}

// build is Build over u, the underlay s.Topology generates at s.Seed
// (nil without one).
func build(s Setup, u *underlay) (*Instance, error) {
	s.fill()
	if s.Nodes < 1 || s.VSPerNode < 1 {
		return nil, fmt.Errorf("exp: need at least one node and one VS per node")
	}
	inst := &Instance{Setup: s}
	inst.Engine = sim.NewEngine(s.Seed)
	inst.Engine.SetMetrics(s.Metrics)

	spec := workload.RingSpec{Nodes: s.Nodes, VSPerNode: s.VSPerNode}
	var underlays []topology.NodeID
	if u != nil {
		g := u.graph
		if len(g.StubNodes()) < s.Nodes {
			return nil, fmt.Errorf("exp: topology has %d stub nodes, need %d",
				len(g.StubNodes()), s.Nodes)
		}
		inst.Graph = g
		inst.HopDistances = u.hop
		inst.LatDistances = u.lat
		spec.Latency = chord.TopologyLatency(inst.LatDistances)
		underlays = g.SampleStubNodes(inst.Engine.Rand(), s.Nodes)
		spec.Underlay = func(i int) topology.NodeID { return underlays[i] }
	}
	if s.Pareto {
		spec.Loads = workload.Pareto{Alpha: 1.5, Mu: s.Mu}
	} else {
		spec.Loads = workload.Gaussian{Mu: s.Mu, Sigma: s.Sigma}
	}
	// The loads are drawn once, here, so vs.Load is populated for code
	// that reads it before the first round (the before-LB scatter of
	// fig 4), and the balancer's Config.Loads stays nil. Serving
	// experiments hand their runner the observed-request-rate source.
	inst.Ring = workload.NewRing(inst.Engine, spec)

	tree, err := ktree.New(inst.Ring, s.K)
	if err != nil {
		return nil, err
	}
	if err := tree.Build(); err != nil {
		return nil, err
	}
	inst.Tree = tree

	cfg := core.Config{
		Mode:                s.Mode,
		Epsilon:             s.Epsilon,
		RendezvousThreshold: s.RendezvousThreshold,
	}
	if inst.Graph != nil {
		hops := inst.HopDistances
		cfg.TransferCost = func(from, to *chord.Node) int {
			if from == to || from.Underlay == to.Underlay {
				return 0
			}
			return int(hops.Between(from.Underlay, to.Underlay))
		}
	}
	if s.Mode == core.ProximityAware {
		if inst.Graph == nil {
			return nil, fmt.Errorf("exp: proximity-aware mode requires a topology")
		}
		lm, err := proximity.ChooseSpread(inst.Graph, inst.LatDistances,
			rand.New(rand.NewSource(s.Seed+7919)), s.Landmarks)
		if err != nil {
			return nil, err
		}
		inst.Mapper, err = proximity.NewMapper(lm, s.HilbertBits)
		if err != nil {
			return nil, err
		}
		if s.QuantileGrid {
			if err := inst.Mapper.UseQuantileGrid(underlays); err != nil {
				return nil, err
			}
		}
		cfg.Mapper = inst.Mapper
	}
	inst.Balancer, err = core.NewBalancer(inst.Ring, tree, cfg)
	if err != nil {
		return nil, err
	}
	return inst, nil
}
