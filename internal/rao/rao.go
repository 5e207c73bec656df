// Package rao implements the three virtual-server load-balancing
// schemes of Rao, Lakshminarayanan, Surana, Karp and Stoica ("Load
// Balancing in Structured P2P Systems", IPTPS 2003) — the prior work
// the paper extends (§1.1). They move load heavy→light in units of
// virtual servers, like the paper's scheme, but rendezvous differently
// and ignore physical proximity entirely:
//
//   - OneToOne: each light node probes random DHT keys; when a probe
//     lands on a heavy node, one virtual server moves to the prober.
//   - OneToMany: light nodes register with random directory nodes;
//     each heavy node queries one directory and sheds to the best-fit
//     registered light nodes.
//   - ManyToMany: directories aggregate many heavy and light nodes and
//     run a global best-fit matching (the strongest of the three).
//
// Running them over the same ring, workload and target definition as
// internal/core isolates exactly what the paper's tree rendezvous and
// proximity guidance add: compare convergence rounds, probe traffic,
// and the moved-load-versus-distance histograms.
package rao

import (
	"fmt"
	"math"
	"sort"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ident"
	"p2plb/internal/sim"
	"p2plb/internal/stats"
)

// Scheme selects one of the three Rao et al. schemes.
type Scheme int

// Schemes.
const (
	OneToOne Scheme = iota
	OneToMany
	ManyToMany
)

func (s Scheme) String() string {
	switch s {
	case OneToOne:
		return "one-to-one"
	case OneToMany:
		return "one-to-many"
	default:
		return "many-to-many"
	}
}

// Message kinds counted on the engine.
const (
	MsgProbe    = "rao.probe"    // a light node's random probe (routed lookup)
	MsgRegister = "rao.register" // light node → directory registration
	MsgQuery    = "rao.query"    // heavy node → directory query
	MsgTransfer = "rao.transfer" // virtual server movement
)

// Config parameterizes a run.
type Config struct {
	Scheme Scheme
	// Epsilon is the target slack, as in core.Config.
	Epsilon float64
	// TransferCost reports transfer distance for the histogram (same
	// semantics as core.Config.TransferCost). nil uses ring latency.
	TransferCost func(from, to *chord.Node) int
}

// probesPerLight is how many random probes each light node sends per
// round (OneToOne); numDirectories is the number of directory nodes
// (OneToMany, ManyToMany).
const (
	probesPerLight = 16
	numDirectories = 16
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Epsilon < 0 {
		return fmt.Errorf("rao: negative epsilon %v", c.Epsilon)
	}
	if c.Scheme < OneToOne || c.Scheme > ManyToMany {
		return fmt.Errorf("rao: unknown scheme %d", int(c.Scheme))
	}
	return nil
}

// Result reports a run.
type Result struct {
	Scheme Scheme
	// Rounds executed before convergence (no heavy nodes) or the cap.
	Rounds    int
	Converged bool
	// Probes counts OneToOne random probes; ProbeHits how many landed
	// on a heavy node.
	Probes    int
	ProbeHits int
	// Transfers and MovedLoad mirror core.Result.
	Transfers   int
	MovedLoad   float64
	MovedByHops *stats.WeightedHistogram
	HeavyStart  int
	HeavyEnd    int
}

// Run executes rounds of the chosen scheme until no node is heavy or
// maxRounds is reached.
func Run(ring *chord.Ring, cfg Config, maxRounds int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ring.NumVServers() == 0 {
		return nil, fmt.Errorf("rao: ring has no virtual servers")
	}
	if maxRounds < 1 {
		return nil, fmt.Errorf("rao: need at least one round")
	}
	r := &runner{ring: ring, cfg: cfg, eng: ring.Engine()}
	res := &Result{Scheme: cfg.Scheme, MovedByHops: &stats.WeightedHistogram{}}
	res.HeavyStart = len(r.heavyNodes())
	for res.Rounds = 0; res.Rounds < maxRounds; res.Rounds++ {
		if len(r.heavyNodes()) == 0 {
			res.Converged = true
			break
		}
		switch cfg.Scheme {
		case OneToOne:
			r.oneToOneRound(res)
		case OneToMany:
			r.oneToManyRound(res)
		case ManyToMany:
			r.manyToManyRound(res)
		}
	}
	res.HeavyEnd = len(r.heavyNodes())
	res.Converged = res.Converged || res.HeavyEnd == 0
	return res, nil
}

type runner struct {
	ring *chord.Ring
	cfg  Config
	eng  *sim.Engine
}

// global computes the <L, C, Lmin> tuple the targets derive from.
func (r *runner) global() core.LBI {
	var g core.LBI
	for _, n := range r.ring.Nodes() {
		if n.Alive {
			g = g.Merge(core.NodeLBI(n))
		}
	}
	return g
}

func (r *runner) target(n *chord.Node, g core.LBI) float64 {
	if g.C <= 0 {
		return 0
	}
	return (1 + r.cfg.Epsilon) * n.Capacity * (g.L / g.C)
}

func (r *runner) heavyNodes() []*chord.Node {
	g := r.global()
	var out []*chord.Node
	for _, n := range r.ring.Nodes() {
		if n.Alive && n.TotalLoad() > r.target(n, g) {
			out = append(out, n)
		}
	}
	return out
}

func (r *runner) lightNodes(g core.LBI) []*chord.Node {
	var out []*chord.Node
	for _, n := range r.ring.Nodes() {
		if !n.Alive {
			continue
		}
		if gap := r.target(n, g) - n.TotalLoad(); gap >= g.Lmin && gap > 0 {
			out = append(out, n)
		}
	}
	return out
}

// transfer moves vs to the light node and records it.
func (r *runner) transfer(vs *chord.VServer, to *chord.Node, res *Result) {
	from := vs.Owner
	hops := 0
	if r.cfg.TransferCost != nil {
		hops = r.cfg.TransferCost(from, to)
	} else {
		hops = int(r.ring.Latency(from, to))
	}
	r.eng.CountMessage(MsgTransfer, r.ring.Latency(from, to)+1)
	r.ring.Transfer(vs, to)
	res.Transfers++
	res.MovedLoad += vs.Load
	res.MovedByHops.Add(hops, vs.Load)
}

// bestShedVS returns the heaviest virtual server of the heavy node that
// fits within the light node's deficit (Rao et al.: "transfer the
// heaviest virtual server that would not overload the light node"), or
// nil if none fits.
func bestShedVS(heavy *chord.Node, deficit float64) *chord.VServer {
	var best *chord.VServer
	for _, vs := range heavy.VServers() {
		if vs.Load <= deficit && vs.Load > 0 && (best == nil || vs.Load > best.Load) {
			best = vs
		}
	}
	return best
}

// oneToOneRound: each light node issues random probes; probes landing
// on heavy nodes trigger one transfer each.
func (r *runner) oneToOneRound(res *Result) {
	g := r.global()
	probeCost := sim.Time(math.Ceil(math.Log2(float64(r.ring.NumVServers() + 1))))
	for _, light := range r.lightNodes(g) {
		deficit := r.target(light, g) - light.TotalLoad()
		for p := 0; p < probesPerLight && deficit >= g.Lmin; p++ {
			res.Probes++
			r.eng.CountMessage(MsgProbe, probeCost)
			key := ident.ID(r.eng.Rand().Uint32())
			owner := r.ring.Successor(key).Owner
			if owner == light || owner.TotalLoad() <= r.target(owner, g) {
				continue
			}
			res.ProbeHits++
			vs := bestShedVS(owner, deficit)
			if vs == nil {
				continue
			}
			r.transfer(vs, light, res)
			deficit -= vs.Load
		}
	}
}

// directories picks the directory-hosting nodes for this round
// (deterministically random distinct alive nodes).
func (r *runner) directories() []*chord.Node {
	alive := r.ring.AliveNodes()
	k := numDirectories
	if k > len(alive) {
		k = len(alive)
	}
	perm := r.eng.Rand().Perm(len(alive))
	out := make([]*chord.Node, k)
	for i := 0; i < k; i++ {
		out[i] = alive[perm[i]]
	}
	return out
}

// oneToManyRound: light nodes register at one random directory; each
// heavy node queries one random directory and sheds its excess to the
// best-fitting registered lights.
func (r *runner) oneToManyRound(res *Result) {
	g := r.global()
	dirs := r.directories()
	if len(dirs) == 0 {
		return
	}
	type reg struct {
		node    *chord.Node
		deficit float64
	}
	regs := make([][]reg, len(dirs))
	for _, light := range r.lightNodes(g) {
		d := r.eng.Rand().Intn(len(dirs))
		r.eng.CountMessage(MsgRegister, r.ring.Latency(light, dirs[d])+1)
		regs[d] = append(regs[d], reg{light, r.target(light, g) - light.TotalLoad()})
	}
	for d := range regs {
		sort.Slice(regs[d], func(i, j int) bool {
			if regs[d][i].deficit != regs[d][j].deficit {
				return regs[d][i].deficit < regs[d][j].deficit
			}
			return regs[d][i].node.Index < regs[d][j].node.Index
		})
	}
	for _, heavy := range r.heavyNodes() {
		d := r.eng.Rand().Intn(len(dirs))
		r.eng.CountMessage(MsgQuery, r.ring.Latency(heavy, dirs[d])+1)
		excess := heavy.TotalLoad() - r.target(heavy, g)
		for excess > 0 {
			// Shed the heaviest VS that fits some registered light.
			var vs *chord.VServer
			pick := -1
			for _, cand := range heavy.VServers() {
				if cand.Load <= 0 {
					continue
				}
				i := sort.Search(len(regs[d]), func(i int) bool {
					return regs[d][i].deficit >= cand.Load
				})
				if i == len(regs[d]) {
					continue
				}
				if vs == nil || cand.Load > vs.Load {
					vs, pick = cand, i
				}
			}
			if vs == nil {
				break
			}
			light := regs[d][pick]
			r.transfer(vs, light.node, res)
			excess -= vs.Load
			regs[d] = append(regs[d][:pick], regs[d][pick+1:]...)
			if rest := light.deficit - vs.Load; rest >= g.Lmin {
				i := sort.Search(len(regs[d]), func(i int) bool { return regs[d][i].deficit >= rest })
				regs[d] = append(regs[d], reg{})
				copy(regs[d][i+1:], regs[d][i:])
				regs[d][i] = reg{light.node, rest}
			}
		}
	}
}

// manyToManyRound: all heavy offers and light deficits meet in a global
// pool (the idealized many-to-many directory) and run the shared
// best-fit pairing.
func (r *runner) manyToManyRound(res *Result) {
	g := r.global()
	pl := &core.PairList{}
	dirs := r.directories()
	dir := dirs[0]
	for _, light := range r.lightNodes(g) {
		r.eng.CountMessage(MsgRegister, r.ring.Latency(light, dir)+1)
		pl.AddLight(r.target(light, g)-light.TotalLoad(), light, 0)
	}
	for _, heavy := range r.heavyNodes() {
		r.eng.CountMessage(MsgQuery, r.ring.Latency(heavy, dir)+1)
		st := core.ClassifyNode(heavy, g, r.cfg.Epsilon, core.SubsetAuto)
		for _, vs := range st.Offers {
			pl.AddOffer(vs, heavy, 0)
		}
	}
	for _, p := range pl.Pair(g.Lmin) {
		r.transfer(p.VS, p.To, res)
	}
}
