// Package serve is the heavy-traffic serving layer over the balanced
// ring: it replays a workload.RequestPlan — an open-loop stream of
// Zipf-popularity get/put requests — against internal/chord +
// internal/objects, measuring per-request lookup and service latency
// while balancing rounds run concurrently on the same deterministic
// engine.
//
// This is where "load" stops being an assigned scalar: each request's
// service work is credited to the virtual server that absorbed it, a
// windowed EWMA turns those credits into a decayed observed request
// rate, and the Server itself is a core.LoadSource — every balancing
// round classifies against what the traffic actually did, not what a
// model once sampled (the Mirrezaei–Shahparian regime: loads drift
// between rounds).
//
// Three accelerations sit on the request path, all deterministic:
//
//   - a chord.LookupCache turns repeat lookups of hot keys into single
//     overlay hops (invalidated on transfer/churn, validated at
//     arrival — see internal/chord/cache.go);
//   - the head of the Zipf curve is replicated: every promoteEvery
//     ticks the most-requested objects get rate-sized replica sets on
//     distinct ring successors, and hot requests spread across the
//     slots by capacity-weighted round-robin (puts multi-master with a
//     bounded write-through to the strongest peers);
//   - the object population is bulk-loaded (objects.Store.BulkInsert)
//     with the plan's analytic popularity weights, priming the observed
//     rates so the first round classifies sensibly and warm-starting
//     the hot set before the first arrival (see primePromote).
//
// Service is a per-node FIFO queue: a request occupies its serving node
// for work/capacity ticks after the queue drains — slow peers back up,
// which is exactly the tail the balancer is supposed to flatten.
package serve

import (
	"fmt"
	"math"
	"sort"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/metrics"
	"p2plb/internal/objects"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Plan is the request workload. Required.
	Plan workload.PlanSpec
	// Work is the service work of a get, in capacity·tick units: a node
	// of capacity C serves it in Work/C ticks. Default 1000 (the
	// Gnutella profile's dial-up peers are then genuinely slow).
	Work float64
	// CacheSize is the per-origin-node lookup cache capacity. 0 means
	// the chord default (128); negative disables the cache entirely
	// (the uncached baseline the hops claim is pinned against).
	CacheSize int
	// Warmup excludes requests arriving before this virtual time from
	// the latency summaries (they are still served, still occupy queues
	// and still feed the observed rates). Every variant shares the same
	// initial placement, so the transient before the balancer and the
	// hot-set promotion can possibly react — the first promoteEvery and
	// the first few round intervals — measures the same queues in every
	// variant; the steady-state tail is where they differ. Default 0
	// (measure everything).
	Warmup sim.Time
}

func (c *Config) fill() error {
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if c.Work == 0 {
		c.Work = 1000
	}
	if c.Work < 0 {
		return fmt.Errorf("serve: negative work %v", c.Work)
	}
	return nil
}

// The serving layer's fixed tuning.
const (
	// putWorkFactor scales Work for puts (and their replica writes).
	putWorkFactor = 2
	// hotCount is how many of the most-requested objects hold replicas
	// after each promotion pass. It must reach past the Zipf ranks
	// whose single-object rate exceeds what the balancer can place as
	// one virtual server (see replicaCapacity).
	hotCount = 64
	// maxReplicas caps the replica-set size per hot object beyond the
	// owner, placed on distinct-node ring successors. Sets are sized
	// per object from its observed rate (see replicaCapacity); the head
	// of a strong Zipf curve legitimately needs tens of read replicas —
	// no single node, however capable, can absorb 10%+ of all traffic
	// within its fair share.
	maxReplicas = 64
	// replicaCapacity is the capacity class replica slots are sized
	// for: each hot object gets enough slots that one slot's get rate
	// is about the fair-share load of a node with this capacity. Too
	// small wastes replicas; too large recreates the unassignable-VS
	// problem replication exists to solve. 1000 is the Gnutella
	// profile's "server-class" tier, 4.9% of nodes.
	replicaCapacity = 1000
	// promoteEvery is the interval between hot-set promotions.
	promoteEvery sim.Time = 2000
	// window is the observation window: per-VS work credits are folded
	// into the EWMA rate once per window.
	window sim.Time = 500
	// ewmaAlpha is the EWMA smoothing factor in (0, 1].
	ewmaAlpha = 0.3
)

// writeReplicas bounds how many replicas a put writes through to —
// durability fan-out, independent of the read set's size.
const writeReplicas = 2

// RoundRunner starts message-level balancing rounds on the engine; it
// is the face of protocol.Runner the server needs.
type RoundRunner interface {
	StartRound(done func(*protocol.Result, error)) error
}

// Server replays a request plan against a ring.
type Server struct {
	eng   *sim.Engine
	ring  *chord.Ring
	cfg   Config
	plan  *workload.RequestPlan
	store *objects.Store
	cache *chord.LookupCache
	keys  []ident.ID // object index -> identifier-space key

	runner        RoundRunner
	roundInterval sim.Time

	nodes  []*chord.Node
	busy   []float64 // per node Index: queue drain time (fractional ticks); sized at New
	sumCap float64   // total ring capacity, for replica-slot sizing

	// Observation state. obs is indexed by chord.VServer.Slot and sized
	// at New, like busy; the maps are only ever read through point
	// lookups or in sorted order.
	obs     []vsObs
	touched map[int]float64          // object -> requests since last promotion
	reps    map[int][]*chord.VServer // hot object -> replica set
	wrr     map[int][]float64        // hot object -> smooth-WRR credits per slot

	// Per-request samples, in completion order.
	lookupLat  []float64
	serviceLat []float64
	totalLat   []float64

	outstanding int
	planDone    bool
	started     bool
	finished    bool
	cancels     []func()

	served     int
	gets, puts int
	hopSum     int64
	lastFinish float64

	roundErr  error
	rounds    int
	transfers int
	movedLoad float64

	mService *metrics.Histogram
}

// vsObs is one virtual server's observed load: the work credited this
// window and the decayed observed rate.
type vsObs struct {
	vs      *chord.VServer
	win, ew float64
}

// New builds a Server over ring: draws the object keys, bulk-loads the
// primed object store, and sets up the lookup cache. The ring must
// already be populated.
func New(eng *sim.Engine, ring *chord.Ring, cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ring.NumVServers() == 0 {
		return nil, fmt.Errorf("serve: empty ring")
	}
	plan, err := workload.NewRequestPlan(cfg.Plan)
	if err != nil {
		return nil, err
	}
	maxIdx := 0
	for _, n := range ring.Nodes() {
		if n.Index > maxIdx {
			maxIdx = n.Index
		}
	}
	s := &Server{
		eng:     eng,
		ring:    ring,
		cfg:     cfg,
		plan:    plan,
		store:   objects.NewStore(ring),
		nodes:   ring.Nodes(),
		busy:    make([]float64, maxIdx+1),
		obs:     make([]vsObs, ring.NumSlots()),
		touched: make(map[int]float64),
		reps:    make(map[int][]*chord.VServer),
		wrr:     make(map[int][]float64),
	}
	for _, n := range s.nodes {
		s.sumCap += n.Capacity
	}
	s.keys = make([]ident.ID, cfg.Plan.Objects)
	for i := range s.keys {
		s.keys[i] = ident.ID(eng.Rand().Uint32())
	}
	if cfg.CacheSize >= 0 {
		s.cache = chord.NewLookupCache(ring, cfg.CacheSize)
	}
	w := plan.ExpectedWeights()
	objs := make([]objects.Object, len(s.keys))
	for i, k := range s.keys {
		objs[i] = objects.Object{Key: k, Load: w[i] * cfg.Plan.Rate * cfg.Work}
	}
	if err := s.store.BulkInsert(objs); err != nil {
		return nil, err
	}
	// The store credited each VS its expected absorbed rate; start the
	// observation from that prior rather than from zero.
	for _, vs := range ring.VServers() {
		s.obs[vs.Slot()] = vsObs{vs: vs, ew: vs.Load}
	}
	return s, nil
}

// Store exposes the primed object population (tests, experiments).
func (s *Server) Store() *objects.Store { return s.store }

// Cache exposes the lookup cache (nil when disabled).
func (s *Server) Cache() *chord.LookupCache { return s.cache }

// UseBalancer interleaves message-level balancing rounds every interval
// ticks with the request stream. Call before Run. The runner's core
// config should carry this Server as its LoadSource so rounds classify
// against observed rates.
func (s *Server) UseBalancer(r RoundRunner, interval sim.Time) {
	s.runner = r
	s.roundInterval = interval
}

// Refresh implements core.LoadSource: each virtual server's Load
// becomes its decayed observed request rate (work per tick), in
// canonical ring order.
func (s *Server) Refresh(ring *chord.Ring) {
	for _, vs := range ring.VServers() {
		vs.Load = s.obsOf(vs).ew
	}
}

// obsOf returns vs's observation. The server sizes it at New and Run
// freezes membership, so a virtual server that joined since is a bug.
func (s *Server) obsOf(vs *chord.VServer) *vsObs {
	o := &s.obs[vs.Slot()]
	if o.vs != vs {
		panic("serve: virtual server joined after New")
	}
	return o
}

// Name implements core.LoadSource.
func (s *Server) Name() string { return "observed-ewma" }

// Run replays the whole plan on the engine and reports. It may be
// called once. The ring's membership is frozen while the engine runs
// (chord.Ring.FreezeMembership): a join or leave mid-plan panics, and
// interleaved rounds may fork their collect phases beside the request
// traffic.
func (s *Server) Run() (*Report, error) {
	if s.started {
		return nil, fmt.Errorf("serve: server already ran")
	}
	s.started = true
	n := s.cfg.Plan.Requests
	s.lookupLat = make([]float64, 0, n)
	s.serviceLat = make([]float64, 0, n)
	s.totalLat = make([]float64, 0, n)

	first, ok := s.plan.Next()
	if !ok {
		return nil, fmt.Errorf("serve: empty plan")
	}
	s.pump(first)
	s.cancels = append(s.cancels, s.eng.Every(window, s.windowTick))
	s.primePromote()
	s.cancels = append(s.cancels, s.eng.Every(promoteEvery, s.promoteTick))
	if s.runner != nil && s.roundInterval > 0 {
		s.cancels = append(s.cancels, protocol.Every(s.eng, s.roundInterval, s.runner.StartRound, s.roundDue, s.roundDone))
	}
	thaw := s.ring.FreezeMembership()
	defer thaw()
	s.eng.Run()
	if s.roundErr != nil {
		return nil, s.roundErr
	}
	if !s.planDone || s.outstanding != 0 {
		return nil, fmt.Errorf("serve: engine drained with %d requests outstanding (planDone=%v)",
			s.outstanding, s.planDone)
	}
	return s.report(), nil
}

// pump schedules the next planned arrival; each arrival event handles
// its request and pumps the one after it, so the whole plan streams
// through a single in-flight timer.
func (s *Server) pump(r workload.Request) {
	delay := sim.Time(r.At) - s.eng.Now()
	if delay < 0 {
		delay = 0
	}
	s.eng.ScheduleEv(delay, sim.Func(func() {
		s.handle(r)
		if next, ok := s.plan.Next(); ok {
			s.pump(next)
		} else {
			s.planDone = true
			s.maybeFinish()
		}
	}))
}

// handle issues one request: pick the routing target (owner key, or a
// capacity-weighted replica slot for hot objects), resolve it through
// the cached lookup, then queue the service work where the lookup
// landed.
func (s *Server) handle(r workload.Request) {
	s.outstanding++
	origin := s.nodes[r.Origin%len(s.nodes)]
	key := s.keys[r.Object]
	if reps := s.reps[r.Object]; len(reps) > 0 {
		// Hot object: both ops spread over owner + replicas by smooth
		// weighted round-robin, weighted by each slot's current host
		// capacity — a slot the balancer has moved onto a backbone
		// node draws proportionally more traffic, a slot stranded on a
		// dial-up peer draws almost none. Slot 0 is the owner; serving
		// puts at a weighted slot makes hot keys multi-master, with a
		// bounded write-through to the strongest peers (see complete).
		if slot := s.pickSlot(r.Object, reps); slot > 0 {
			// A replica owns its own identifier, so routing to rep.ID
			// resolves (and caches) the replica itself.
			key = reps[slot-1].ID
		}
	}
	s.ring.CachedLookup(s.cache, origin, key, func(res chord.LookupResult) {
		s.complete(r, res)
	})
}

// pickSlot runs one step of smooth weighted round-robin over a hot
// object's slots ([owner, replicas...]), weighted by the slots' current
// host capacities. Deterministic: ties break toward the lowest index.
func (s *Server) pickSlot(obj int, reps []*chord.VServer) int {
	n := len(reps) + 1
	credit := s.wrr[obj]
	if len(credit) != n {
		credit = make([]float64, n)
		s.wrr[obj] = credit
	}
	owner := s.ring.Successor(s.keys[obj])
	var total float64
	best := 0
	for i := 0; i < n; i++ {
		vs := owner
		if i > 0 {
			vs = reps[i-1]
		}
		w := vs.Owner.Capacity
		credit[i] += w
		total += w
		if credit[i] > credit[best] {
			best = i
		}
	}
	credit[best] -= total
	return best
}

// complete runs when the lookup lands at the serving VS: charge the
// FIFO queue of the hosting node, credit the observation window, and
// record the request's latency split.
func (s *Server) complete(r workload.Request, res chord.LookupResult) {
	now := float64(s.eng.Now())
	work := s.cfg.Work
	if r.Op == workload.OpPut {
		work *= putWorkFactor
	}

	node := res.VS.Owner
	finish := s.enqueue(node, now, work)
	svc := finish - now
	if r.Op == workload.OpPut {
		// Replica writes are asynchronous: they do not stretch this
		// request's latency but do occupy the replica nodes' queues —
		// replication is not free. Writes fan out to a bounded number
		// of durability peers — the highest-capacity other slots, not
		// the whole read set: a head object with dozens of read slots
		// must not multiply every put by dozens, and write-through to
		// a dial-up slot would bury the one queue the weighted reads
		// already spare.
		if reps := s.reps[r.Object]; len(reps) > 0 {
			for _, rep := range s.writeSet(r.Object, reps, res.VS) {
				s.enqueue(rep.Owner, now, work)
			}
		}
		s.puts++
	} else {
		s.gets++
	}

	s.obsOf(res.VS).win += work
	s.touched[r.Object]++
	s.served++

	if sim.Time(r.At) >= s.cfg.Warmup {
		s.hopSum += int64(res.Hops)
		lookup := float64(res.Cost)
		s.lookupLat = append(s.lookupLat, lookup)
		s.serviceLat = append(s.serviceLat, svc)
		s.totalLat = append(s.totalLat, lookup+svc)
		s.observeService(svc)
	}
	if finish > s.lastFinish {
		s.lastFinish = finish
	}
	s.outstanding--
	s.maybeFinish()
}

// writeSet picks the put write-through targets for a hot object: up to
// writeReplicas slots other than the serving one, highest host
// capacity first (ties toward the owner, then ring order).
func (s *Server) writeSet(obj int, reps []*chord.VServer, served *chord.VServer) []*chord.VServer {
	slots := make([]*chord.VServer, 0, len(reps)+1)
	if owner := s.ring.Successor(s.keys[obj]); owner != served {
		slots = append(slots, owner)
	}
	for _, rep := range reps {
		if rep != served && s.ring.OnRing(rep) {
			slots = append(slots, rep)
		}
	}
	sort.SliceStable(slots, func(i, j int) bool {
		return slots[i].Owner.Capacity > slots[j].Owner.Capacity
	})
	if len(slots) > writeReplicas {
		slots = slots[:writeReplicas]
	}
	return slots
}

// enqueue appends work to node's FIFO service queue, returning the
// completion time. Occupancy is fractional — work/capacity ticks — so
// capacity heterogeneity bites proportionally across the profile's
// full 10⁰–10⁴ span: a backbone node absorbs ten requests per tick
// while a dial-up peer needs a thousand ticks for one. (An integer
// floor here would cap every node at one request per tick and make
// the Zipf head unservable by any placement.)
//
// The busy slice is sized to the ring's maximum node index at New;
// the serving layer forbids membership change mid-plan (it would
// invalidate the latency accounting, and Run freezes the ring's
// membership to enforce it), so no growth path exists here.
//
//lbvet:hotpath
func (s *Server) enqueue(node *chord.Node, now float64, work float64) float64 {
	start := now
	if bu := s.busy[node.Index]; bu > start {
		start = bu
	}
	finish := start + work/node.Capacity
	s.busy[node.Index] = finish
	return finish
}

// windowTick folds the window's work credits into the decayed observed
// rates, in canonical ring order.
func (s *Server) windowTick() {
	w := float64(window)
	// a stays a float64 variable: folded as a constant, 1-ewmaAlpha
	// would be exact and could round differently from 1-a.
	a := float64(ewmaAlpha)
	for _, vs := range s.ring.VServers() {
		o := s.obsOf(vs)
		rate := o.win / w
		o.ew = a*rate + (1-a)*o.ew
		o.win = 0
	}
}

// promoteTick recomputes the hot set: the hotCount most-requested
// objects since the last promotion get replicas on distinct-node ring
// successors, with the set sized to the object's observed rate.
func (s *Server) promoteTick() {
	cand := make([]candidate, 0, len(s.touched))
	for obj, n := range s.touched {
		cand = append(cand, candidate{obj, n})
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i].obj < cand[j].obj })
	s.promote(cand)
	s.touched = make(map[int]float64)
}

// primePromote warm-starts the hot set from the plan's analytic
// popularity weights before the first arrival. Without it, every
// variant spends the first promoteEvery ticks funnelling the whole
// Zipf head into the one virtual server that happens to own each hot
// key; if that is a dial-up peer, the queue built during that blind
// window takes millions of ticks to drain and buries every later
// request routed there — and no balancer can repair it afterwards,
// because the damage is backlog, not rate. The prior is the same
// expectation the store was primed with, so this is warm-starting
// from knowledge the server already has.
func (s *Server) primePromote() {
	w := s.plan.ExpectedWeights()
	cand := make([]candidate, len(w))
	for i, wi := range w {
		cand[i] = candidate{i, wi * s.cfg.Plan.Rate * float64(promoteEvery)}
	}
	s.promote(cand)
}

type candidate struct {
	obj int
	n   float64 // requests attributed to obj over one promotion window
}

// promote rebuilds the replica sets from request-count candidates.
// Candidate order is fully deterministic (count desc, object index
// asc).
func (s *Server) promote(cand []candidate) {
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].n != cand[j].n {
			return cand[i].n > cand[j].n
		}
		return cand[i].obj < cand[j].obj
	})
	if len(cand) > hotCount {
		cand = cand[:hotCount]
	}
	// Per-slot work budget: the fair-share load of a replicaCapacity
	// node at the ring's current work-per-capacity ratio. A hot object
	// gets enough slots that each carries about one budget's worth.
	ratio := s.totalObserved() / s.sumCap
	chunk := ratio * replicaCapacity
	reps := make(map[int][]*chord.VServer, len(cand))
	for _, c := range cand {
		want := s.wantReplicas(c.n, chunk)
		// Replica sets are sticky while the object stays hot:
		// re-rolling placements every pass would hand the balancer a
		// moving target — it moves an unlucky replica's virtual server
		// off a dial-up node once, and the set stays fixed so the fix
		// sticks. Only recompute when a replica's VS left the ring or
		// the object got hot enough to need a bigger set.
		if set, ok := s.reps[c.obj]; ok && len(set) >= want && s.allOnRing(set) {
			reps[c.obj] = set
			continue
		}
		owner := s.ring.Successor(s.keys[c.obj])
		if set := s.replicaSet(owner, want); len(set) > 0 {
			reps[c.obj] = set
		}
	}
	s.reps = reps
}

// wantReplicas sizes one hot object's replica set: its observed get
// work rate divided into chunk-sized slots (owner holds one), capped
// by maxReplicas.
func (s *Server) wantReplicas(requests float64, chunk float64) int {
	rate := requests / float64(promoteEvery)
	want := 1
	if chunk > 0 {
		want = int(math.Ceil(rate * s.cfg.Work / chunk))
	}
	if want < 1 {
		want = 1
	}
	if want > maxReplicas {
		want = maxReplicas
	}
	return want
}

// totalObserved is the ring-wide observed work rate, summed in ring
// order.
func (s *Server) totalObserved() float64 {
	var t float64
	for _, vs := range s.ring.VServers() {
		t += s.obsOf(vs).ew
	}
	return t
}

func (s *Server) allOnRing(set []*chord.VServer) bool {
	for _, rep := range set {
		if !s.ring.OnRing(rep) {
			return false
		}
	}
	return true
}

// replicaSet walks the ring clockwise from owner collecting up to want
// virtual servers hosted on distinct nodes (none on the owner's node)
// — the successor-chain placement every DHT replication scheme uses.
func (s *Server) replicaSet(owner *chord.VServer, want int) []*chord.VServer {
	out := make([]*chord.VServer, 0, want)
	cur := owner
	for steps := 0; len(out) < want && steps < s.ring.NumVServers(); steps++ {
		cur = s.ring.Successor(cur.ID.Add(1))
		if cur == owner {
			break
		}
		if cur.Owner == owner.Owner {
			continue
		}
		dup := false
		for _, o := range out {
			if o.Owner == cur.Owner {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cur)
		}
	}
	return out
}

// roundDue reports whether a round tick should start a round: not
// once the plan has drained or a round has failed.
func (s *Server) roundDue() bool { return !s.planDone && s.roundErr == nil }

// roundDone records one interleaved round's outcome.
func (s *Server) roundDone(res *protocol.Result, err error) {
	if err != nil {
		s.roundErr = err
		return
	}
	s.rounds++
	s.transfers += len(res.Assignments)
	s.movedLoad += res.MovedLoad
}

// maybeFinish cancels the periodic tickers once the plan has drained
// and no lookup is in flight, letting the engine run dry.
func (s *Server) maybeFinish() {
	if s.finished || !s.planDone || s.outstanding != 0 {
		return
	}
	s.finished = true
	for _, cancel := range s.cancels {
		cancel()
	}
	s.cancels = nil
}

// observeService records one service latency into the engine's metrics
// registry, if one is attached.
func (s *Server) observeService(d float64) {
	if s.mService == nil {
		s.mService = s.eng.Metrics().Histogram("serve.service.latency")
	}
	s.mService.Observe(int64(d))
}
