package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"p2plb/internal/chord"
	"p2plb/internal/ident"
	"p2plb/internal/metrics"
	"p2plb/internal/sim"
	"p2plb/internal/wire"
)

// Supervisor launches and babysits an N-process lbd cluster: it spawns
// one daemon per rank, restarts crashed processes with exponential
// backoff, injects SIGKILLs on demand (the chaos harness's lever),
// drives balancing rounds through the root's control channel, and
// audits conservation by rebuilding a chord ring from the daemons'
// reported inventories.
type Supervisor struct {
	Spec     *Spec
	Bin      string // path to the lbd binary
	DataDir  string
	specPath string

	mu       sync.Mutex
	procs    []*managed
	stopping bool
	kills    int
	restarts int
	reissues int
	lastPoll []string // per rank: the last status or error poll saw

	rng *rand.Rand // restart-backoff jitter
}

type managed struct {
	rank int

	mu        sync.Mutex
	cmd       *exec.Cmd
	waited    chan struct{} // closed by the monitor once cmd.Wait returns
	stopping  bool
	holdUntil time.Time // earliest allowed respawn after a Kill
}

// Restart-backoff ladder: first respawn after ~50ms, doubling to a 1s
// cap, with jitter — the same capped-doubling discipline the wire layer
// uses for retransmissions.
const (
	restartBase = 50 * time.Millisecond
	restartCap  = time.Second
)

// NewSupervisor writes the spec into dataDir and prepares (but does not
// start) the cluster.
func NewSupervisor(spec *Spec, bin, dataDir string) (*Supervisor, error) {
	spec.withDefaults()
	specPath := filepath.Join(dataDir, "spec.json")
	if err := WriteSpec(specPath, spec); err != nil {
		return nil, err
	}
	s := &Supervisor{
		Spec:     spec,
		Bin:      bin,
		DataDir:  dataDir,
		specPath: specPath,
		rng:      rand.New(rand.NewSource(mixSeed(spec.Seed, "supervisor"))),
		lastPoll: make([]string, spec.Procs),
	}
	for r := 0; r < spec.Procs; r++ {
		s.procs = append(s.procs, &managed{rank: r})
	}
	return s, nil
}

// Start spawns every daemon and their monitors.
func (s *Supervisor) Start() error {
	for _, m := range s.procs {
		if err := s.spawn(m); err != nil {
			s.Stop()
			return err
		}
	}
	return nil
}

func (s *Supervisor) spawn(m *managed) error {
	logf, err := os.OpenFile(filepath.Join(s.DataDir, fmt.Sprintf("lbd-%d.log", m.rank)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(s.Bin, "-spec", s.specPath, "-rank", fmt.Sprint(m.rank), "-data", s.DataDir)
	cmd.Stdout = logf
	cmd.Stderr = logf
	dieWithSupervisor(cmd)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	logf.Close() // the child holds its own descriptor
	waited := make(chan struct{})
	m.mu.Lock()
	m.cmd = cmd
	m.waited = waited
	m.mu.Unlock()
	// A Stop that raced this spawn (set stopping between the monitor's
	// pre-spawn check and Start) has already done its kill pass over the
	// previous generation; reap the new process here so it doesn't
	// outlive the supervisor.
	s.mu.Lock()
	stopping := s.stopping
	s.mu.Unlock()
	if stopping {
		cmd.Process.Kill()
	}
	go s.monitor(m, cmd, waited)
	return nil
}

// monitor restarts the process when it dies — unless the supervisor is
// shutting down — honoring any kill-hold window and backing off
// exponentially across rapid consecutive deaths.
// The monitor is the sole caller of cmd.Wait (Wait is once-only);
// everyone else waits on the managed proc's waited channel.
func (s *Supervisor) monitor(m *managed, cmd *exec.Cmd, waited chan struct{}) {
	backoff := restartBase
	for {
		started := time.Now()
		cmd.Wait()
		close(waited)
		s.mu.Lock()
		stopping := s.stopping
		s.mu.Unlock()
		m.mu.Lock()
		hold := time.Until(m.holdUntil)
		mStopping := m.stopping
		m.mu.Unlock()
		if stopping || mStopping {
			return
		}
		if time.Since(started) > 5*time.Second {
			backoff = restartBase
		}
		s.mu.Lock()
		wait := backoff + time.Duration(s.rng.Int63n(int64(backoff/2)+1))
		s.mu.Unlock()
		if hold > wait {
			wait = hold
		}
		time.Sleep(wait)
		if backoff < restartCap {
			backoff *= 2
		}
		s.mu.Lock()
		s.restarts++
		stopping = s.stopping
		s.mu.Unlock()
		if stopping {
			return
		}
		if err := s.spawn(m); err != nil {
			return
		}
		return // the new spawn has its own monitor
	}
}

// Kill SIGKILLs one rank and holds its restart for at least hold.
func (s *Supervisor) Kill(rank int, hold time.Duration) error {
	if rank < 0 || rank >= len(s.procs) {
		return fmt.Errorf("cluster: no rank %d", rank)
	}
	m := s.procs[rank]
	m.mu.Lock()
	m.holdUntil = time.Now().Add(hold)
	cmd := m.cmd
	m.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("cluster: rank %d not running", rank)
	}
	s.mu.Lock()
	s.kills++
	s.mu.Unlock()
	return cmd.Process.Kill()
}

// Stop terminates every daemon (SIGKILL — the WAL makes that safe) and
// disables restarts.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	for _, m := range s.procs {
		m.mu.Lock()
		m.stopping = true
		cmd := m.cmd
		m.mu.Unlock()
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	for _, m := range s.procs {
		m.mu.Lock()
		waited := m.waited
		m.mu.Unlock()
		if waited != nil {
			<-waited
		}
	}
}

// Counters reports the supervisor's own chaos bookkeeping.
func (s *Supervisor) Counters() (kills, restarts, reissues int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kills, s.restarts, s.reissues
}

// call performs one control request against a rank, retrying across
// transient connection failures (a daemon mid-restart) with the wire
// layer's capped-doubling discipline.
func (s *Supervisor) call(rank int, kind string, body any, deadline time.Duration) (json.RawMessage, error) {
	var lastErr error
	backoff := wire.DefaultRetryBase
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		out, err := wire.Call(s.Spec.Addrs[rank], s.Spec.ClusterID, kind, body, 2*time.Second)
		if err == nil {
			return out, nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff < wire.DefaultRetryCap {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("cluster: rank %d %s: %w", rank, kind, lastErr)
}

// TriggerRound asks the root to start round r.
func (s *Supervisor) TriggerRound(r uint64) error {
	_, err := s.call(0, "round", roundBody{Round: r}, 10*time.Second)
	return err
}

// StatusOf queries one rank.
func (s *Supervisor) StatusOf(rank int, deadline time.Duration) (*Status, error) {
	out, err := s.call(rank, "status", nil, deadline)
	if err != nil {
		return nil, err
	}
	st := &Status{}
	if err := json.Unmarshal(out, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Settle waits for round r to quiesce: every rank reachable, every rank
// past its local tree work for r, and no open escrow or unsettled
// handoff anywhere — observed twice in a row, so an assign still in
// flight between two polls cannot fake a quiet cluster. Halfway to the
// timeout the round trigger is re-issued (idempotent at every daemon),
// which re-feeds the tree when the root or an interior rank lost its
// soft state to a kill.
func (s *Supervisor) Settle(r uint64, timeout time.Duration) ([]Status, error) {
	end := time.Now().Add(timeout)
	reissued := false
	clean := 0
	for time.Now().Before(end) {
		sts, ok := s.poll(r)
		if ok {
			clean++
			if clean >= 2 {
				return sts, nil
			}
		} else {
			clean = 0
		}
		if !reissued && time.Now().After(end.Add(-timeout/2)) {
			s.mu.Lock()
			s.reissues++
			s.mu.Unlock()
			s.TriggerRound(r)
			reissued = true
		}
		time.Sleep(200 * time.Millisecond)
	}
	return nil, fmt.Errorf("cluster: round %d did not settle within %v\n%s", r, timeout, s.settleReport())
}

// settleLogLines is how much of each rank's log a settle failure quotes.
const settleLogLines = 50

// settleReport explains a settle failure rank by rank: the last status
// or error poll saw, and the tail of the rank's daemon log.
func (s *Supervisor) settleReport() string {
	s.mu.Lock()
	last := append([]string(nil), s.lastPoll...)
	s.mu.Unlock()
	var b strings.Builder
	for rank, seen := range last {
		if seen == "" {
			seen = "never polled"
		}
		fmt.Fprintf(&b, "rank %d: last poll: %s\n", rank, seen)
		path := filepath.Join(s.DataDir, fmt.Sprintf("lbd-%d.log", rank))
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(&b, "  no log: %v\n", err)
			continue
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) > settleLogLines {
			lines = lines[len(lines)-settleLogLines:]
		}
		fmt.Fprintf(&b, "  last %d lines of %s:\n", len(lines), path)
		for _, l := range lines {
			fmt.Fprintf(&b, "  | %s\n", l)
		}
	}
	return b.String()
}

// notePoll records what poll saw of rank, for settleReport.
func (s *Supervisor) notePoll(rank int, seen string) {
	s.mu.Lock()
	s.lastPoll[rank] = seen
	s.mu.Unlock()
}

func (s *Supervisor) poll(r uint64) ([]Status, bool) {
	sts := make([]Status, 0, s.Spec.Procs)
	ok := true
	for rank := 0; rank < s.Spec.Procs; rank++ {
		st, err := s.StatusOf(rank, 2*time.Second)
		if err != nil {
			s.notePoll(rank, "error: "+err.Error())
			return nil, false
		}
		s.notePoll(rank, fmt.Sprintf("started=%d done=%d pending=%d active=%d vss=%d",
			st.Started, st.Done, st.Pending, st.Active, len(st.VSs)))
		if st.Done < r || st.Pending > 0 || st.Active > 0 {
			ok = false
		}
		sts = append(sts, *st)
	}
	return sts, ok
}

// CheckConservation audits the cluster's books against the spec's
// ledger; see the package-level function.
func (s *Supervisor) CheckConservation(sts []Status) error {
	return CheckConservation(s.Spec, sts)
}

// CheckConservation rebuilds a chord ring from the reported inventories
// and runs the repo's conservation checker against the ledger-expected
// total: Σ initial loads + Σ per-rank drift deltas. AddNodeWithIDs
// rejects duplicate identifiers, so a double-owned virtual server fails
// loudly; set equality against the derived initial identifier set
// catches a lost one.
func CheckConservation(spec *Spec, sts []Status) error {
	if len(sts) != spec.Procs {
		return fmt.Errorf("cluster: conservation check needs all %d ranks, got %d", spec.Procs, len(sts))
	}
	invs := DeriveInventories(spec.Seed, spec.Procs, spec.VSPerNode)
	initial := make(map[ident.ID]bool)
	var expected float64
	for _, inv := range invs {
		for _, vs := range inv.VSs {
			initial[vs.ID] = true
			expected += vs.Load
		}
	}
	ring := chord.NewRing(sim.NewEngine(0), chord.Config{})
	var count int
	for _, st := range sts {
		expected += st.DriftSum
		ids := make([]ident.ID, len(st.VSs))
		loads := make(map[ident.ID]float64, len(st.VSs))
		for i, vs := range st.VSs {
			ids[i] = vs.ID
			loads[vs.ID] = vs.Load
			if !initial[vs.ID] {
				return fmt.Errorf("cluster: rank %d holds unknown vs %s", st.Rank, vs.ID)
			}
			count++
		}
		node, err := ring.AddNodeWithIDs(-1, st.Capacity, ids)
		if err != nil {
			return fmt.Errorf("cluster: rank %d: %w", st.Rank, err)
		}
		for _, vs := range node.VServers() {
			vs.Load = loads[vs.ID]
		}
	}
	if count != len(initial) {
		return fmt.Errorf("cluster: %d virtual servers reported, expected %d (lost or double-hosted)", count, len(initial))
	}
	return ring.CheckConservation(chord.Conservation{TotalLoad: expected, NumVS: len(initial)})
}

// MergedMetrics fetches and merges every daemon's /metrics snapshot.
// Unreachable daemons (mid-restart) are skipped.
func (s *Supervisor) MergedMetrics() metrics.Snapshot {
	var merged metrics.Snapshot
	client := &http.Client{Timeout: 2 * time.Second}
	for _, addr := range s.Spec.HTTPAddrs {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			continue
		}
		snap, err := metrics.ReadJSON(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		merged.Merge(snap)
	}
	return merged
}
