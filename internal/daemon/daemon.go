// Package daemon runs the load balancer as a long-lived service on the
// simulation engine: periodic tree maintenance (the paper's soft-state
// repair), periodic message-level balancing rounds, and bookkeeping of
// the system's imbalance over time.
//
// The paper evaluates single rounds on a frozen workload; the daemon is
// the operational regime a deployment would actually run — load drifts
// between rounds (objects come and go, nodes join and leave) and each
// round re-balances whatever the interval accumulated. The recorded
// history gives imbalance-versus-time series, from which the drift
// experiments measure how well periodic balancing contains a moving
// workload.
package daemon

import (
	"fmt"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
)

// Config parameterizes the daemon.
type Config struct {
	// Protocol configures the message-level rounds.
	Protocol protocol.Config
	// RoundInterval is the time between balancing rounds (must be
	// positive).
	RoundInterval sim.Time
	// RepairInterval is the time between tree maintenance sweeps
	// (0 disables periodic repair; rounds still repair lazily).
	RepairInterval sim.Time
	// BeforeRound, when set, runs right before each round starts —
	// the hook drift experiments use to mutate the workload and/or
	// membership. The daemon repairs the tree after the hook.
	BeforeRound func()
}

// RoundRecord is one completed (or failed) round.
type RoundRecord struct {
	StartedAt sim.Time
	// GiniBefore/GiniAfter are the Gini coefficients of per-node unit
	// load around the round.
	GiniBefore, GiniAfter float64
	Result                *protocol.Result // nil if the round failed
	Err                   error
}

// Daemon drives periodic balancing over one ring/tree.
type Daemon struct {
	ring   *chord.Ring
	tree   *ktree.Tree
	runner *protocol.Runner
	cfg    Config
	eng    *sim.Engine

	history      []RoundRecord
	cancelRound  func()
	cancelRepair func()
	running      bool
	repairs      int
	retries      int

	// Repair-latency bookkeeping: failedSince marks the first round
	// failure not yet followed by a successful repair, so the histogram
	// records how long the system ran on a broken tree.
	failedPending bool
	failedSince   sim.Time
}

// New returns a stopped daemon.
func New(ring *chord.Ring, tree *ktree.Tree, cfg Config) (*Daemon, error) {
	if cfg.RoundInterval <= 0 {
		return nil, fmt.Errorf("daemon: non-positive round interval")
	}
	if cfg.RepairInterval < 0 {
		return nil, fmt.Errorf("daemon: negative repair interval")
	}
	runner, err := protocol.NewRunner(ring, tree, cfg.Protocol)
	if err != nil {
		return nil, err
	}
	return &Daemon{
		ring:   ring,
		tree:   tree,
		runner: runner,
		cfg:    cfg,
		eng:    ring.Engine(),
	}, nil
}

// Start schedules the periodic work. It may be called once.
func (d *Daemon) Start() error {
	if d.running {
		return fmt.Errorf("daemon: already running")
	}
	d.running = true
	d.cancelRound = d.eng.Every(d.cfg.RoundInterval, d.runRound)
	if d.cfg.RepairInterval > 0 {
		d.cancelRepair = d.eng.Every(d.cfg.RepairInterval, func() {
			if !d.running {
				return
			}
			if _, err := d.tree.Repair(); err == nil {
				d.repairs++
				d.eng.Metrics().Counter("daemon.repairs").Inc()
				d.repaired()
			}
		})
	}
	return nil
}

// Stop cancels the periodic work; in-flight rounds still complete.
func (d *Daemon) Stop() {
	if !d.running {
		return
	}
	d.running = false
	d.cancelRound()
	if d.cancelRepair != nil {
		d.cancelRepair()
	}
}

// History returns the completed round records. The returned slice must
// not be modified.
func (d *Daemon) History() []RoundRecord { return d.history }

// Repairs returns how many periodic maintenance sweeps succeeded.
func (d *Daemon) Repairs() int { return d.repairs }

// Retries returns the total reliable-delivery retransmissions across
// all completed rounds.
func (d *Daemon) Retries() int { return d.retries }

// roundFailed records one failed round: the counter that used to be
// invisible in -metrics snapshots, plus the start of the repair-latency
// window when this is the first failure since the last good repair.
func (d *Daemon) roundFailed() {
	d.eng.Metrics().Counter("daemon.rounds_failed").Inc()
	if !d.failedPending {
		d.failedPending = true
		d.failedSince = d.eng.Now()
	}
}

// repaired closes an open repair-latency window: the virtual time from
// the first post-repair round failure to the successful repair.
func (d *Daemon) repaired() {
	if !d.failedPending {
		return
	}
	d.failedPending = false
	d.eng.Metrics().Histogram("daemon.repair.latency").Observe(int64(d.eng.Now() - d.failedSince))
}

func (d *Daemon) runRound() {
	// Stop guard: a tick already sitting in the engine queue when Stop
	// cancelled the interval still fires; it must not start a round (or
	// run the BeforeRound hook) against a daemon the caller believes is
	// quiescent.
	if !d.running {
		return
	}
	if d.cfg.BeforeRound != nil {
		d.cfg.BeforeRound()
	}
	// A consistent tree before the round (membership/hosting may have
	// changed since the last repair).
	if _, err := d.tree.Repair(); err != nil {
		d.history = append(d.history, RoundRecord{StartedAt: d.eng.Now(), Err: err})
		d.roundFailed()
		return
	}
	d.repaired()
	rec := RoundRecord{StartedAt: d.eng.Now(), GiniBefore: core.UnitLoadGini(d.ring)}
	d.eng.Metrics().Series("daemon.gini.before").Append(float64(rec.StartedAt), rec.GiniBefore)
	err := d.runner.StartRound(func(res *protocol.Result, err error) {
		rec.Result = res
		rec.Err = err
		rec.GiniAfter = core.UnitLoadGini(d.ring)
		d.history = append(d.history, rec)
		reg := d.eng.Metrics()
		reg.Counter("daemon.rounds").Inc()
		reg.Series("daemon.gini.after").Append(float64(d.eng.Now()), rec.GiniAfter)
		if res != nil {
			d.retries += res.Retries
			reg.Counter("daemon.retries").Add(int64(res.Retries))
		}
		if err != nil {
			reg.Counter("daemon.round_errors").Inc()
			d.roundFailed()
		}
	})
	if err != nil {
		// A previous round is still running (interval shorter than the
		// round) — skip this tick.
		rec.Err = err
		d.history = append(d.history, rec)
		d.roundFailed()
	}
}

// Summary aggregates a daemon run.
type Summary struct {
	Rounds       int
	Failed       int
	TotalMoved   float64
	TotalRetries int
	MeanGiniPre  float64
	MeanGiniPost float64
}

// Summarize folds the history into a Summary.
func (d *Daemon) Summarize() Summary {
	var s Summary
	s.TotalRetries = d.retries
	for _, rec := range d.history {
		s.Rounds++
		if rec.Err != nil {
			s.Failed++
			continue
		}
		s.TotalMoved += rec.Result.MovedLoad
		s.MeanGiniPre += rec.GiniBefore
		s.MeanGiniPost += rec.GiniAfter
	}
	if ok := s.Rounds - s.Failed; ok > 0 {
		s.MeanGiniPre /= float64(ok)
		s.MeanGiniPost /= float64(ok)
	}
	return s
}
