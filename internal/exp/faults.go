package exp

import (
	"fmt"

	"p2plb/internal/core"
	"p2plb/internal/faults"
	"p2plb/internal/par"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
)

// FaultRates is the drop-rate grid of the committed fault-tolerance
// table (EXPERIMENTS.md "Fault tolerance").
var FaultRates = []float64{0, 0.05, 0.10, 0.20, 0.30}

// FaultRow is one operating point of the graceful-degradation sweep:
// `rounds` message-level balancing rounds under a uniform message drop
// rate, with chord.CheckConservation asserted after every round.
type FaultRow struct {
	DropRate float64 `json:"drop_rate"`
	// Rounds attempted, how many completed, how many failed outright
	// (hard round deadline).
	Rounds    int `json:"rounds"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// The protocol's damage report, summed over completed rounds.
	Retries          int `json:"retries"`
	TimedOutChildren int `json:"timed_out_children"`
	AbortedTransfers int `json:"aborted_transfers"`
	// Dropped is the injector's count of messages it destroyed.
	Dropped int64 `json:"dropped"`
	// MeanRoundTime is the mean virtual time from round start to VST
	// completion over completed rounds — the round-completion-time side
	// of the degradation curve.
	MeanRoundTime float64 `json:"mean_round_time"`
	// FinalGini is the per-node unit-load Gini after the last round —
	// the imbalance side of the curve.
	FinalGini float64 `json:"final_gini"`
}

// FaultSweep measures graceful degradation under uniform message loss
// on the default no-underlay setup: for each drop rate it runs `rounds`
// message-level rounds on a fresh system and reports imbalance,
// round-completion time and the protocol's repair work. Conservation is
// checked after every round; a violation fails the sweep.
func FaultSweep(seed int64, nodes int, rates []float64, rounds int) ([]FaultRow, error) {
	s := DefaultSetup(seed)
	s.Nodes = nodes
	return FaultSweepSetup(s, rates, rounds)
}

// FaultSweepSetup runs the drop-rate sweep on an arbitrary setup. Rates
// run in parallel — each builds its own engine and injector from the
// setup seed, so rows are independent of scheduling.
func FaultSweepSetup(s Setup, rates []float64, rounds int) ([]FaultRow, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("exp: need at least one round")
	}
	for _, rate := range rates {
		if rate < 0 || rate > 1 {
			return nil, fmt.Errorf("exp: drop rate %v outside [0,1]", rate)
		}
	}
	return par.MapErr(rates, 0, func(rate float64) (FaultRow, error) {
		return faultRow(s, rate, rounds)
	})
}

func faultRow(s Setup, rate float64, rounds int) (FaultRow, error) {
	inst, err := Build(s)
	if err != nil {
		return FaultRow{}, err
	}
	base := inst.Ring.SnapshotConservation()
	in, err := faults.New(s.Seed, faults.Plan{Drop: rate})
	if err != nil {
		return FaultRow{}, err
	}
	if err := in.Attach(inst.Ring); err != nil {
		return FaultRow{}, err
	}
	r, err := protocol.NewRunner(inst.Ring, inst.Tree, protocol.Config{
		Core:         core.Config{Epsilon: inst.Setup.Epsilon},
		ChildTimeout: 500,
	})
	if err != nil {
		return FaultRow{}, err
	}
	row := FaultRow{DropRate: rate, Rounds: rounds}
	for i := 0; i < rounds; i++ {
		out, roundErr := r.RunRound()
		if roundErr != nil {
			row.Failed++
		} else {
			row.Completed++
			row.Retries += out.Retries
			row.TimedOutChildren += out.TimedOutChildren
			row.AbortedTransfers += out.AbortedTransfers
			row.MeanRoundTime += float64(out.TimeVSTComplete)
		}
		if err := inst.Ring.CheckConservation(base); err != nil {
			return row, fmt.Errorf("exp: drop rate %v, round %d: %w", rate, i, err)
		}
	}
	if row.Completed > 0 {
		row.MeanRoundTime /= float64(row.Completed)
	}
	row.Dropped = in.Dropped()
	row.FinalGini = core.UnitLoadGini(inst.Ring)
	return row, nil
}

// PartitionRow is the partition-recovery experiment result: the system
// starts unbalanced with half the ring cut off, balances what it can
// reach, and the row reports how quickly it converges once the
// partition heals.
type PartitionRow struct {
	Nodes int `json:"nodes"`
	// BaselineGini is the fault-free post-round imbalance of the
	// identical instance — the recovery target.
	BaselineGini float64 `json:"baseline_gini"`
	// PartitionRounds/FailedDuring count the rounds attempted while the
	// cut was up and how many failed outright.
	PartitionRounds int `json:"partition_rounds"`
	FailedDuring    int `json:"failed_during"`
	// GiniAtHeal is the imbalance the partition left behind.
	GiniAtHeal float64 `json:"gini_at_heal"`
	// Retries totals retransmissions across the whole run.
	Retries int `json:"retries"`
	// RoundsToRecover is the number of post-heal rounds until the
	// imbalance is back within 25% of baseline (-1: never within the
	// budget); RecoveryTime is the virtual time that took.
	RoundsToRecover int      `json:"rounds_to_recover"`
	RecoveryTime    sim.Time `json:"recovery_time"`
	RecoveredGini   float64  `json:"recovered_gini"`
}

// PartitionRecovery bipartitions the ring (first half of the join order
// against the rest) before any balancing happens, runs `duringRounds`
// rounds against the cut, heals it, and measures convergence back to
// the fault-free imbalance within at most `maxRecover` further rounds.
// Conservation is checked after every round.
func PartitionRecovery(seed int64, nodes, duringRounds, maxRecover int) (PartitionRow, error) {
	if nodes < 4 {
		return PartitionRow{}, fmt.Errorf("exp: need at least four nodes to partition")
	}
	s := DefaultSetup(seed)
	s.Nodes = nodes
	row := PartitionRow{Nodes: nodes, RoundsToRecover: -1}

	// Fault-free baseline: same seed, same build, one clean round.
	clean, err := Build(s)
	if err != nil {
		return row, err
	}
	rc, err := protocol.NewRunner(clean.Ring, clean.Tree, protocol.Config{
		Core: core.Config{Epsilon: clean.Setup.Epsilon},
	})
	if err != nil {
		return row, err
	}
	if _, err := rc.RunRound(); err != nil {
		return row, err
	}
	row.BaselineGini = core.UnitLoadGini(clean.Ring)

	inst, err := Build(s)
	if err != nil {
		return row, err
	}
	base := inst.Ring.SnapshotConservation()
	side := make([]int, nodes/2)
	for i := range side {
		side[i] = i
	}
	// The window is unbounded; Detach is the heal event, so the heal
	// instant is exactly known instead of racing a timed window against
	// round boundaries.
	in, err := faults.New(seed, faults.Plan{
		Partitions: []faults.Partition{{From: 0, Until: sim.Time(1) << 62, Side: side}},
	})
	if err != nil {
		return row, err
	}
	if err := in.Attach(inst.Ring); err != nil {
		return row, err
	}
	r, err := protocol.NewRunner(inst.Ring, inst.Tree, protocol.Config{
		Core:         core.Config{Epsilon: inst.Setup.Epsilon},
		ChildTimeout: 500,
	})
	if err != nil {
		return row, err
	}
	for i := 0; i < duringRounds; i++ {
		out, roundErr := r.RunRound()
		row.PartitionRounds++
		if roundErr != nil {
			row.FailedDuring++
		} else {
			row.Retries += out.Retries
		}
		if err := inst.Ring.CheckConservation(base); err != nil {
			return row, fmt.Errorf("exp: partition round %d: %w", i, err)
		}
	}
	in.Detach()
	row.GiniAtHeal = core.UnitLoadGini(inst.Ring)
	healAt := inst.Engine.Now()
	threshold := row.BaselineGini*1.25 + 1e-6
	for i := 0; i < maxRecover; i++ {
		out, roundErr := r.RunRound()
		if roundErr != nil {
			continue
		}
		row.Retries += out.Retries
		if err := inst.Ring.CheckConservation(base); err != nil {
			return row, fmt.Errorf("exp: recovery round %d: %w", i, err)
		}
		if g := core.UnitLoadGini(inst.Ring); g <= threshold {
			row.RoundsToRecover = i + 1
			row.RecoveryTime = inst.Engine.Now() - healAt
			row.RecoveredGini = g
			break
		}
	}
	return row, nil
}
