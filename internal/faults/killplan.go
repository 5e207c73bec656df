package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"p2plb/internal/sim"
)

// A KillPlan is a seed-derived process-kill schedule shared by the two
// fault backends: the simulator's crash injector (via Crashes, which
// lowers the round-denominated events to absolute virtual times) and
// the multi-process cluster supervisor (which consumes the events
// directly, pacing them by real wall-clock rounds). Deriving both from
// one plan means a chaos scenario reproduced in the simulator kills the
// same victims in the same rounds as the live cluster run, and the plan
// itself is byte-reproducible for a given (seed, config).
type KillPlan struct {
	Seed   int64       `json:"seed"`
	Events []KillEvent `json:"events"`
}

// KillEvent is one scheduled SIGKILL: the victim dies during round
// Round and is allowed to restart RestartAfter rounds later
// (RestartAfter ≥ 1 — a kill with instant restart would not be
// observable by the protocol).
type KillEvent struct {
	Round        int `json:"round"`
	Victim       int `json:"victim"`
	RestartAfter int `json:"restart_after"`
}

// KillPlanConfig bounds the schedule.
type KillPlanConfig struct {
	// Rounds is the horizon: every kill lands in rounds [1, Rounds-2] so
	// the final rounds always observe a fully-recovered system.
	Rounds int
	// Procs is the process count; victims are drawn from [0, Procs).
	Procs int
	// Kills is the number of kill events to schedule.
	Kills int
	// Protect lists ranks that are never killed (e.g. the KT root when
	// the harness wants guaranteed round triggers, or rank 0 when it
	// doubles as a coordinator).
	Protect []int
}

// maxRestartRounds caps a KillEvent's RestartAfter.
const maxRestartRounds = 2

// NewKillPlan draws a deterministic schedule from the seed. Events are
// sorted by (Round, Victim) and no victim is killed twice in the same
// round. It returns an error when the config leaves no legal victims or
// no legal rounds.
func NewKillPlan(seed int64, cfg KillPlanConfig) (*KillPlan, error) {
	if cfg.Rounds < 4 {
		return nil, fmt.Errorf("faults: kill plan needs at least 4 rounds, got %d", cfg.Rounds)
	}
	protected := make(map[int]bool, len(cfg.Protect))
	for _, r := range cfg.Protect {
		protected[r] = true
	}
	var victims []int
	for r := 0; r < cfg.Procs; r++ {
		if !protected[r] {
			victims = append(victims, r)
		}
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("faults: kill plan has no unprotected ranks among %d", cfg.Procs)
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, "killplan")))
	plan := &KillPlan{Seed: seed}
	used := make(map[[2]int]bool) // (round, victim) pairs already taken
	lastRound := cfg.Rounds - 2
	for i := 0; i < cfg.Kills; i++ {
		ev := KillEvent{
			Round:        1 + rng.Intn(lastRound),
			Victim:       victims[rng.Intn(len(victims))],
			RestartAfter: 1 + rng.Intn(maxRestartRounds),
		}
		key := [2]int{ev.Round, ev.Victim}
		if used[key] {
			// Redraw collisions rather than skipping so Kills is exact;
			// bail out if the space is saturated.
			if len(used) >= lastRound*len(victims) {
				return nil, fmt.Errorf("faults: kill plan cannot place %d kills in %d rounds × %d victims",
					cfg.Kills, lastRound, len(victims))
			}
			i--
			continue
		}
		used[key] = true
		plan.Events = append(plan.Events, ev)
	}
	sort.Slice(plan.Events, func(i, j int) bool {
		a, b := plan.Events[i], plan.Events[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		return a.Victim < b.Victim
	})
	return plan, nil
}

// Crashes lowers the plan to the simulator's absolute-time crash list:
// round r spans [r·interval, (r+1)·interval), a kill lands mid-round
// and the restart at the start of round r+RestartAfter. The result
// plugs straight into Plan.Crashes.
func (p *KillPlan) Crashes(interval sim.Time) []Crash {
	out := make([]Crash, len(p.Events))
	for i, ev := range p.Events {
		out[i] = Crash{
			At:      sim.Time(ev.Round)*interval + interval/2,
			Node:    ev.Victim,
			Restart: sim.Time(ev.Round+ev.RestartAfter) * interval,
		}
	}
	return out
}
