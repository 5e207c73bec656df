package faults

import (
	"encoding/json"
	"testing"

	"p2plb/internal/sim"
)

func TestKillPlanDeterministic(t *testing.T) {
	cfg := KillPlanConfig{Rounds: 12, Procs: 8, Kills: 5, Protect: []int{0}}
	a, err := NewKillPlan(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKillPlan(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same (seed, config) produced different plans:\n%s\n%s", ja, jb)
	}
	c, err := NewKillPlan(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestKillPlanRespectsBounds(t *testing.T) {
	cfg := KillPlanConfig{Rounds: 10, Procs: 6, Kills: 12, Protect: []int{0, 3}}
	p, err := NewKillPlan(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != cfg.Kills {
		t.Fatalf("got %d events, want %d", len(p.Events), cfg.Kills)
	}
	seen := make(map[[2]int]bool)
	for _, ev := range p.Events {
		if ev.Victim == 0 || ev.Victim == 3 {
			t.Fatalf("protected rank %d was killed", ev.Victim)
		}
		if ev.Victim < 0 || ev.Victim >= cfg.Procs {
			t.Fatalf("victim %d outside [0,%d)", ev.Victim, cfg.Procs)
		}
		if ev.Round < 1 || ev.Round > cfg.Rounds-2 {
			t.Fatalf("round %d outside [1,%d]", ev.Round, cfg.Rounds-2)
		}
		if ev.RestartAfter < 1 || ev.RestartAfter > maxRestartRounds {
			t.Fatalf("restart-after %d outside [1,%d]", ev.RestartAfter, maxRestartRounds)
		}
		key := [2]int{ev.Round, ev.Victim}
		if seen[key] {
			t.Fatalf("victim %d killed twice in round %d", ev.Victim, ev.Round)
		}
		seen[key] = true
	}
	for i := 1; i < len(p.Events); i++ {
		a, b := p.Events[i-1], p.Events[i]
		if a.Round > b.Round || (a.Round == b.Round && a.Victim >= b.Victim) {
			t.Fatal("events not sorted by (round, victim)")
		}
	}
}

func TestKillPlanRejectsImpossible(t *testing.T) {
	if _, err := NewKillPlan(1, KillPlanConfig{Rounds: 3, Procs: 4, Kills: 1}); err == nil {
		t.Fatal("accepted a 3-round horizon")
	}
	if _, err := NewKillPlan(1, KillPlanConfig{Rounds: 8, Procs: 2, Kills: 1, Protect: []int{0, 1}}); err == nil {
		t.Fatal("accepted a fully protected cluster")
	}
	if _, err := NewKillPlan(1, KillPlanConfig{Rounds: 4, Procs: 2, Kills: 9, Protect: []int{0}}); err == nil {
		t.Fatal("accepted more kills than (round, victim) slots")
	}
}

// TestKillPlanCrashAdapter checks the lowering into the simulator's
// absolute-time crash schedule and that the result drives the existing
// injector end to end.
func TestKillPlanCrashAdapter(t *testing.T) {
	p, err := NewKillPlan(42, KillPlanConfig{Rounds: 12, Procs: 8, Kills: 4, Protect: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	const interval = sim.Time(1000)
	crashes := p.Crashes(interval)
	if len(crashes) != len(p.Events) {
		t.Fatalf("got %d crashes, want %d", len(crashes), len(p.Events))
	}
	for i, c := range crashes {
		ev := p.Events[i]
		if c.Node != ev.Victim {
			t.Fatalf("crash %d targets %d, want %d", i, c.Node, ev.Victim)
		}
		wantAt := sim.Time(ev.Round)*interval + interval/2
		if c.At != wantAt {
			t.Fatalf("crash %d at %d, want %d", i, c.At, wantAt)
		}
		wantRestart := sim.Time(ev.Round+ev.RestartAfter) * interval
		if c.Restart != wantRestart {
			t.Fatalf("crash %d restarts at %d, want %d", i, c.Restart, wantRestart)
		}
		if c.Restart <= c.At {
			t.Fatalf("crash %d restart %d not after kill %d", i, c.Restart, c.At)
		}
	}
}
