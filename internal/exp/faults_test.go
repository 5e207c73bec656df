package exp

import (
	"math"
	"slices"
	"testing"

	"p2plb/internal/par"
)

func TestFaultSweepConservesAndDegradesGracefully(t *testing.T) {
	rows, err := FaultSweep(3, 64, []float64{0, 0.10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	clean, lossy := rows[0], rows[1]
	if clean.Dropped != 0 || clean.Retries != 0 || clean.Failed != 0 {
		t.Errorf("rate-0 row not clean: %+v", clean)
	}
	if clean.Completed != clean.Rounds {
		t.Errorf("rate-0 row completed %d of %d rounds", clean.Completed, clean.Rounds)
	}
	if lossy.Dropped == 0 {
		t.Error("10% loss dropped nothing")
	}
	if lossy.Retries == 0 {
		t.Error("10% loss forced no retransmissions")
	}
	if lossy.Completed == 0 {
		t.Fatal("no round completed under 10% loss")
	}
	if clean.FinalGini > 0 && lossy.FinalGini > 2*clean.FinalGini {
		t.Errorf("lossy imbalance %.4f exceeds 2× clean %.4f", lossy.FinalGini, clean.FinalGini)
	}
	if lossy.MeanRoundTime < clean.MeanRoundTime {
		t.Errorf("retransmission made rounds faster? clean %.0f lossy %.0f",
			clean.MeanRoundTime, lossy.MeanRoundTime)
	}
}

func TestFaultSweepValidation(t *testing.T) {
	if _, err := FaultSweep(1, 16, []float64{0.5}, 0); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := FaultSweep(1, 16, []float64{1.5}, 1); err == nil {
		t.Error("rate above 1 accepted")
	}
	if _, err := FaultSweep(1, 16, []float64{-0.1}, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestPartitionRecovery(t *testing.T) {
	row, err := PartitionRecovery(5, 64, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if row.PartitionRounds != 2 {
		t.Errorf("partition rounds %d, want 2", row.PartitionRounds)
	}
	// The cut leaves cross-side imbalance a clean round would have fixed.
	if row.GiniAtHeal <= row.BaselineGini {
		t.Errorf("partition left gini %.4f, not above baseline %.4f",
			row.GiniAtHeal, row.BaselineGini)
	}
	if row.RoundsToRecover < 0 {
		t.Fatalf("never recovered: %+v", row)
	}
	if row.RecoveredGini > row.BaselineGini*1.25+1e-6 {
		t.Errorf("recovered gini %.4f above threshold of baseline %.4f",
			row.RecoveredGini, row.BaselineGini)
	}
	if row.RecoveryTime <= 0 {
		t.Errorf("non-positive recovery time %d", row.RecoveryTime)
	}
}

// TestFaultSweepShape holds the fault sweep to the shape EXPERIMENTS.md
// "Fault tolerance" reports, over seeds 1–8 at 128 nodes and 6 rounds:
// every round completes, the final imbalance stays flat across drop
// rates, and a half-ring partition heals in one round. Flatness is a
// median over seeds: the median of |final Gini / the 0 % row's − 1| is
// at most 0.10 at each rate. Single seeds have a long tail (a run whose
// small nodes give away every virtual server ends far from the clean
// row), so the test asserts the median and logs the worst seed.
func TestFaultSweepShape(t *testing.T) {
	rates := []float64{0, 0.1, 0.3}
	const nodes, rounds, tolerance = 128, 6, 0.10
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	type seedRun struct {
		rows []FaultRow
		part PartitionRow
	}
	runs, err := par.MapErr(seeds, 0, func(seed int64) (seedRun, error) {
		rows, err := FaultSweep(seed, nodes, rates, rounds)
		if err != nil {
			return seedRun{}, err
		}
		part, err := PartitionRecovery(seed, nodes, 2, 6)
		return seedRun{rows, part}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := make([][]float64, len(rates)) // [rate][seed]
	for si, run := range runs {
		seed := seeds[si]
		clean := run.rows[0].FinalGini
		if clean <= 0 {
			t.Fatalf("seed %d: clean row left no imbalance to compare against (%v)", seed, clean)
		}
		for i, row := range run.rows {
			if row.Completed != row.Rounds {
				t.Errorf("seed %d, drop %.2f: %d of %d rounds completed", seed, row.DropRate, row.Completed, row.Rounds)
			}
			devs[i] = append(devs[i], math.Abs(row.FinalGini/clean-1))
		}
		if run.part.RoundsToRecover != 1 {
			t.Errorf("seed %d: partition healed in %d rounds, want 1 (%+v)", seed, run.part.RoundsToRecover, run.part)
		}
	}
	for i, rate := range rates {
		worst := 0
		for si, d := range devs[i] {
			if d > devs[i][worst] {
				worst = si
			}
		}
		sorted := slices.Clone(devs[i])
		slices.Sort(sorted)
		median := (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
		t.Logf("drop %.2f: median |gini/clean-1| %.4f, worst %.4f at seed %d", rate, median, devs[i][worst], seeds[worst])
		if median > tolerance {
			t.Errorf("drop %.2f: median |gini/clean-1| %.4f above %.2f (per seed %.4f)", rate, median, tolerance, devs[i])
		}
	}
}
