package cluster

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// The lbd binary is built once per test-binary run and shared by every
// e2e test.
var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
	lbdBin    string
)

func buildLBD(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "lbd-e2e-")
		if buildErr != nil {
			return
		}
		lbdBin = filepath.Join(buildDir, "lbd")
		cmd := exec.Command("go", "build", "-o", lbdBin, "p2plb/cmd/lbd")
		cmd.Dir = repoRoot(t)
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build lbd: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return lbdBin
}

// repoRoot walks up from the package directory to the module root so
// `go build` resolves the p2plb module regardless of the test cwd.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package directory")
		}
		dir = parent
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// TestClusterChaosSmoke is the short-mode gate run by ci.sh: a
// 4-process cluster, 4 rounds, one SIGKILL mid-round. Conservation is
// audited after every settled round inside RunChaos.
func TestClusterChaosSmoke(t *testing.T) {
	bin := buildLBD(t)
	report, err := RunChaos(ChaosConfig{
		Bin:     bin,
		DataDir: t.TempDir(),
		Seed:    401,
		Procs:   4,
		Rounds:  4,
		Kills:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rounds) != 4 {
		t.Fatalf("settled %d rounds, want 4", len(report.Rounds))
	}
	if report.Kills < 1 {
		t.Fatalf("chaos run recorded %d kills, want >= 1", report.Kills)
	}
	if report.Restarts < 1 {
		t.Fatalf("supervisor recorded %d restarts, want >= 1", report.Restarts)
	}
	if report.Metrics == nil || report.Metrics.Counters["cluster.rounds"] == 0 {
		t.Fatal("merged metrics missing round counters")
	}
	// The half-timeout re-issue is a backstop; a restarted daemon is
	// re-fed by its neighbours the moment it reconnects.
	if report.Reissues != 0 {
		t.Fatalf("%d round triggers re-issued: a round waited for the supervisor, not for the restart", report.Reissues)
	}
}

// TestClusterChaosE2E is the acceptance harness: an 8-process cluster
// under drifting load with SIGKILLs rotating across a seed-derived
// subset of ranks mid-round. RunChaos fails on any conservation
// violation or double-hosted virtual server after each recovery; on top
// of that the final imbalance must land back in the no-fault band
// established by the kill-free baseline run of the same seed.
func TestClusterChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run skipped in short mode (see TestClusterChaosSmoke)")
	}
	if raceEnabled {
		t.Skip("full chaos run skipped under the race detector (child processes are not race-instrumented; the smoke test covers the instrumented paths)")
	}
	bin := buildLBD(t)
	report, err := RunChaos(ChaosConfig{
		Bin:     bin,
		DataDir: t.TempDir(),
		Seed:    802,
		Procs:   8,
		Rounds:  8,
		Kills:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Kills < 2 {
		t.Fatalf("chaos run recorded %d kills, want >= 2", report.Kills)
	}
	if report.Restarts < report.Kills {
		t.Fatalf("%d restarts for %d kills — a victim was never re-admitted", report.Restarts, report.Kills)
	}
	// No-fault band: the chaos run's final Gini must come back to the
	// baseline's, within a small absolute slack for the divergent
	// post-kill transfer history.
	if report.FinalGini > report.BaselineGini+0.05 {
		t.Fatalf("final gini %.4f outside no-fault band (baseline %.4f)",
			report.FinalGini, report.BaselineGini)
	}
	t.Logf("chaos e2e: baseline gini %.4f, final gini %.4f, kills %d, restarts %d, reissues %d",
		report.BaselineGini, report.FinalGini, report.Kills, report.Restarts, report.Reissues)
}
