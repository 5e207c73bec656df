package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSettleReport pins what a settle failure says about each rank: the
// last status or poll error, then the last 50 lines of its daemon log —
// or why there is none.
func TestSettleReport(t *testing.T) {
	dir := t.TempDir()
	s := &Supervisor{Spec: &Spec{Procs: 3}, DataDir: dir, lastPoll: make([]string, 3)}
	var long strings.Builder
	for i := 1; i <= 80; i++ {
		fmt.Fprintf(&long, "line %d\n", i)
	}
	if err := os.WriteFile(filepath.Join(dir, "lbd-0.log"), []byte(long.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "lbd-1.log"), []byte("listening\nround 3 started\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.notePoll(0, "started=3 done=3 pending=1 active=0 vss=5")
	s.notePoll(1, "started=3 done=2 pending=0 active=0 vss=5")
	s.notePoll(1, "error: cluster: rank 1 status: connection refused")

	got := s.settleReport()
	for _, want := range []string{
		"rank 0: last poll: started=3 done=3 pending=1 active=0 vss=5\n",
		"  last 50 lines of " + filepath.Join(dir, "lbd-0.log") + ":\n  | line 31\n",
		"  | line 80\n",
		"rank 1: last poll: error: cluster: rank 1 status: connection refused\n",
		"  last 2 lines of " + filepath.Join(dir, "lbd-1.log") + ":\n  | listening\n  | round 3 started\n",
		"rank 2: last poll: never polled\n  no log: ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "| line 30\n") {
		t.Errorf("report quotes more than the last 50 lines:\n%s", got)
	}
}
