//go:build linux

package cluster

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonsDieWithSupervisor SIGKILLs a process running a one-rank
// supervisor (this test binary, re-executed as TestSupervisorHelper)
// and requires its lbd child to be gone within 5 s: no Stop ran, so
// only the parent-death signal can have ended it.
func TestDaemonsDieWithSupervisor(t *testing.T) {
	bin := buildLBD(t)
	helper := exec.Command(os.Args[0], "-test.run=^TestSupervisorHelper$", "-test.timeout=60s", "--", "supervise", bin, t.TempDir())
	helper.Stderr = os.Stderr
	out, err := helper.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}
	var pid int
	for lines := bufio.NewScanner(out); pid == 0 && lines.Scan(); {
		fmt.Sscanf(lines.Text(), "lbd pid %d", &pid)
	}
	if pid == 0 {
		helper.Process.Kill()
		helper.Wait()
		t.Fatal("the helper exited without reporting its lbd child")
	}
	if err := helper.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	helper.Wait()
	for deadline := time.Now().Add(5 * time.Second); !processGone(pid); {
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("lbd child %d outlived its SIGKILLed supervisor by 5 s", pid)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// processGone reports whether pid has exited: no such process, or a
// zombie that nothing has reaped yet.
func processGone(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if errors.Is(err, os.ErrNotExist) {
		return true
	}
	// The state follows the parenthesised command name.
	s := string(stat)
	return err == nil && strings.HasPrefix(s[strings.LastIndexByte(s, ')')+1:], " Z")
}

// TestSupervisorHelper runs only as TestDaemonsDieWithSupervisor's
// helper process: it starts a one-rank supervisor with the lbd binary
// and data directory it is given, prints the daemon's pid and waits to
// be killed.
func TestSupervisorHelper(t *testing.T) {
	args := flag.Args()
	if len(args) != 3 || args[0] != "supervise" {
		t.Skip("the helper process of TestDaemonsDieWithSupervisor")
	}
	addrs, err := ReserveAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	httpAddrs, err := ReserveAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(&Spec{ClusterID: "pdeathsig", Seed: 1, Procs: 1, Addrs: addrs, HTTPAddrs: httpAddrs}, args[1], args[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	m := sup.procs[0]
	m.mu.Lock()
	pid := m.cmd.Process.Pid
	m.mu.Unlock()
	fmt.Printf("lbd pid %d\n", pid)
	time.Sleep(time.Minute)
	sup.Stop()
}
