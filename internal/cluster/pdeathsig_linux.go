//go:build linux

package cluster

import (
	"os/exec"
	"syscall"
)

// dieWithSupervisor has the kernel SIGKILL cmd's process when the
// supervisor dies, so a supervisor killed outright (a test binary
// stopped mid-run) leaves no daemon holding its ports. The signal
// follows the OS thread that forked the child, not the process: the
// goroutine that starts cmd must not run on a thread locked with
// runtime.LockOSThread, whose exit would kill the child early.
func dieWithSupervisor(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
