//go:build !linux

package cluster

import "os/exec"

// dieWithSupervisor does nothing where the kernel offers no parent-death
// signal: Stop is then the only way the daemons end with the supervisor.
func dieWithSupervisor(*exec.Cmd) {}
