package main

import "syscall"

// childAttr makes the kernel stop a child process if the benchmark dies
// before it can stop the child itself.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
