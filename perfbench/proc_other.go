//go:build !linux

package main

import "syscall"

// childAttr has no parent-death signal to set outside Linux; the
// benchmark stops its child on every path it controls.
func childAttr() *syscall.SysProcAttr { return nil }
