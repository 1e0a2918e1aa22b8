//go:build !linux

package main

// Without sched_setaffinity a pass runs wherever the scheduler puts it.
func allowedCPUs() []int { return nil }

func confine(cpu int, f func() error) error { return f() }
