package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// startMask is the set of CPUs this process was given.
var startMask = func() (m cpuMask) {
	// On failure the mask stays empty and passes are not confined.
	syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m
}()

// cpus lists the CPUs this process may run on; it is empty, and runs are
// left to the scheduler, where a sandbox does not let a process set its
// own affinity (tried here by setting the mask it already has).
var cpus = func() (list []int) {
	if setAllThreads(&startMask) != nil {
		return nil
	}
	for c := 0; c < len(startMask)*64; c++ {
		if startMask.has(c) {
			list = append(list, c)
		}
	}
	return list
}()

func allowedCPUs() []int { return cpus }

// setAllThreads gives every thread of this process the mask. Threads
// started afterwards inherit it from the thread that starts them.
func setAllThreads(m *cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may have exited since the directory was read.
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}

// confine runs f with the whole process, and so any process f starts,
// on one CPU, and with one P, and puts both back afterwards. With one P
// the engine's producer, its worker and the collector take turns on
// the one CPU instead of spinning for work beside it.
func confine(cpu int, f func() error) error {
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAllThreads(&one); err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(1)
	err := f()
	runtime.GOMAXPROCS(procs)
	if rerr := setAllThreads(&startMask); err == nil {
		err = rerr
	}
	return err
}
