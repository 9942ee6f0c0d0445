package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The serving workloads run the server and the load generator on
// disjoint CPUs: the server on the upper half, the benchmark process on
// the lower half. Left to the scheduler, the two processes sometimes
// share a CPU and sometimes not, and on a virtual machine that choice
// alone — a wakeup on the same CPU or an interrupt to a sleeping one —
// doubled the median ingest latency of some runs but not others. With
// one CPU there is nothing to split and nothing is pinned.

type cpuMask [16]uint64 // 1024 CPUs

func (m *cpuMask) set(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

// cpus lists the CPUs in the mask, in order.
func (m *cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// startCPUs is the mask the process started with: the CPUs it may use,
// which in a container need not be 0..nproc-1. It is read before
// pinSelf narrows the process's own mask.
var startCPUs = func() cpuMask {
	var m cpuMask
	if err := getAffinity(&m); err != nil {
		for c := 0; c < runtime.NumCPU(); c++ {
			m.set(c)
		}
	}
	return m
}()

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

func getAffinity(m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuSplit returns the client and server masks, the lower and upper half
// of startCPUs, or ok=false when there are fewer than two CPUs to split.
func cpuSplit() (client, server cpuMask, ok bool) {
	cpus := startCPUs.cpus()
	if len(cpus) < 2 {
		return client, server, false
	}
	for i, c := range cpus {
		if i < len(cpus)/2 {
			client.set(c)
		} else {
			server.set(c)
		}
	}
	return client, server, true
}

// pinSelf moves every thread of the benchmark process onto the client
// CPUs; threads created later inherit the mask from their creator.
func pinSelf() error {
	client, _, ok := cpuSplit()
	if !ok {
		return nil
	}
	return setProcessAffinity(&client)
}

// unpinSelf lets the benchmark process use every CPU again, for the
// checks after the measured phases.
func unpinSelf() error {
	return setProcessAffinity(allCPUs())
}

func allCPUs() *cpuMask {
	all := startCPUs
	return &all
}

func setProcessAffinity(m *cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// startOnServerCPUs starts cmd with the server CPU mask.
func startOnServerCPUs(cmd *exec.Cmd) error {
	_, server, ok := cpuSplit()
	if !ok {
		return cmd.Start()
	}
	return startWithMask(cmd, &server)
}

// startOnAllCPUs starts cmd free to run anywhere, whatever the
// benchmark process itself is pinned to.
func startOnAllCPUs(cmd *exec.Cmd) error { return startWithMask(cmd, allCPUs()) }

// startWithMask starts cmd with the given CPU mask. A child inherits the
// affinity of the thread that forks it, so the fork runs on a locked
// thread whose mask is switched for the duration.
func startWithMask(cmd *exec.Cmd, mask *cpuMask) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old cpuMask
	if err := getAffinity(&old); err != nil {
		return err
	}
	if err := setAffinity(0, mask); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, &old); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
