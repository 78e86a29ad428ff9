//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// userHz is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go runs on.
const userHz = 100

// procCPU returns the cumulative user and system CPU time of a process
// (all threads) from /proc/<pid>/stat, at USER_HZ resolution.
func procCPU(pid int) (user, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("procfs: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("procfs: short stat for pid %d", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("procfs: bad cpu fields for pid %d", pid)
	}
	tick := time.Second / userHz
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// selfCPU returns this process's cumulative user + system CPU time (all
// threads) at microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the peak resident set (VmHWM) of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("procfs: bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("procfs: no VmHWM for pid %d", pid)
}

// resetPeakRSS restarts this process's VmHWM at its current RSS, so a
// workload (or one repeat of it) reports its own peak. Best effort:
// without permission the peak simply stays cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // error ignored: see above
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// cpuSet is a sched_setaffinity mask (up to 1024 CPUs).
type cpuSet [16]uint64

// first returns a set holding only the lowest CPU of s, or nil if s is
// empty.
func (s *cpuSet) first() *cpuSet {
	for i, word := range s {
		if word != 0 {
			var one cpuSet
			one[i] = word & -word
			return &one
		}
	}
	return nil
}

// getAffinity returns the CPUs thread tid may run on (0 = the caller).
func getAffinity(tid int) (*cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity(%d): %w", tid, errno)
	}
	return &s, nil
}

// setAffinity confines thread tid (0 = the caller) to the set.
func setAffinity(tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// pinProcess confines every thread of a process to the set. Threads the
// process starts later inherit the mask of the thread that starts them.
func pinProcess(pid int, s *cpuSet) error {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, s); err != nil && !errors.Is(err, syscall.ESRCH) { // a thread may exit mid-walk
			return err
		}
	}
	return nil
}
