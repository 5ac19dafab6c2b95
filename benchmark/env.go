package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment describes the machine a run measured on.
type environment struct {
	NProc, GOMAXPROCS         int
	Go, CPU, Kernel, Revision string
}

func currentEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Revision:   gitRevision(),
	}
}

func (e environment) String() string {
	s := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q kernel=%s rev=%s",
		e.NProc, e.GOMAXPROCS, e.Go, e.CPU, e.Kernel, e.Revision)
	if e.GOMAXPROCS > e.NProc {
		s += fmt.Sprintf("\n# warning: GOMAXPROCS=%d exceeds the %d CPUs available; timings overstate parallel work", e.GOMAXPROCS, e.NProc)
	}
	return s
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision reads the checked-out commit from .git in the working
// directory, without running git: HEAD, or the loose ref it names.
// Anything else, such as a checkout that is not a clone, is "unknown".
func gitRevision() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	if ref, isRef := strings.CutPrefix(head, "ref: "); isRef {
		return firstLine(filepath.Join(".git", ref))
	}
	return head
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process at the current RSS, so the next reading covers one op.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark since the
// last resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
