package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// envRecord identifies the machine, toolchain and code a result was
// measured on.
type envRecord struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	// GOMAXPROCS of the benchmark process and of the daemon (which
	// inherits the same environment and so the same default).
	GOMAXPROCSBench  int    `json:"gomaxprocs_bench"`
	GOMAXPROCSServer int    `json:"gomaxprocs_server"`
	Go               string `json:"go"`
	Kernel           string `json:"kernel"`
	// Commit is the git revision when the checkout is a repository,
	// else "tree:" and the digest of the Go sources the suite cache is
	// keyed by.
	Commit string `json:"commit"`
	// TimerUS is the median time a 20 µs time.NewTimer takes to fire:
	// on coarse-timer VMs about a millisecond, which also floors the
	// daemon's relate batching window and so relate latency.
	TimerUS float64 `json:"timer_20us_fires_after_us"`
}

func environment(repo, digest string) envRecord {
	e := envRecord{
		NProc:           runtime.NumCPU(),
		GOMAXPROCSBench: runtime.GOMAXPROCS(0),
		Go:              runtime.Version(),
		Commit:          "tree:" + digest,
		TimerUS:         timerResolutionUS(),
	}
	e.GOMAXPROCSServer = e.GOMAXPROCSBench
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				e.CPU = strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Only a checkout that is itself a repository: git would otherwise
	// search the parent directories.
	if _, err := os.Stat(filepath.Join(repo, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = repo
		if out, err := cmd.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// timerResolutionUS measures how late a 20 µs timer fires (median of 50).
func timerResolutionUS() float64 {
	d := make([]float64, 50)
	for i := range d {
		t0 := time.Now()
		t := time.NewTimer(20 * time.Microsecond)
		<-t.C
		d[i] = us(time.Since(t0))
	}
	sort.Float64s(d)
	return d[len(d)/2]
}

// stealTicks reads the machine's cumulative steal time from /proc/stat
// in clock ticks: time a virtual CPU wanted to run but the hypervisor
// ran another guest. 0 when unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
