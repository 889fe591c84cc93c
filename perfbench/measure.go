package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCounters is a snapshot of the process-wide counters the
// benchmark differences around a measured phase. Client and server
// share the process, so every figure covers both sides of the wire.
type procCounters struct {
	cpu     time.Duration // user + system CPU (getrusage)
	syscr   int64         // read-type syscalls (/proc/self/io)
	syscw   int64         // write-type syscalls
	wchar   int64         // bytes passed to write-type syscalls
	mallocs uint64        // heap objects allocated (runtime.MemStats)
	numGC   uint32
	pauseNs uint64
}

// cpuNow is the process's user + system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procCounters {
	c := procCounters{cpu: cpuNow()}
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64) // a malformed field reads 0
			switch k {
			case "syscr":
				c.syscr = n
			case "syscw":
				c.syscw = n
			case "wchar":
				c.wchar = n
			}
		}
		f.Close()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.numGC, c.pauseNs = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	return c
}

func (c procCounters) sub(b procCounters) procCounters {
	return procCounters{
		cpu:     c.cpu - b.cpu,
		syscr:   c.syscr - b.syscr,
		syscw:   c.syscw - b.syscw,
		wchar:   c.wchar - b.wchar,
		mallocs: c.mallocs - b.mallocs,
		numGC:   c.numGC - b.numGC,
		pauseNs: c.pauseNs - b.pauseNs,
	}
}

// setRuntimeLayers books the process counters of a measured phase
// that completed ops operations.
func (o *outcome) setRuntimeLayers(d procCounters, ops int64) {
	o.layer("wire.read_syscalls_per_op", perOp(float64(d.syscr), ops))
	o.layer("wire.write_syscalls_per_op", perOp(float64(d.syscw), ops))
	o.layer("wire.bytes_written_per_op", perOp(float64(d.wchar), ops))
	o.layer("runtime.allocs_per_op", perOp(float64(d.mallocs), ops))
	o.layer("runtime.gc_cycles", float64(d.numGC))
	o.layer("runtime.gc_pause_us", float64(d.pauseNs)/1e3)
}

func perOp(v float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return v / float64(ops)
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsUs converts nanosecond samples to microseconds.
func durationsUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// latencySummary is how every timing is reported: median, the 99th
// percentile and the sample count.
type latencySummary struct {
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	Samples int     `json:"samples"`
}

func summarize(ns []int64) latencySummary {
	us := durationsUs(ns)
	return latencySummary{P50us: quantile(us, 0.5), P99us: quantile(us, 0.99), Samples: len(us)}
}

// repoRoot is the repository root the benchmark builds from.
func repoRoot() string {
	if benchDir() == "perfbench" {
		return "."
	}
	return ".."
}

// machineInfo records where and on what a run happened.
func machineInfo() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"git_commit": gitCommit(),
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the commit under test, or "unknown" in a checkout
// that is not a git repository.
func gitCommit() string {
	root, err := filepath.Abs(repoRoot())
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	// Never let git climb out of the checkout to an enclosing repository.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
