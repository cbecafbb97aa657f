package main

// CPU-profile shares. The benchmark reads the profiles the Go runtime
// writes with `go tool pprof -traces`, which prints every sample's CPU
// time, labels and stack of function names. Samples are grouped by the
// package of the leaf frame. Garbage collection counts wherever it
// runs; runtime leaf frames are split into allocation, scheduling and
// synchronisation (channels, locks) by the frames above them; time in
// system calls (file and socket I/O, process start) is its own group.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// shareNames are the cpu_share.* groups the benchmark reports. "other"
// also takes the packages not listed, such as campaign and realtime,
// whose leaf frames rarely hold samples.
var shareNames = []string{"pilot", "vclock", "core", "profile", "serve",
	"go_sched", "go_gc", "go_alloc", "go_sync", "syscall", "other"}

// pollLabel is the pprof label the profiled daemon puts on connections
// whose latest request was a status poll (see runDaemon).
const pollLabel = "req:  poll"

// cpuSamples adds each sample's CPU ns of the profile at path to
// byGroup, and the ns of samples labelled as status polls to
// byGroup["serve_poll"], and returns the total.
func cpuSamples(path string, byGroup map[string]int64) (int64, error) {
	if info, err := os.Stat(path); err != nil {
		return 0, err
	} else if info.Size() == 0 {
		return 0, nil // a run too short for the profiler to flush a sample
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return 0, fmt.Errorf("cpu profile %s: go tool pprof: %w", path, err)
	}
	return addTraces(out, byGroup)
}

// addTraces reads `go tool pprof -traces` output: a header, then one
// block per sample after a "-----------+---" line, holding optional
// "key:  value" label lines, then "<time>   <leaf function>" and one
// caller per following line.
func addTraces(out []byte, byGroup map[string]int64) (int64, error) {
	var total int64
	var stack []string
	var ns int64
	poll, inSample := false, false
	flush := func() {
		if len(stack) > 0 {
			byGroup[groupOf(stack)] += ns
			if poll {
				byGroup["serve_poll"] += ns
			}
			total += ns
		}
		stack, ns, poll = stack[:0], 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case len(stack) == 0 && strings.HasSuffix(fields[0], ":"):
			poll = poll || strings.TrimSpace(line) == pollLabel
		case len(stack) == 0:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return 0, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			ns = d.Nanoseconds()
			stack = append(stack, fields[1])
		default:
			stack = append(stack, fields[0])
		}
	}
	flush()
	return total, sc.Err()
}

// groupOf names the group a stack's CPU time counts toward.
func groupOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), fn == "runtime.markroot",
			fn == "runtime.scanobject", fn == "runtime.sweepone":
			return "go_gc"
		}
	}
	leaf := stack[0]
	switch pkg := packageOf(leaf); pkg {
	case "syscall", "internal/runtime/syscall":
		return "syscall"
	case "sync", "internal/sync":
		return "go_sync"
	case "entk":
		return "core" // the root package re-exports core
	case "runtime":
	default:
		if rest, ok := strings.CutPrefix(pkg, "entk/internal/"); ok && slices.Contains(shareNames, rest) {
			return rest
		}
		return "other"
	}
	if slices.Contains(stack, "runtime.mallocgc") {
		return "go_alloc"
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
			"runtime.goready", "runtime.wakep", "runtime.startm", "runtime.stopm",
			"runtime.mcall", "runtime.goschedImpl", "runtime.notesleep", "runtime.notewakeup",
			"runtime.sysmon", "runtime.retake":
			return "go_sched"
		}
	}
	switch {
	case strings.HasPrefix(leaf, "runtime.chan"), strings.HasPrefix(leaf, "runtime.sema"),
		leaf == "runtime.send", leaf == "runtime.recv", leaf == "runtime.selectgo",
		leaf == "runtime.lock2", leaf == "runtime.unlock2":
		return "go_sync"
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "entk/internal/pilot.(*Agent).run" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
