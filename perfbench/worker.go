package main

// The worker is the child process that runs the program for the sim
// and real workloads, so the parent can read the program's own rusage.
// It receives the generated campaign JSON and the plan as files, runs
// the campaign back to back until its time is up, checks every run,
// and writes one WorkerResult as JSON.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"entk"
	"entk/internal/campaign"
	"entk/internal/profile"
	"entk/internal/realtime"
)

// Sample is one campaign run inside a worker.
type Sample struct {
	WallNs int64  `json:"wall_ns"` // parse + run, JSON to report
	CPUNs  int64  `json:"cpu_ns"`  // process + reaped children, same window
	KidNs  int64  `json:"kid_ns"`  // the reaped children's share of CPUNs
	Tasks  int    `json:"tasks"`   // tasks the report counts
	Err    string `json:"err,omitempty"`

	TTCVirtualS float64   `json:"ttc_virtual_s"`
	Events      int       `json:"events"`
	Units       int       `json:"units"`
	Waves       int       `json:"waves"`
	Stages      int       `json:"stages"`
	Retries     int       `json:"retries"`
	Util        []float64 `json:"util"`

	// Traced runs only.
	Spans      map[string]int64 `json:"spans,omitempty"` // span name → ns
	Mallocs    uint64           `json:"mallocs,omitempty"`
	AllocBytes uint64           `json:"alloc_bytes,omitempty"`
	GCs        uint32           `json:"gcs,omitempty"`
	DumpBytes  int64            `json:"dump_bytes,omitempty"`
	ExecMs     []float64        `json:"exec_ms,omitempty"` // real mode
	BusyS      float64          `json:"busy_s,omitempty"`  // real mode
}

// WorkerResult is what a worker reports back to the parent.
type WorkerResult struct {
	PeakRSSKB int64    `json:"peak_rss_kb"`
	SetupNs   []int64  `json:"setup_ns"`
	ParseNs   []int64  `json:"parse_ns"`
	BindNs    []int64  `json:"bind_ns"`
	Samples   []Sample `json:"samples"`
	Profiles  []string `json:"profiles,omitempty"`
	CalNs     []int64  `json:"cal_ns"` // calibration loops, one before each run
}

type workerConfig struct {
	mode     string // kindSim or kindReal
	input    string // file holding the Input (JSON + plan)
	out      string // result file
	dir      string // scratch directory for captures, dumps, profiles
	spans    string // span file; set for a traced run
	seconds  float64
	minSetup int
}

func runWorker(cfg workerConfig) error {
	var in Input
	if err := readJSON(cfg.input, &in); err != nil {
		return err
	}
	opts := campaign.Options{}
	if cfg.mode == kindReal {
		opts.Mode = campaign.ModeReal
	}
	res := WorkerResult{}
	if err := measureSetup(in.JSON, opts, cfg.minSetup, &res); err != nil {
		return err
	}

	var spans spanLog
	w := newWindow(cfg.seconds)
	for i := 0; w.more(); i++ {
		res.CalNs = append(res.CalNs, calibrate())
		runtime.GC() // start every run from a collected heap
		t0 := time.Now()
		s := runOnce(cfg, in, opts, i, &spans, &res)
		w.took(time.Since(t0))
		res.Samples = append(res.Samples, s)
		if s.Err != "" {
			break
		}
	}
	if cfg.spans != "" {
		if err := spans.write(cfg.spans); err != nil {
			return err
		}
	}
	var err error
	if res.PeakRSSKB, err = peakRSSKB(os.Getpid()); err != nil {
		return err
	}
	return writeJSON(cfg.out, res)
}

// measureSetup times parse + validate + bind + compile of the campaign
// until at least minReps runs and one second have gone by. Each run
// starts from a collected heap, as the first one in a process does.
func measureSetup(raw []byte, opts campaign.Options, minReps int, res *WorkerResult) error {
	start := time.Now()
	for i := 0; i < minReps || (time.Since(start) < time.Second && i < 200); i++ {
		runtime.GC()
		t0 := time.Now()
		c, err := campaign.Parse(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		t1 := time.Now()
		if _, err := c.Bind(opts.NewClock(), opts); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		c.GraphPipelines()
		t2 := time.Now()
		res.SetupNs = append(res.SetupNs, t2.Sub(t0).Nanoseconds())
		res.ParseNs = append(res.ParseNs, t1.Sub(t0).Nanoseconds())
		res.BindNs = append(res.BindNs, t2.Sub(t1).Nanoseconds())
	}
	return nil
}

// runOnce parses and runs the campaign once and checks the outcome.
// Untraced runs go through campaign.Run; traced runs make the same calls
// one by one with a span around each.
func runOnce(cfg workerConfig, in Input, opts campaign.Options, i int, spans *spanLog, wr *WorkerResult) Sample {
	var s Sample
	traced := cfg.spans != ""
	capDir := filepath.Join(cfg.dir, fmt.Sprintf("capture-%03d", i))
	if opts.Mode == campaign.ModeReal {
		opts.Dir = capDir
		defer os.RemoveAll(capDir)
	}
	var ms0 runtime.MemStats
	var stopProfile func()
	if traced {
		p := filepath.Join(cfg.dir, fmt.Sprintf("cpu-%03d.pprof", i))
		var err error
		if stopProfile, err = startCPUProfile(p); err != nil {
			s.Err = err.Error()
			return s
		}
		wr.Profiles = append(wr.Profiles, p)
		runtime.ReadMemStats(&ms0)
	}
	cpu0, kid0 := cpuTime()
	t0 := time.Now()
	var res *campaign.Result
	var err error
	if traced {
		res, err = runTraced(in.JSON, opts, spans, fmt.Sprintf("run%03d", i), &s)
	} else {
		var c *campaign.Campaign
		if c, err = campaign.Parse(bytes.NewReader(in.JSON)); err == nil {
			res, err = campaign.Run(c, opts)
		}
	}
	s.WallNs = time.Since(t0).Nanoseconds()
	cpu1, kid1 := cpuTime()
	s.CPUNs, s.KidNs = cpu1-cpu0, kid1-kid0
	if traced {
		stopProfile()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.Mallocs = ms1.Mallocs - ms0.Mallocs
		s.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		s.GCs = ms1.NumGC - ms0.NumGC
	}
	if err != nil {
		s.Err = err.Error()
		return s
	}
	fillCounters(&s, res)
	var cerr error
	if opts.Mode == campaign.ModeReal {
		cerr = checkReal(in.Plan, res, capDir)
		if traced {
			s.ExecMs, s.BusyS = execSpans(res.Prof)
		}
	} else {
		cerr = checkSim(in.Plan, res)
	}
	if cerr != nil {
		s.Err = cerr.Error()
	}
	if traced && cerr == nil {
		if err := timeDump(res.Prof, spans, fmt.Sprintf("run%03d", i), filepath.Join(cfg.dir, "dump.bin"), &s); err != nil {
			s.Err = err.Error()
		}
	}
	return s
}

// runTraced mirrors campaign.Run call for call, recording a span around
// parse, bind (resource set + graph compile), allocate, AppManager.Run
// and deallocate.
func runTraced(raw []byte, opts campaign.Options, spans *spanLog, id string, s *Sample) (*campaign.Result, error) {
	s.Spans = map[string]int64{}
	root := spans.begin(id, "campaign", 0)
	defer spans.end(root)
	span := func(name string, fn func()) {
		sp := spans.begin(id, name, root)
		fn()
		s.Spans[name] = spans.end(sp)
	}
	var c *campaign.Campaign
	var err error
	span("parse", func() { c, err = campaign.Parse(bytes.NewReader(raw)) })
	if err != nil {
		return nil, err
	}
	if opts.Mode == campaign.ModeReal {
		ex, err := realtime.New(realtime.Config{Dir: opts.Dir})
		if err != nil {
			return nil, err
		}
		defer ex.Close()
		opts.Runner = ex
	}
	v := opts.NewClock()
	var rs *entk.ResourceSet
	var pls []*entk.Pipeline
	span("bind", func() {
		if rs, err = c.Bind(v, opts); err == nil {
			pls = c.GraphPipelines()
		}
	})
	if err != nil {
		return nil, err
	}
	res := &campaign.Result{}
	v.Run(func() {
		span("allocate", func() { err = rs.Allocate() })
		if err != nil {
			return
		}
		span("run", func() { res.Campaign, err = entk.NewAppManager(rs).Run(pls...) })
		span("deallocate", func() {
			if derr := rs.Deallocate(); err == nil {
				err = derr
			}
		})
	})
	if sess := rs.Session(); sess != nil {
		res.Prof = sess.Prof
	}
	return res, err
}

// timeDump times a profiler snapshot and a full dump to a file, as the
// daemon does when it persists a settled campaign.
func timeDump(prof *profile.Profiler, spans *spanLog, id, path string, s *Sample) error {
	sp := spans.begin(id, "snapshot", 0)
	snap := prof.Snapshot()
	s.Spans["snapshot"] = spans.end(sp)
	sp = spans.begin(id, "dump", 0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := snap.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	s.Spans["dump"] = spans.end(sp)
	s.DumpBytes = n
	os.Remove(path)
	return err
}

// fillCounters reads the order-independent counters of a finished run.
func fillCounters(s *Sample, res *campaign.Result) {
	if rep := res.Campaign; rep != nil && rep.Campaign != nil {
		s.Tasks = rep.Campaign.Tasks
		s.Retries = rep.Campaign.Retries
		s.TTCVirtualS = rep.Campaign.TTC.Seconds()
		for _, pr := range rep.Pipelines {
			for _, ph := range pr.Phases {
				s.Stages += ph.Occurrences
			}
		}
		for _, pu := range rep.Pilots {
			s.Util = append(s.Util, pu.Utilization)
		}
	}
	if res.Prof != nil {
		s.Events = res.Prof.EventCount()
		s.Units = res.Prof.Count("unit.", "exec_start")
		s.Waves = res.Prof.Count("umgr", "wave_submit_start")
	}
}

// execSpans returns each unit's exec_start→exec_stop span in ms and the
// summed busy time in s (real mode; the trace holds a few hundred units).
func execSpans(prof *profile.Profiler) ([]float64, float64) {
	start := map[string]time.Duration{}
	var out []float64
	for _, e := range prof.Events() {
		switch e.Name {
		case "exec_start":
			start[e.Entity] = e.T
		case "exec_stop":
			if t0, ok := start[e.Entity]; ok {
				out = append(out, float64(e.T-t0)/float64(time.Millisecond))
			}
		}
	}
	sort.Float64s(out)
	return out, prof.SumPairs("unit.", "exec_start", "exec_stop").Seconds()
}

// cpuTime returns the user+sys CPU of this process and its reaped
// children (the real-mode unit processes), and the children's part, in
// ns.
func cpuTime() (total, kids int64) {
	var ru, kru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kru)
	kids = kru.Utime.Nano() + kru.Stime.Nano()
	return ru.Utime.Nano() + ru.Stime.Nano() + kids, kids
}

// peakRSSKB reads a process's peak resident set (VmHWM) in KiB. Unlike
// the maxrss rusage reports, it covers only the process's own address
// space since its exec, not the parent's it was started from.
func peakRSSKB(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// startCPUProfile starts the runtime CPU profiler into path and returns
// the function that stops it and closes the file.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
