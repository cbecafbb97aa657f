// Command perfbench is the repository's benchmark: it generates a
// workload from a seed, drives the toolkit through its public entry
// points (campaign.Parse/Run, the entk-serve HTTP API, real mode),
// checks every output, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics, as one JSON line.
//
//	perfbench/run.sh --workload bulk-eop --seed 1 --seconds 25 --trace 0
//	perfbench/run.sh --workload all --seed 1
//
// run.sh builds this program and entk-serve from the checkout into
// .bench_build and runs it from the checkout root. WORKLOADS.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measured seconds per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	serveBin := flag.String("serve-bin", ".bench_build/bin/entk-serve", "entk-serve binary")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for results, spans and scratch")

	// Child-process modes (used by the benchmark itself).
	worker := flag.String("worker", "", "internal: run as a sim/real worker or a profiled daemon")
	input := flag.String("input", "", "internal: worker input file")
	result := flag.String("result", "", "internal: worker result file")
	dir := flag.String("dir", "", "internal: worker scratch directory")
	spans := flag.String("spans", "", "internal: worker span file; set, the worker records spans and profiles")
	addr := flag.String("addr", "", "internal: daemon listen address")
	state := flag.String("state", "", "internal: daemon state directory")
	flag.Parse()

	switch *worker {
	case "":
	case kindSim, kindReal:
		err := runWorker(workerConfig{mode: *worker, input: *input, out: *result, dir: *dir,
			spans: *spans, seconds: *seconds, minSetup: 5})
		exitOn(err)
		return
	case "daemon":
		exitOn(runDaemon(*addr, *state, filepath.Join(*dir, "daemon-cpu.pprof"), filepath.Join(*dir, "daemon-mem.json")))
		return
	default:
		exitOn(fmt.Errorf("unknown worker mode %q", *worker))
	}

	if *trace != 0 && *trace != 1 {
		exitOn(fmt.Errorf("-trace must be 0 or 1"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if workloadKind(*workload) == "" {
		exitOn(fmt.Errorf("unknown workload %q (want all or one of %v)", *workload, workloadNames))
	}
	serveAbs, err := filepath.Abs(*serveBin)
	exitOn(err)
	b := &bench{seed: *seed, seconds: *seconds, traced: *trace == 1, serveBin: serveAbs}
	b.out, err = filepath.Abs(*outDir)
	exitOn(err)
	exitOn(os.MkdirAll(filepath.Join(b.out, "results"), 0o755))
	b.fp = fingerprint(*seed)
	b.fp.Trace = *trace

	total := Output{Correct: true, Metrics: map[string]Metric{}}
	for _, name := range names {
		o := b.run(name)
		if len(names) == 1 {
			total = o
			break
		}
		line, _ := json.Marshal(o)
		fmt.Printf("%s %s\n", name, line)
		total.Correct = total.Correct && o.Correct
		total.Attempted += o.Attempted
		total.Failed += o.Failed
		for k, m := range o.Metrics {
			total.Metrics[name+":"+k] = m
		}
	}
	line, err := json.Marshal(total)
	exitOn(err)
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Output is the final result line.
type Output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// bench holds one invocation's settings.
type bench struct {
	seed     uint64
	seconds  float64
	traced   bool
	serveBin string
	out      string
	fp       Fingerprint
}

// outcome is what the run of one workload measured.
type outcome struct {
	attempted, failed int
	refused           int // serve: POSTs not answered 201
	retries           int // sim, real: retries the reports count
	errs              []string
	calMs             []float64 // calibration loops interleaved with the runs
	metrics           map[string]Metric
	samples           map[string]int // sample counts behind the metrics
	// runs lists per-campaign (sim, real) or per-session (serve) figures
	// of the untraced part, for the result file.
	runs []map[string]float64
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = Metric{Value: v, Unit: unit}
}

// run measures one workload, prints its metrics and its fingerprint,
// and writes the result file.
func (b *bench) run(name string) Output {
	runDir := filepath.Join(b.out, fmt.Sprintf("run-%s-%d", name, os.Getpid()))
	o := &outcome{metrics: map[string]Metric{}, samples: map[string]int{}}
	err := os.MkdirAll(runDir, 0o755)
	if err == nil {
		switch workloadKind(name) {
		case kindServe:
			err = b.runServe(name, runDir, o)
		default:
			err = b.runLocal(name, runDir, o)
		}
	}
	if err != nil {
		o.errs = append(o.errs, err.Error())
	}
	os.RemoveAll(runDir)

	out := Output{Correct: len(o.errs) == 0 && o.failed == 0, Attempted: max(o.attempted, 1),
		Failed: o.failed, Metrics: o.metrics}
	if o.attempted == 0 {
		out.Failed = 1 // nothing ran: the whole attempt failed
		out.Correct = false
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, e)
	}
	keys := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := o.metrics[k]
		fmt.Printf("%-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("%-28s %14.6g ratio (%d failed of %d attempted; %d retries, %d refused)\n", "failed_frac",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted, o.retries, o.refused)
	fmt.Printf("%-28s %14.6g ms (median of %d, (max-min)/median %.3f)\n", "calibration_ms",
		median(o.calMs), len(o.calMs), spread(o.calMs))
	fp := b.fp
	fp.Workload = name
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)
	rec := map[string]any{"fingerprint": fp, "result": out, "samples": o.samples, "runs": o.runs, "errors": o.errs,
		"calibration_ms": o.calMs}
	raw, _ := json.MarshalIndent(rec, "", "  ")
	path := filepath.Join(b.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, b.seed, fp.Trace))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return out
}

// child starts argv as a child process that dies with the benchmark.
func child(argv []string, logPath string) (*exec.Cmd, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stdout, cmd.Stderr = logf, logf
	return cmd, cmd.Start()
}

// spansPath is where a traced run of the workload writes its spans.
func (b *bench) spansPath(name string) string {
	return filepath.Join(b.out, "results", fmt.Sprintf("%s-seed%d-spans.json", name, b.seed))
}

// spawnWorker runs one worker child to completion and returns its
// result. A traced worker writes its spans to spans.
func (b *bench) spawnWorker(kind, runDir, input string, seconds float64, spans, tag string) (*WorkerResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	wdir := filepath.Join(runDir, tag)
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return nil, err
	}
	resPath := filepath.Join(wdir, "result.json")
	argv := []string{self, "-worker", kind, "-input", input, "-result", resPath, "-dir", wdir,
		"-seconds", fmt.Sprint(seconds), "-spans", spans}
	logPath := filepath.Join(wdir, "worker.log")
	cmd, err := child(argv, logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		msg, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("worker %s: %v: %s", tag, err, msg)
	}
	var wr WorkerResult
	if err := readJSON(resPath, &wr); err != nil {
		return nil, err
	}
	return &wr, nil
}

// runLocal measures a sim or real workload.
func (b *bench) runLocal(name, runDir string, o *outcome) error {
	inputs, err := generate(name, b.seed, 1)
	if err != nil {
		return err
	}
	in := inputs[0]
	inPath := filepath.Join(runDir, "input.json")
	if err := writeJSON(inPath, in); err != nil {
		return err
	}
	kind := workloadKind(name)
	untracedSecs := b.seconds
	if b.traced {
		untracedSecs = b.seconds / 2
	}
	base, err := b.spawnWorker(kind, runDir, inPath, untracedSecs, "", "untraced")
	if err != nil {
		return err
	}
	count := func(wr *WorkerResult) {
		for _, ns := range wr.CalNs {
			o.calMs = append(o.calMs, float64(ns)/1e6)
		}
		for _, s := range wr.Samples {
			o.attempted += in.Plan.Tasks
			o.retries += s.Retries
			if s.Err != "" {
				o.failed += in.Plan.Tasks
				o.errs = append(o.errs, s.Err)
			}
		}
	}
	count(base)
	for _, s := range base.Samples {
		o.runs = append(o.runs, map[string]float64{"wall_ms": float64(s.WallNs) / 1e6,
			"cpu_s": float64(s.CPUNs) / 1e9, "child_cpu_s": float64(s.KidNs) / 1e9})
	}
	o.samples["campaigns"] = len(base.Samples)
	o.samples["setup"] = len(base.SetupNs)
	if !b.traced {
		setLocalEndToEnd(o, base)
		return nil
	}

	tr, err := b.spawnWorker(kind, runDir, inPath, b.seconds/2, b.spansPath(name), "traced")
	if err != nil {
		return err
	}
	count(tr)
	zeroLayers(o)
	all := append(append([]Sample(nil), base.Samples...), tr.Samples...)
	traced := func(f func(Sample) float64) []float64 { return pick(tr.Samples, f) }
	span := func(n string) []float64 { return traced(func(s Sample) float64 { return float64(s.Spans[n]) }) }
	o.set("campaign.parse_ms", median(i64s(tr.ParseNs))/1e6, "ms")
	o.set("campaign.bind_ms", median(i64s(tr.BindNs))/1e6, "ms")
	o.set("core.allocate_ms", median(span("allocate"))/1e6, "ms")
	o.set("core.run_s", median(span("run"))/1e9, "s")
	o.set("core.deallocate_ms", median(span("deallocate"))/1e6, "ms")
	o.set("core.stages", median(traced(func(s Sample) float64 { return float64(s.Stages) })), "count")
	o.set("core.tasks", median(traced(func(s Sample) float64 { return float64(s.Tasks) })), "count")
	var retries int
	ttc := make([]float64, 0, len(all))
	events := make([]float64, 0, len(all))
	for _, s := range all {
		retries += s.Retries
		ttc = append(ttc, s.TTCVirtualS)
		events = append(events, float64(s.Events))
	}
	o.set("core.retries", float64(retries), "count")
	o.set("core.ttc_virtual_s", median(ttc), "s")
	o.set("core.ttc_virtual_s.spread", spread(ttc), "ratio")
	o.set("pilot.units", median(traced(func(s Sample) float64 { return float64(s.Units) })), "count")
	o.set("pilot.waves", median(traced(func(s Sample) float64 { return float64(s.Waves) })), "count")
	for p := 0; p < 2; p++ {
		o.set(fmt.Sprintf("pilot.util.%d", p), median(traced(func(s Sample) float64 {
			if p < len(s.Util) {
				return s.Util[p]
			}
			return 0
		})), "ratio")
	}
	o.set("profile.events", median(events), "count")
	o.set("profile.events.spread", spread(events), "ratio")
	o.set("profile.snapshot_ms", median(span("snapshot"))/1e6, "ms")
	o.set("profile.dump_ms", median(span("dump"))/1e6, "ms")
	o.set("profile.dump_mb", median(traced(func(s Sample) float64 { return float64(s.DumpBytes) }))/(1<<20), "MB")
	var mallocs, bytes, units float64
	for _, s := range tr.Samples {
		mallocs += float64(s.Mallocs)
		bytes += float64(s.AllocBytes)
		units += float64(s.Tasks)
	}
	o.set("go.allocs_per_unit", mallocs/max(units, 1), "count")
	o.set("go.bytes_per_unit", bytes/max(units, 1), "B")
	o.set("go.gc_cycles", median(traced(func(s Sample) float64 { return float64(s.GCs) })), "count")
	if kind == kindReal {
		var exec []float64
		for _, s := range tr.Samples {
			exec = append(exec, s.ExecMs...)
		}
		o.set("realtime.exec_ms_p50", percentile(exec, 0.50), "ms")
		o.set("realtime.exec_ms_p99", percentile(exec, 0.99), "ms")
		o.set("realtime.busy_s", median(traced(func(s Sample) float64 { return s.BusyS })), "s")
		o.samples["exec_spans"] = len(exec)
	}
	if err := setShares(o, tr.Profiles); err != nil {
		return err
	}
	wall := func(s Sample) float64 { return float64(s.WallNs) }
	o.set("trace.overhead_ms", (median(pick(tr.Samples, wall))-median(pick(base.Samples, wall)))/1e6, "ms")
	o.samples["traced_campaigns"] = len(tr.Samples)
	return nil
}

// setLocalEndToEnd sets the end-to-end metrics of a sim or real run
// from its untraced worker.
func setLocalEndToEnd(o *outcome, wr *WorkerResult) {
	walls := pick(wr.Samples, func(s Sample) float64 { return float64(s.WallNs) })
	rates := pick(wr.Samples, func(s Sample) float64 { return float64(s.Tasks) / (float64(s.WallNs) / 1e9) })
	o.set("setup_s", median(i64s(wr.SetupNs))/1e9, "s")
	o.set("units_per_s", median(rates), "1/s")
	o.set("cpu_s", median(pick(wr.Samples, func(s Sample) float64 { return float64(s.CPUNs) }))/1e9, "s")
	o.set("peak_rss_mb", float64(wr.PeakRSSKB)/1024, "MB")
	// Here a campaign is one run of the whole workload. A run holds 4-10
	// of them, too few for a p95 with ten samples beyond it, so
	// campaign_p95_ms reports the median, the highest percentile these
	// samples support.
	o.set("campaigns_per_s", 1/(median(walls)/1e9), "1/s")
	o.set("campaign_p50_ms", median(walls)/1e6, "ms")
	o.set("campaign_p95_ms", median(walls)/1e6, "ms")
}

// pick maps samples to one figure each.
func pick[T any](samples []T, f func(T) float64) []float64 {
	v := make([]float64, 0, len(samples))
	for _, s := range samples {
		v = append(v, f(s))
	}
	return v
}

// window is a run's measuring window. It always admits a first step,
// and then another only while the median step so far still ends inside
// the window, so a run stays within its seconds instead of overrunning
// by up to a whole step.
type window struct {
	end   time.Time
	steps []float64
}

func newWindow(seconds float64) *window {
	return &window{end: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

func (w *window) more() bool {
	return len(w.steps) == 0 || time.Now().Add(time.Duration(median(w.steps))).Before(w.end)
}

func (w *window) took(d time.Duration) { w.steps = append(w.steps, float64(d)) }

// layerNames lists every per-layer metric with its unit; a workload
// that does not exercise a layer reports 0 for it.
var layerNames = [][2]string{
	{"campaign.parse_ms", "ms"}, {"campaign.bind_ms", "ms"},
	{"core.allocate_ms", "ms"}, {"core.run_s", "s"}, {"core.deallocate_ms", "ms"},
	{"core.stages", "count"}, {"core.tasks", "count"}, {"core.retries", "count"},
	{"core.ttc_virtual_s", "s"}, {"core.ttc_virtual_s.spread", "ratio"},
	{"pilot.units", "count"}, {"pilot.waves", "count"}, {"pilot.util.0", "ratio"}, {"pilot.util.1", "ratio"},
	{"profile.events", "count"}, {"profile.events.spread", "ratio"},
	{"profile.snapshot_ms", "ms"}, {"profile.dump_ms", "ms"}, {"profile.dump_mb", "MB"},
	{"serve.submit_ms", "ms"}, {"serve.report_ms", "ms"}, {"serve.polls_per_campaign", "count"},
	{"serve.state_mb", "MB"}, {"serve.trace_mb_max", "MB"}, {"serve.refused", "count"},
	{"serve.poll_cpu_share", "ratio"},
	{"realtime.exec_ms_p50", "ms"}, {"realtime.exec_ms_p99", "ms"}, {"realtime.busy_s", "s"},
	{"go.allocs_per_unit", "count"}, {"go.bytes_per_unit", "B"}, {"go.gc_cycles", "count"},
	{"cpu_share.pilot", "ratio"}, {"cpu_share.vclock", "ratio"}, {"cpu_share.core", "ratio"},
	{"cpu_share.profile", "ratio"}, {"cpu_share.serve", "ratio"},
	{"cpu_share.go_sched", "ratio"}, {"cpu_share.go_gc", "ratio"},
	{"cpu_share.go_alloc", "ratio"}, {"cpu_share.go_sync", "ratio"},
	{"cpu_share.syscall", "ratio"}, {"cpu_share.other", "ratio"},
	{"trace.overhead_ms", "ms"},
}

func zeroLayers(o *outcome) {
	for _, l := range layerNames {
		o.set(l[0], 0, l[1])
	}
}

// setShares reads CPU profiles and sets the cpu_share.* metrics and
// serve.poll_cpu_share.
func setShares(o *outcome, profiles []string) error {
	groups := map[string]int64{}
	var total int64
	for _, p := range profiles {
		n, err := cpuSamples(p, groups)
		if err != nil {
			return err
		}
		total += n
	}
	for _, g := range shareNames {
		o.set("cpu_share."+g, float64(groups[g])/float64(max(total, 1)), "ratio")
	}
	o.set("serve.poll_cpu_share", float64(groups["serve_poll"])/float64(max(total, 1)), "ratio")
	o.samples["cpu_profile_ms"] = int(total / 1e6)
	return nil
}

func i64s(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// median of v (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean of v (0 for none).
func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// percentile is the nearest-rank q-quantile of v (0 for none).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(q*float64(len(s)) + 0.999999999)
	return s[min(max(rank, 1), len(s))-1]
}

// spread is (max - min) / median of v (0 for fewer than two values).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / m
}
