package main

import (
	"bytes"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"entk/internal/campaign"
	"entk/internal/profile"
	"entk/internal/serve"
)

func TestGenerateIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 1)
		c, _ := generate(name, 8, 1)
		if len(a) != len(b) {
			t.Fatalf("%s: %d inputs, then %d for the same seed", name, len(a), len(b))
		}
		differs := len(a) != len(c)
		for i := range a {
			if !bytes.Equal(a[i].JSON, b[i].JSON) {
				t.Fatalf("%s: input %d differs between two generations from seed 7", name, i)
			}
			if i < len(c) && !bytes.Equal(a[i].JSON, c[i].JSON) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate identical inputs", name)
		}
	}
}

// runSmall runs a reduced workload once in process and returns its
// input and result.
func runSmall(t *testing.T, name string, scale float64) (Input, *campaign.Result, string) {
	t.Helper()
	inputs, err := generate(name, 3, scale)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs[0]
	c, err := campaign.Parse(bytes.NewReader(in.JSON))
	if err != nil {
		t.Fatal(err)
	}
	opts := campaign.Options{}
	dir := t.TempDir()
	if workloadKind(name) == kindReal {
		opts = campaign.Options{Mode: campaign.ModeReal, Dir: dir}
	}
	res, err := campaign.Run(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return in, res, dir
}

func TestCheckSimRejectsBrokenResults(t *testing.T) {
	in, res, _ := runSmall(t, "graph-mixed", 0.002)
	if err := checkSim(in.Plan, res); err != nil {
		t.Fatalf("intact run rejected: %v", err)
	}
	rep := res.Campaign
	broken := map[string]func(p *Plan) func(){
		"task count": func(*Plan) func() {
			rep.Campaign.Tasks++
			return func() { rep.Campaign.Tasks-- }
		},
		"retries": func(*Plan) func() {
			rep.Campaign.Retries = 1
			return func() { rep.Campaign.Retries = 0 }
		},
		"pipeline tasks": func(*Plan) func() {
			rep.Pipelines[0].Tasks--
			return func() { rep.Pipelines[0].Tasks++ }
		},
		"missing pipeline": func(*Plan) func() {
			saved := rep.Pipelines
			rep.Pipelines = rep.Pipelines[1:]
			return func() { rep.Pipelines = saved }
		},
		"exec windows": func(p *Plan) func() {
			p.BusyNs += int64(time.Second)
			return func() {}
		},
		"stage count": func(p *Plan) func() {
			p.Stages++
			return func() {}
		},
		"unit count": func(p *Plan) func() {
			p.Tasks++
			return func() {}
		},
	}
	for name, breakIt := range broken {
		p := in.Plan
		p.PipelineTasks = append([]int(nil), in.Plan.PipelineTasks...)
		restore := breakIt(&p)
		if err := checkSim(p, res); err == nil {
			t.Errorf("%s: broken result accepted", name)
		}
		restore()
	}
}

// fakeClock stamps hand-recorded profiler events.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func TestCheckUnitsRejectsMisplacedWindows(t *testing.T) {
	record := func(windows map[string]int) *profile.Profiler {
		clk := &fakeClock{}
		prof := profile.New(clk)
		for _, u := range []string{"unit.000001", "unit.000002"} {
			prof.Record(u, "new")
			for i := 0; i < windows[u]; i++ {
				prof.Record(u, "exec_start")
				clk.t += 10 * time.Second
				prof.Record(u, "exec_stop")
			}
		}
		return prof
	}
	p := Plan{Tasks: 2, BusyNs: int64(20 * time.Second)}
	if err := checkUnits(p, record(map[string]int{"unit.000001": 1, "unit.000002": 1}), true); err != nil {
		t.Fatalf("one window per unit rejected: %v", err)
	}
	// Two windows on one unit and none on the other keep the totals.
	if err := checkUnits(p, record(map[string]int{"unit.000001": 2}), true); err == nil {
		t.Error("a unit with two windows and one with none accepted")
	}
	if err := checkUnits(p, nil, true); err == nil {
		t.Error("missing profiler accepted")
	}
}

func TestCheckRealRejectsMissingCapture(t *testing.T) {
	in, res, dir := runSmall(t, "real-local", 0.1)
	if err := checkReal(in.Plan, res, dir); err != nil {
		t.Fatalf("intact run rejected: %v", err)
	}
	outs, _ := filepath.Glob(filepath.Join(dir, "*.out"))
	if err := os.Remove(outs[0]); err != nil {
		t.Fatal(err)
	}
	if err := checkReal(in.Plan, res, dir); err == nil {
		t.Error("run with a missing capture accepted")
	}
	if err := os.WriteFile(outs[0][:len(outs[0])-len("a00.out")]+"a01.out", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkReal(in.Plan, res, dir); err == nil {
		t.Error("run whose capture is a retry accepted")
	}
}

func TestCheckServedState(t *testing.T) {
	if err := checkServedState("c", serve.StateDone); err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{serve.StateFailed, serve.StateQueued, ""} {
		if checkServedState("c", st) == nil {
			t.Errorf("state %q accepted", st)
		}
	}
}

func TestSmokeWorker(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scale  float64
		traced bool
	}{
		{"bulk-eop", 0.004, false},
		{"graph-mixed", 0.004, true},
		{"real-local", 0.1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inputs, err := generate(tc.name, 5, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			cfg := workerConfig{mode: workloadKind(tc.name), input: filepath.Join(dir, "in.json"),
				out: filepath.Join(dir, "out.json"), dir: dir, minSetup: 1}
			if tc.traced {
				cfg.spans = filepath.Join(dir, "spans.json")
			}
			if err := writeJSON(cfg.input, inputs[0]); err != nil {
				t.Fatal(err)
			}
			if err := runWorker(cfg); err != nil {
				t.Fatal(err)
			}
			var wr WorkerResult
			if err := readJSON(cfg.out, &wr); err != nil {
				t.Fatal(err)
			}
			if len(wr.Samples) == 0 || len(wr.SetupNs) == 0 {
				t.Fatalf("no samples: %+v", wr)
			}
			for _, s := range wr.Samples {
				if s.Err != "" {
					t.Fatal(s.Err)
				}
				if s.Tasks != inputs[0].Plan.Tasks {
					t.Fatalf("ran %d tasks, plan has %d", s.Tasks, inputs[0].Plan.Tasks)
				}
				if tc.traced && (s.Spans["run"] <= 0 || s.DumpBytes <= 0) {
					t.Fatalf("traced run without spans or dump: %+v", s)
				}
			}
			if tc.traced {
				groups := map[string]int64{}
				for _, p := range wr.Profiles {
					if _, err := cpuSamples(p, groups); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

func TestSmokeServeSession(t *testing.T) {
	inputs, err := generate("serve-tenants", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	o, err := serve.New(serve.Options{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(o))
	defer srv.Close()
	defer o.Shutdown()
	var spans spanLog
	s := runSession(srv.URL, inputs, &spans, "smoke")
	if len(s.Served) != len(inputs) {
		t.Fatalf("%d outcomes for %d campaigns", len(s.Served), len(inputs))
	}
	for i, c := range s.Served {
		if c.Err != "" {
			t.Fatalf("campaign %d: %s", i, c.Err)
		}
		if c.LatencyNs <= 0 || c.Polls < 1 {
			t.Fatalf("campaign %d not timed: %+v", i, c)
		}
	}
	largest, pools := measureState(state, s)
	if s.StateB == 0 || largest == "" {
		t.Fatal("no persisted state measured")
	}
	if events, _, _, err := traceLayer(largest); err != nil || events == 0 {
		t.Fatalf("trace %s: %d events, %v", largest, events, err)
	}
	// Each pool's last trace holds one exec_start per unit it ran.
	tasks := 0
	for _, c := range s.Served {
		tasks += c.Tasks
		if c.TraceB == 0 {
			t.Fatalf("campaign %s: no persisted trace measured", c.ID)
		}
	}
	units := 0
	for _, path := range pools {
		prof, err := loadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		units += prof.Count("unit.", "exec_start")
	}
	if len(pools) != 2 || units != tasks {
		t.Fatalf("%d pools' last traces hold %d exec_start events, %d tasks served", len(pools), units, tasks)
	}
}

func TestAddTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 1s, Total samples = 1.03s (103%)
-----------+-------------------------------------------------------
       req:  poll
     1.01s   internal/runtime/syscall.Syscall6
             syscall.Syscall
             net/http.(*conn).serve
-----------+-------------------------------------------------------
      10ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             entk/internal/pilot.newUnit
-----------+-------------------------------------------------------
       req:  other
      10ms   entk/internal/vclock.(*Virtual).Sleep (inline)
             entk/internal/pilot.(*Agent).executeUnit
-----------+-------------------------------------------------------
`)
	groups := map[string]int64{}
	total, err := addTraces(out, groups)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"syscall": 1010e6, "serve_poll": 1010e6, "go_alloc": 10e6, "vclock": 10e6}
	if total != 1030e6 || !maps.Equal(groups, want) {
		t.Errorf("total %d, groups %v; want 1030e6, %v", total, groups, want)
	}
	if _, err := addTraces([]byte("-----------+---\n  junk line\n"), groups); err == nil {
		t.Error("malformed sample accepted")
	}
}

func TestGroupOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"entk/internal/pilot.(*Agent).executeUnit", "runtime.goexit"}, "pilot"},
		{[]string{"entk/internal/vclock.(*Virtual).Sleep"}, "vclock"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "go_sched"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "os.(*File).Write"}, "syscall"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "entk/internal/pilot.newUnit"}, "go_alloc"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "entk/internal/vclock.(*handoffEngine).park"}, "go_sync"},
		{[]string{"internal/sync.(*Mutex).Unlock", "sync.(*Mutex).Unlock"}, "go_sync"},
		{[]string{"entk/internal/campaign.Parse"}, "other"},
		{[]string{"runtime.memmove", "encoding/json.(*decodeState).object"}, "other"},
		{[]string{"encoding/json.(*decodeState).object"}, "other"},
		{nil, "other"},
	} {
		if got := groupOf(tc.stack); got != tc.want {
			t.Errorf("groupOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	var layers [][2]string
	for _, m := range spec.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	if !slices.Equal(layers, layerNames) {
		t.Errorf("BENCHMARK.json per_layer %v\nbenchmark prints %v", layers, layerNames)
	}
	local := &outcome{metrics: map[string]Metric{}, samples: map[string]int{}}
	setLocalEndToEnd(local, &WorkerResult{SetupNs: []int64{1}, Samples: []Sample{{WallNs: 1, Tasks: 1}}})
	daemon := &outcome{metrics: map[string]Metric{}, samples: map[string]int{}}
	setServeEndToEnd(daemon, []float64{1}, []*session{{Served: []served{{LatencyNs: 1, Tasks: 1}}, WallNs: 1}})
	for _, o := range []*outcome{local, daemon} {
		if len(o.metrics) != len(spec.EndToEnd) {
			t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json names %d", len(o.metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			if got, ok := o.metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("end-to-end %s (%s): benchmark prints %+v", m.Name, m.Unit, got)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if m := median(v); m != 3 {
		t.Errorf("median = %v", m)
	}
	if p := percentile(v, 0.95); p != 5 {
		t.Errorf("p95 = %v", p)
	}
	if p := percentile(v, 0.5); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if s := spread([]float64{9, 10, 11}); s != 0.2 {
		t.Errorf("spread = %v", s)
	}
}
