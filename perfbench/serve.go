package main

// The serve-tenants workload: a fresh daemon per session on loopback,
// driven through its HTTP API by a closed loop of clients that submit
// campaigns for several tenants, poll each campaign's status until it
// settles, as `entk-cli submit -follow` does, and then fetch its report.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"entk/internal/campaign"
	"entk/internal/profile"
	"entk/internal/serve"
)

// serveClients is the closed loop's client count. pollInterval is the
// status poll period: entk-cli polls every 50 ms, which would leave the
// daemon idle between polls and round a campaign's latency (about 20 ms
// of daemon work) up to the next 50 ms tick, so the benchmark polls
// faster; serve.poll_cpu_share reports what the polls cost the daemon.
const (
	serveClients = 2
	pollInterval = 2 * time.Millisecond
)

// daemon is one running daemon subprocess.
type daemon struct {
	cmd     *exec.Cmd
	waitc   chan error // receives cmd.Wait's result once it exits
	base    string
	setupNs int64 // start to first answered request
}

// startDaemon starts argv (a daemon binary and its flags, without
// -addr) on a free loopback port and waits until it answers.
func startDaemon(argv []string, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd, err := child(append(argv, "-addr", addr), logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, waitc: make(chan error, 1), base: "http://" + addr}
	go func() { d.waitc <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/v1/campaigns")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setupNs = time.Since(t0).Nanoseconds()
				return d, nil
			}
		}
		select {
		case err := <-d.waitc:
			return nil, fmt.Errorf("daemon %s exited before answering: %v (log: %s)", argv[0], err, logPath)
		default:
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("daemon %s did not answer within 30s (log: %s)", argv[0], logPath)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop asks the daemon to shut down, kills it if it has not within ten
// seconds, and returns its rusage once it has exited.
func (d *daemon) stop() (*syscall.Rusage, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.waitc:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waitc
		err = errors.New("daemon ignored SIGTERM")
	}
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, err
}

// kill stops a daemon that holds no state and no campaigns with SIGKILL
// and waits until it has exited. Set-up starts end this way because
// entk-serve answers requests before it installs its SIGTERM handler,
// so a SIGTERM right after the first answer can find the default action
// still in place and end the daemon without its shutdown path.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.waitc
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// served is the outcome of one campaign as a client saw it.
type served struct {
	ID, Pool  string
	LatencyNs int64
	SubmitNs  int64
	ReportNs  int64
	Polls     int
	Tasks     int
	Stages    int
	TTC       float64 // virtual s
	Util      []float64
	Refused   bool  // the POST was not answered 201
	TraceB    int64 // size of the trace.bin persisted at its settlement
	Err       string
}

// session is one daemon lifetime's worth of served campaigns.
type session struct {
	Served    []served
	WallNs    int64 // first submission to last report
	CPUNs     int64
	MaxRSSKB  int64 // peak resident set (VmHWM) before shutdown
	StateB    int64
	TraceMaxB int64
	SetupNs   int64 // daemon start to first answer

	// Traced sessions: the largest trace reloaded, then snapshotted and
	// dumped by the benchmark, and the exec_start events in the last
	// trace of each pool.
	TraceEvents int
	SnapshotNs  int64
	DumpNs      int64
	Units       int
}

// runSession submits every input through serveClients closed-loop
// clients against the daemon at base and checks what comes back.
func runSession(base string, inputs []Input, spans *spanLog, tag string) *session {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	out := make([]served, len(inputs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				out[i] = serveOne(client, base, inputs[i], spans, fmt.Sprintf("%s-%03d", tag, i))
			}
		}()
	}
	wg.Wait()
	s := &session{Served: out, WallNs: time.Since(t0).Nanoseconds()}
	// Every campaign the daemon knows of must have settled as done.
	var list []serve.Status
	if err := getJSON(client, base+"/v1/campaigns", &list); err != nil {
		s.Served = append(s.Served, served{Err: "list: " + err.Error()})
		return s
	}
	states := map[string]string{}
	for _, st := range list {
		states[st.Name] = st.State
	}
	if len(list) != len(inputs) {
		s.Served = append(s.Served, served{Err: fmt.Sprintf("daemon lists %d campaigns, %d submitted", len(list), len(inputs))})
	}
	for i, in := range inputs {
		if out[i].Err != "" {
			continue
		}
		var c struct{ Name string }
		_ = json.Unmarshal(in.JSON, &c)
		if err := checkServedState(c.Name, states[c.Name]); err != nil {
			s.Served[i].Err = err.Error()
		}
	}
	return s
}

// serveOne submits one campaign, polls its status until it settles and
// fetches its report.
func serveOne(client *http.Client, base string, in Input, spans *spanLog, id string) served {
	var r served
	var root int
	if spans != nil {
		root = spans.begin(id, "campaign", 0)
		defer spans.end(root)
	}
	// span times one request; traced runs also log it under the name
	// given when it ends.
	span := func() func(name string) int64 {
		t0 := time.Now()
		if spans == nil {
			return func(string) int64 { return time.Since(t0).Nanoseconds() }
		}
		sp := spans.begin(id, "", root)
		return func(name string) int64 { return spans.endAs(sp, name) }
	}
	t0 := time.Now()
	done := span()
	req, err := http.NewRequest("POST", base+"/v1/campaigns", bytes.NewReader(in.JSON))
	if err != nil {
		r.Err = err.Error()
		return r
	}
	req.Header.Set("X-Entk-Tenant", in.Tenant)
	resp, err := client.Do(req)
	if err != nil {
		r.Err = "submit: " + err.Error()
		return r
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.SubmitNs = done("submit")
	if resp.StatusCode != http.StatusCreated {
		r.Refused = true
		r.Err = fmt.Sprintf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		return r
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		r.Err = "submit: " + err.Error()
		return r
	}
	for !terminal(st.State) {
		time.Sleep(pollInterval)
		done := span()
		if err := getJSON(client, base+"/v1/campaigns/"+st.ID, &st); err != nil {
			r.Err = "status: " + err.Error()
			return r
		}
		done("poll")
		r.Polls++
	}
	r.ID, r.Pool = st.ID, st.Pool
	if err := checkServedState(st.ID, st.State); err != nil {
		r.Err = err.Error()
		return r
	}
	done = span()
	var doc serve.ReportDoc
	if err := getJSON(client, base+"/v1/campaigns/"+st.ID+"/report", &doc); err != nil {
		r.Err = "report: " + err.Error()
		return r
	}
	r.ReportNs = done("report")
	r.LatencyNs = time.Since(t0).Nanoseconds()
	if err := checkReport(in.Plan, doc.Campaign); err != nil {
		r.Err = err.Error()
		return r
	}
	r.Tasks = doc.Campaign.Campaign.Tasks
	r.TTC = doc.Campaign.Campaign.TTC.Seconds()
	for _, pr := range doc.Campaign.Pipelines {
		for _, ph := range pr.Phases {
			r.Stages += ph.Occurrences
		}
	}
	for _, pu := range doc.Campaign.Pilots {
		r.Util = append(r.Util, pu.Utilization)
	}
	return r
}

// terminal reports whether a campaign state is final, as entk-cli
// decides when to stop following a campaign.
func terminal(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateAborted, serve.StateCheckpointed:
		return true
	}
	return false
}

// getJSON fetches url, which must answer 200, into v. It reads the whole
// body so the connection can be reused.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// measureState sums the state directory, records each served
// campaign's persisted trace size, and returns the path of the largest
// trace and, per pool, the path of the pool's largest trace. Each
// settled campaign persists its pool's cumulative trace, so a pool's
// largest trace is its last and holds every unit the pool ran.
func measureState(dir string, s *session) (largest string, pools map[string]string) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		s.StateB += info.Size()
		if d.Name() == "trace.bin" && info.Size() > s.TraceMaxB {
			s.TraceMaxB, largest = info.Size(), path
		}
		return nil
	})
	pools = map[string]string{}
	poolMax := map[string]int64{}
	for i := range s.Served {
		c := &s.Served[i]
		if c.ID == "" {
			continue
		}
		path := filepath.Join(dir, "campaigns", c.ID, "trace.bin")
		if info, err := os.Stat(path); err == nil {
			c.TraceB = info.Size()
			if c.TraceB > poolMax[c.Pool] {
				poolMax[c.Pool], pools[c.Pool] = c.TraceB, path
			}
		}
	}
	return largest, pools
}

// loadTrace reads a persisted ENTKPROF trace.
func loadTrace(path string) (*profile.Profiler, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prof := profile.New(nil)
	if _, err := prof.ReadFrom(f); err != nil {
		return nil, err
	}
	return prof, nil
}

// traceLayer loads a persisted trace and times a snapshot and a dump of
// it, returning events, snapshot ns and dump ns.
func traceLayer(path string) (int, int64, int64, error) {
	prof, err := loadTrace(path)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	snap := prof.Snapshot()
	t1 := time.Now()
	if _, err := snap.WriteTo(io.Discard); err != nil {
		return 0, 0, 0, err
	}
	return prof.EventCount(), t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds(), nil
}

// runDaemon is the profiled stand-in for cmd/entk-serve used by traced
// runs: the same serve.New options entk-serve builds from its default
// flags and the same handler, plus a CPU profile and allocator counters
// written when SIGTERM stops it. The profile labels each connection's
// goroutine with its latest request's kind, "poll" for a status GET, so
// the time a connection spends on a poll, reading and writing included,
// shows as serve.poll_cpu_share.
func runDaemon(addr, state, cpuPath, memPath string) error {
	eng, err := campaign.ParseEngine("handoff")
	if err != nil {
		return err
	}
	lay, err := campaign.ParseLayout("columnar")
	if err != nil {
		return err
	}
	stopProfile, err := startCPUProfile(cpuPath)
	if err != nil {
		return err
	}
	o, err := serve.New(serve.Options{Engine: eng, Layout: lay, StateDir: state})
	if err != nil {
		stopProfile()
		return err
	}
	h := serve.NewHandler(o)
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := "other"
		if r.Method == http.MethodGet && strings.Count(strings.Trim(r.URL.Path, "/"), "/") == 2 {
			kind = "poll" // GET /v1/campaigns/{id}
		}
		pprof.SetGoroutineLabels(pprof.WithLabels(r.Context(), pprof.Labels("req", kind)))
		h.ServeHTTP(w, r)
	})}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err = <-errc: // the listener failed
	case <-sigc:
	}
	stopProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if werr := writeJSON(memPath, memCounters{Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc, GCs: ms.NumGC}); err == nil {
		err = werr
	}
	if serr := o.Shutdown(); err == nil {
		err = serr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

type memCounters struct {
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCs        uint32 `json:"gcs"`
}

// setupStarts is how many extra daemon starts a run times before its
// sessions, so setup_s is a median over several starts.
const setupStarts = 5

// runServe measures the serve-tenants workload: setup starts, then
// sessions of serveCampaigns campaigns, each on a fresh daemon with a
// fresh state directory, until the run's time is up. A traced run
// spends the first half on entk-serve and the second on the profiled
// stand-in daemon.
func (b *bench) runServe(name, runDir string, o *outcome) error {
	inputs, err := generate(name, b.seed, 1)
	if err != nil {
		return err
	}
	entkServe := func(string) []string { return []string{b.serveBin} }
	var setups []float64
	for i := 0; i < setupStarts; i++ {
		d, err := startDaemon(entkServe(""), filepath.Join(runDir, "setup.log"))
		if err != nil {
			return err
		}
		setups = append(setups, float64(d.setupNs))
		d.kill()
	}
	untracedSecs := b.seconds
	if b.traced {
		untracedSecs = b.seconds / 2
	}
	base, err := b.sessions(entkServe, inputs, runDir, "untraced", untracedSecs, nil, o, nil)
	if err != nil {
		return err
	}
	for _, s := range base {
		o.runs = append(o.runs, map[string]float64{"wall_ms": float64(s.WallNs) / 1e6, "cpu_s": float64(s.CPUNs) / 1e9,
			"p50_ms": median(latencies(s)) / 1e6, "state_mb": float64(s.StateB) / (1 << 20), "setup_ms": float64(s.SetupNs) / 1e6})
		setups = append(setups, float64(s.SetupNs))
	}
	o.samples["sessions"] = len(base)
	o.samples["setup"] = len(setups)
	if !b.traced {
		setServeEndToEnd(o, setups, base)
		return nil
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	var spans spanLog
	var profiles []string
	var mem memCounters
	standIn := func(dir string) []string { return []string{self, "-worker", "daemon", "-dir", dir} }
	tr, err := b.sessions(standIn, inputs, runDir, "traced", b.seconds/2, &spans, o, func(dir string) error {
		// Keep the profile past the session directory's removal.
		prof := filepath.Join(runDir, fmt.Sprintf("daemon-cpu-%02d.pprof", len(profiles)))
		if err := os.Rename(filepath.Join(dir, "daemon-cpu.pprof"), prof); err != nil {
			return err
		}
		profiles = append(profiles, prof)
		var m memCounters
		if err := readJSON(filepath.Join(dir, "daemon-mem.json"), &m); err != nil {
			return err
		}
		mem.Mallocs += m.Mallocs
		mem.AllocBytes += m.AllocBytes
		mem.GCs += m.GCs
		return nil
	})
	if err != nil {
		return err
	}
	if err := spans.write(b.spansPath(name)); err != nil {
		return err
	}
	zeroLayers(o)
	var parse, bind []float64
	for _, in := range inputs {
		t0 := time.Now()
		c, err := campaign.Parse(bytes.NewReader(in.JSON))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := c.Bind(campaign.Options{}.NewClock(), campaign.Options{}); err != nil {
			return err
		}
		c.GraphPipelines()
		parse = append(parse, float64(t1.Sub(t0)))
		bind = append(bind, float64(time.Since(t1)))
	}
	o.set("campaign.parse_ms", median(parse)/1e6, "ms")
	o.set("campaign.bind_ms", median(bind)/1e6, "ms")

	var submit, report, polls, stages, ctasks, ttc, util, state, events, snaps, dumps, units, traceB []float64
	var traceMax int64
	var ttasks float64
	for _, s := range tr {
		state = append(state, float64(s.StateB))
		traceMax = max(traceMax, s.TraceMaxB)
		events = append(events, float64(s.TraceEvents))
		snaps = append(snaps, float64(s.SnapshotNs))
		dumps = append(dumps, float64(s.DumpNs))
		units = append(units, float64(s.Units))
		for _, c := range s.Served {
			traceB = append(traceB, float64(c.TraceB))
			submit = append(submit, float64(c.SubmitNs))
			report = append(report, float64(c.ReportNs))
			polls = append(polls, float64(c.Polls))
			stages = append(stages, float64(c.Stages))
			ctasks = append(ctasks, float64(c.Tasks))
			ttc = append(ttc, c.TTC)
			ttasks += float64(c.Tasks)
			if len(c.Util) > 0 {
				util = append(util, c.Util[0])
			}
		}
	}
	o.set("core.stages", median(stages), "count")
	o.set("core.tasks", median(ctasks), "count")
	o.set("core.ttc_virtual_s", median(ttc), "s")
	o.set("core.ttc_virtual_s.spread", sessionSpread(append(base, tr...), func(c served) float64 { return c.TTC }), "ratio")
	o.set("pilot.units", median(units), "count")
	o.set("pilot.util.0", median(util), "ratio")
	o.set("serve.submit_ms", median(submit)/1e6, "ms")
	o.set("serve.report_ms", median(report)/1e6, "ms")
	var pollSum float64
	for _, p := range polls {
		pollSum += p
	}
	o.set("serve.polls_per_campaign", pollSum/float64(max(len(polls), 1)), "count")
	o.set("serve.state_mb", median(state)/(1<<20), "MB")
	o.set("serve.trace_mb_max", float64(traceMax)/(1<<20), "MB")
	o.set("serve.refused", float64(o.refused), "count")
	o.set("go.allocs_per_unit", float64(mem.Mallocs)/max(ttasks, 1), "count")
	o.set("go.bytes_per_unit", float64(mem.AllocBytes)/max(ttasks, 1), "B")
	o.set("go.gc_cycles", float64(mem.GCs)/float64(max(len(tr), 1)), "count")
	o.set("profile.events", median(events), "count")
	o.set("profile.events.spread", spread(events), "ratio")
	o.set("profile.snapshot_ms", median(snaps)/1e6, "ms")
	o.set("profile.dump_ms", median(dumps)/1e6, "ms")
	o.set("profile.dump_mb", mean(traceB)/(1<<20), "MB")
	if err := setShares(o, profiles); err != nil {
		return err
	}
	o.set("trace.overhead_ms", (median(latencies(tr...))-median(latencies(base...)))/1e6, "ms")
	o.samples["traced_sessions"] = len(tr)
	return nil
}

// setServeEndToEnd sets the end-to-end metrics of serve-tenants from its
// daemon starts and untraced sessions.
func setServeEndToEnd(o *outcome, setups []float64, ss []*session) {
	var unitRates, campaignRates []float64
	for _, s := range ss {
		var tasks float64
		for _, c := range s.Served {
			tasks += float64(c.Tasks)
		}
		wall := float64(s.WallNs) / 1e9
		unitRates = append(unitRates, tasks/wall)
		campaignRates = append(campaignRates, float64(len(s.Served))/wall)
	}
	lat := latencies(ss...)
	o.samples["campaigns"] = len(lat)
	o.set("setup_s", median(setups)/1e9, "s")
	o.set("units_per_s", median(unitRates), "1/s")
	o.set("cpu_s", median(pick(ss, func(s *session) float64 { return float64(s.CPUNs) }))/1e9, "s")
	o.set("peak_rss_mb", median(pick(ss, func(s *session) float64 { return float64(s.MaxRSSKB) }))/1024, "MB")
	o.set("campaigns_per_s", median(campaignRates), "1/s")
	o.set("campaign_p50_ms", median(lat)/1e6, "ms")
	o.set("campaign_p95_ms", percentile(lat, 0.95)/1e6, "ms")
}

// latencies pools the POST-to-report latencies of sessions, in ns.
func latencies(ss ...*session) []float64 {
	var v []float64
	for _, s := range ss {
		v = append(v, pick(s.Served, func(c served) float64 { return float64(c.LatencyNs) })...)
	}
	return v
}

// sessionSpread is the median over campaigns of the spread of f across
// the sessions that served the same campaign.
func sessionSpread(ss []*session, f func(served) float64) float64 {
	var per []float64
	for i := range ss[0].Served {
		var v []float64
		for _, s := range ss {
			if i < len(s.Served) {
				v = append(v, f(s.Served[i]))
			}
		}
		per = append(per, spread(v))
	}
	return median(per)
}

// sessions runs daemon sessions until seconds have passed (at least
// one): start argv(dir) with a fresh state directory under dir, serve
// every input, stop the daemon, measure and delete the state. after,
// when set, reads what the stopped daemon left in dir.
func (b *bench) sessions(argv func(dir string) []string, inputs []Input, runDir, tag string, seconds float64,
	spans *spanLog, o *outcome, after func(dir string) error) ([]*session, error) {
	var out []*session
	w := newWindow(seconds)
	for i := 0; w.more(); i++ {
		o.calMs = append(o.calMs, float64(calibrate())/1e6)
		t0 := time.Now()
		dir := filepath.Join(runDir, fmt.Sprintf("%s-%02d", tag, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		state := filepath.Join(dir, "state")
		d, err := startDaemon(append(argv(dir), "-state", state), filepath.Join(dir, "daemon.log"))
		if err != nil {
			return nil, err
		}
		s := runSession(d.base, inputs, spans, fmt.Sprintf("%s%02d", tag, i))
		s.SetupNs = d.setupNs
		largest, pools := measureState(state, s)
		if s.MaxRSSKB, err = peakRSSKB(d.cmd.Process.Pid); err != nil {
			d.stop()
			return nil, err
		}
		ru, err := d.stop()
		if err != nil {
			return nil, fmt.Errorf("daemon session %d: %w", i, err)
		}
		s.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
		if spans != nil && largest != "" {
			if s.TraceEvents, s.SnapshotNs, s.DumpNs, err = traceLayer(largest); err != nil {
				return nil, err
			}
			for _, path := range pools {
				prof, err := loadTrace(path)
				if err != nil {
					return nil, err
				}
				s.Units += prof.Count("unit.", "exec_start")
			}
		}
		if after != nil {
			if err := after(dir); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		for _, c := range s.Served {
			o.attempted++
			if c.Err != "" {
				o.failed++
				o.errs = append(o.errs, c.Err)
			}
			if c.Refused {
				o.refused++
			}
		}
		out = append(out, s)
		if o.failed > 0 {
			break
		}
		w.took(time.Since(t0))
	}
	return out, nil
}
