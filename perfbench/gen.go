package main

// Workload generation. Every input the program sees is a campaign JSON
// document built here from the seed; the Plan beside it is what the
// output checks compare against and is never shown to the program.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"entk/internal/campaign"
)

// Plan is the generated expectation for one campaign.
type Plan struct {
	Tasks         int   `json:"tasks"`
	Stages        int   `json:"stages"`
	PipelineTasks []int `json:"pipeline_tasks"`
	// BusyNs is the sum of the modelled execution windows of all tasks.
	// Simulation makes each exec_start→exec_stop span exactly its
	// modelled duration, so the per-unit pairing check compares the
	// profiler's SumPairs against it. Real mode ignores it.
	BusyNs int64 `json:"busy_ns"`
}

// Input is one generated campaign: the JSON the program receives, the
// plan the checks use, and (serve only) the submitting tenant.
type Input struct {
	JSON   []byte `json:"json"`
	Plan   Plan   `json:"plan"`
	Tenant string `json:"tenant,omitempty"`
}

// Workload kinds: how the benchmark drives the program.
const (
	kindSim   = "sim"
	kindReal  = "real"
	kindServe = "serve"
)

// workloadKind maps a workload name to how the benchmark runs it; "" for
// unknown names.
func workloadKind(name string) string {
	switch name {
	case "bulk-eop", "graph-mixed":
		return kindSim
	case "real-local":
		return kindReal
	case "serve-tenants":
		return kindServe
	}
	return ""
}

var workloadNames = []string{"bulk-eop", "graph-mixed", "serve-tenants", "real-local"}

// generate builds a workload's inputs from the seed. scale shrinks the
// task counts (1 is the benchmark's size; tests use less).
func generate(name string, seed uint64, scale float64) ([]Input, error) {
	rng := rand.New(rand.NewPCG(seed, 0x656e746b))
	switch name {
	case "bulk-eop":
		return one(genBulk(rng, scale))
	case "graph-mixed":
		return one(genGraph(rng, scale))
	case "real-local":
		return one(genReal(rng, scale))
	case "serve-tenants":
		return genServe(rng, scale)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func one(c campaign.Campaign, p Plan) ([]Input, error) {
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return []Input{{JSON: raw, Plan: p}}, nil
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale+0.5))
}

func sleepKernel(seconds int) campaign.Kernel {
	return campaign.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": float64(seconds)}}
}

// genBulk: 64 single-stage pipelines of about 4096 tasks each on one
// 65536-core pilot. Tasks come in replicated entries of 1-64 with a
// whole-second duration of 60-120 s, so the JSON stays small and the
// per-unit runtime path does the work.
func genBulk(rng *rand.Rand, scale float64) (campaign.Campaign, Plan) {
	const pipelines = 64
	perPipe := scaled(4096, scale)
	cores := max(16, scaled(65536, scale)/16*16)
	c := campaign.Campaign{
		Resources: []campaign.Pilot{{Resource: "sim.stress64k", Cores: cores, WalltimeMin: 24 * 60}},
	}
	var p Plan
	for i := 0; i < pipelines; i++ {
		var tasks []campaign.Task
		for left := perPipe; left > 0; {
			n := min(left, 1+rng.IntN(64))
			d := 60 + rng.IntN(61)
			tasks = append(tasks, campaign.Task{Count: n, Kernel: sleepKernel(d)})
			p.BusyNs += int64(n) * int64(d) * int64(time.Second)
			left -= n
		}
		c.Pipelines = append(c.Pipelines, campaign.Pipeline{
			Name: fmt.Sprintf("bulk%02d", i), Stages: []campaign.Stage{{Tasks: tasks}},
		})
		p.Tasks += perPipe
		p.Stages++
		p.PipelineTasks = append(p.PipelineTasks, perPipe)
	}
	return c, p
}

// genGraph: about 1550 pipelines of 16 stages of 1-9 tasks each, one
// JSON entry per task. Half the tasks are single-core; the rest are
// 2-16-core MPI tasks, and those of 8+ cores carry the "mpi" tag that
// pins them to the Stampede pilot. A quarter of the stages are
// streamed.
func genGraph(rng *rand.Rand, scale float64) (campaign.Campaign, Plan) {
	pipelines := max(2, scaled(1550, scale))
	c := campaign.Campaign{
		Resources: []campaign.Pilot{
			{Resource: "sim.stress8k", Cores: 4096, WalltimeMin: 7 * 24 * 60},
			{Resource: "xsede.stampede", Cores: 2048, WalltimeMin: 7 * 24 * 60, Tags: []string{"mpi"}},
		},
		Placement: "tag_affinity+least_loaded",
	}
	var p Plan
	for i := 0; i < pipelines; i++ {
		pl := campaign.Pipeline{Name: fmt.Sprintf("g%04d", i)}
		n := 0
		for s := 0; s < 16; s++ {
			st := campaign.Stage{Streamed: rng.IntN(4) == 0}
			for k := 1 + rng.IntN(9); k > 0; k-- {
				width := 1
				if rng.IntN(2) == 1 {
					width = 2 + rng.IntN(15)
				}
				d := 30 + rng.IntN(91)
				kern := sleepKernel(d)
				if width > 1 {
					kern.Cores, kern.MPI = width, true
				}
				if width >= 8 {
					kern.Tags = []string{"mpi"}
				}
				st.Tasks = append(st.Tasks, campaign.Task{Kernel: kern})
				p.BusyNs += int64(d) * int64(time.Second)
				n++
			}
			pl.Stages = append(pl.Stages, st)
			p.Stages++
		}
		c.Pipelines = append(c.Pipelines, pl)
		p.Tasks += n
		p.PipelineTasks = append(p.PipelineTasks, n)
	}
	return c, p
}

// serveCampaigns is the number of campaigns one daemon session serves.
const serveCampaigns = 300

// serveTenants is the number of tenants submitting round-robin.
const serveTenants = 3

// genServe: 300 small campaigns (4 pipelines x 2 stages x 4-32 tasks)
// alternating between two resource signatures, so the daemon keeps two
// shared pools. Walltimes are far beyond the pools' cumulative virtual
// time, so no pilot expires during a session.
func genServe(rng *rand.Rand, scale float64) ([]Input, error) {
	sigs := [][]campaign.Pilot{
		{{Resource: "sim.stress8k", Cores: 512, WalltimeMin: 1 << 20}},
		{{Resource: "xsede.stampede", Cores: 256, WalltimeMin: 1 << 20}},
	}
	n := max(serveTenants, scaled(serveCampaigns, scale))
	out := make([]Input, 0, n)
	for i := 0; i < n; i++ {
		c := campaign.Campaign{Name: fmt.Sprintf("bench-%03d", i), Resources: sigs[i%len(sigs)]}
		var p Plan
		for j := 0; j < 4; j++ {
			pl := campaign.Pipeline{Name: fmt.Sprintf("p%d", j)}
			t := 0
			for s := 0; s < 2; s++ {
				k := 4 + rng.IntN(29)
				d := 10 + rng.IntN(51)
				pl.Stages = append(pl.Stages, campaign.Stage{Tasks: []campaign.Task{{Count: k, Kernel: sleepKernel(d)}}})
				p.BusyNs += int64(k) * int64(d) * int64(time.Second)
				p.Stages++
				t += k
			}
			c.Pipelines = append(c.Pipelines, pl)
			p.Tasks += t
			p.PipelineTasks = append(p.PipelineTasks, t)
		}
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		out = append(out, Input{JSON: raw, Plan: p, Tenant: fmt.Sprintf("tenant%d", i%serveTenants)})
	}
	return out, nil
}

// realCores is the local pilot's size: one core per CPU, capped at the
// local.localhost machine model's 8 cores.
func realCores() int { return min(runtime.NumCPU(), 8) }

// genReal: 4 pipelines x 2 stages of 24-40 /bin/true tasks each (about
// 256 in all), run for real on local.localhost. Entry names are unique,
// so every unit gets its own capture files.
func genReal(rng *rand.Rand, scale float64) (campaign.Campaign, Plan) {
	c := campaign.Campaign{
		Resources: []campaign.Pilot{{Resource: "local.localhost", Cores: realCores(), WalltimeMin: 10}},
	}
	var p Plan
	for i := 0; i < 4; i++ {
		pl := campaign.Pipeline{Name: fmt.Sprintf("r%d", i)}
		t := 0
		for s := 0; s < 2; s++ {
			k := scaled(24+rng.IntN(17), scale)
			kern := sleepKernel(0)
			kern.Executable = "/bin/true"
			pl.Stages = append(pl.Stages, campaign.Stage{Tasks: []campaign.Task{
				{Name: fmt.Sprintf("r%d.s%d", i, s), Count: k, Kernel: kern},
			}})
			p.Stages++
			t += k
		}
		c.Pipelines = append(c.Pipelines, pl)
		p.Tasks += t
		p.PipelineTasks = append(p.PipelineTasks, t)
	}
	return c, p
}
