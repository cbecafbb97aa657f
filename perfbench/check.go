package main

// Output checks. They compare only accounting that does not depend on
// the order in which concurrent units ran: task and retry totals, event
// counts per unit, and the summed execution windows. Virtual TTC and
// the total event count vary between runs of the same campaign and are
// recorded, never checked.

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"entk"
	"entk/internal/campaign"
	"entk/internal/profile"
	"entk/internal/serve"
)

// checkReport compares a campaign report against the plan: every
// planned task ran once, per pipeline, with no retries, and every
// planned stage settled.
func checkReport(p Plan, rep *entk.CampaignReport) error {
	if rep == nil || rep.Campaign == nil {
		return fmt.Errorf("no campaign report")
	}
	if rep.Campaign.Tasks != p.Tasks {
		return fmt.Errorf("report counts %d tasks, plan has %d", rep.Campaign.Tasks, p.Tasks)
	}
	if rep.Campaign.Retries != 0 {
		return fmt.Errorf("report counts %d retries, want 0", rep.Campaign.Retries)
	}
	if len(rep.Pipelines) != len(p.PipelineTasks) {
		return fmt.Errorf("report has %d pipelines, plan has %d", len(rep.Pipelines), len(p.PipelineTasks))
	}
	stages := 0
	for i, pr := range rep.Pipelines {
		if pr.Tasks != p.PipelineTasks[i] {
			return fmt.Errorf("pipeline %d ran %d tasks, plan has %d", i, pr.Tasks, p.PipelineTasks[i])
		}
		for _, ph := range pr.Phases {
			stages += ph.Occurrences
		}
	}
	if stages != p.Stages {
		return fmt.Errorf("report settles %d stages, plan has %d", stages, p.Stages)
	}
	return nil
}

// checkUnits checks that each of the plan's units recorded exactly one
// exec_start and one exec_stop. With the totals equal to the plan, a
// unit with two windows forces another to have none; SumPairs pairs
// each unit's first start and stop, so a missing window, or a second one,
// makes the summed busy time differ from the plan's modelled total.
func checkUnits(p Plan, prof *profile.Profiler, wantBusy bool) error {
	if prof == nil {
		return fmt.Errorf("no profiler")
	}
	for _, ev := range []string{"exec_start", "exec_stop"} {
		if n := prof.Count("unit.", ev); n != p.Tasks {
			return fmt.Errorf("%d %s events, plan has %d units", n, ev, p.Tasks)
		}
	}
	if n := len(prof.Entities("unit.")); n != p.Tasks {
		return fmt.Errorf("trace holds %d units, plan has %d", n, p.Tasks)
	}
	if wantBusy {
		if got := prof.SumPairs("unit.", "exec_start", "exec_stop"); got != time.Duration(p.BusyNs) {
			return fmt.Errorf("summed exec windows %v, plan models %v", got, time.Duration(p.BusyNs))
		}
	}
	return nil
}

// checkSim checks a simulated run.
func checkSim(p Plan, res *campaign.Result) error {
	if err := checkReport(p, res.Campaign); err != nil {
		return err
	}
	return checkUnits(p, res.Prof, true)
}

// checkReal checks a real-mode run: the report and per-unit windows as
// in simulation (wall-clock windows have no modelled total), and one
// stdout capture per unit's first attempt. A unit that exited non-zero
// would have failed and been retried, which checkReport rejects.
func checkReal(p Plan, res *campaign.Result, captureDir string) error {
	if err := checkReport(p, res.Campaign); err != nil {
		return err
	}
	if err := checkUnits(p, res.Prof, false); err != nil {
		return err
	}
	outs, err := filepath.Glob(filepath.Join(captureDir, "*.out"))
	if err != nil {
		return err
	}
	if len(outs) != p.Tasks {
		return fmt.Errorf("%d capture files, plan has %d units", len(outs), p.Tasks)
	}
	for _, o := range outs {
		if !strings.HasSuffix(o, ".a00.out") {
			return fmt.Errorf("capture %s is not a first attempt", filepath.Base(o))
		}
	}
	return nil
}

// checkServedState checks the final state the daemon lists for a
// campaign it served.
func checkServedState(name, state string) error {
	if state != serve.StateDone {
		return fmt.Errorf("campaign %s ended %q, want %s", name, state, serve.StateDone)
	}
	return nil
}
