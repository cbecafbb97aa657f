package pilot

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entk/internal/vclock"
)

// agent is the pilot's on-resource component: it owns the allocation's
// cores and schedules compute units onto them at the application level.
// Units wait in a pending queue (pendq.go: segmented per-class buckets,
// or the seed's flat FIFO as the selectable reference); submissions and
// completions trigger a continuous-scheduling pass that places
// whichever pending units fit. Each agent owns its queue outright, so a
// multi-pilot ResourceSet's pending work is sharded per pilot: the
// WaveBatcher's per-pilot bulk runs land in disjoint queues and the
// pilots schedule independently.
//
// The pass is incremental (see sched.go for the placement index and
// pendq.go for the queue):
//
//   - a pending-need watermark (minNeedAny/minNeedMPI) lets completion
//     events skip the pass entirely when no pending unit can fit the
//     newly freed capacity — the common case for a saturated pilot;
//   - a pass runs to completion under the agent lock and launches its
//     placements in placement order, so nothing interleaves with it and
//     one pass always leaves nothing placeable behind;
//   - within a pass, an O(1) feasibility precheck (against the free-core
//     index) rejects units without touching the node state — and, on the
//     segmented queue, blocks the unit's whole placement class for the
//     rest of the pass — and the pass stops early once no free core
//     remains, resuming at the bucket cursors instead of rescanning the
//     placed prefix.
//
// Queue discipline per placement policy: FirstFit and BestFit schedule
// continuously — units are tried in FIFO order and any unit that fits
// starts, so later units may overtake a blocked head (RADICAL-Pilot
// agent semantics). Backfill is stricter, mirroring EASY backfilling at
// the batch layer: the first blocked unit holds a reservation at its
// earliest possible start (the shadow time, projected from the running
// units' cost-model completion times), and a later unit may overtake it
// only if it cannot delay that start — it either uses cores the head
// will not need at the shadow time, or is predicted to finish before it.
// The head is therefore never starved by a stream of small units, which
// continuous scheduling permits.
type agent struct {
	pilot *ComputePilot
	sess  *Session

	mu      sync.Mutex
	sched   scheduler
	pend    pendingQueue
	started bool
	stopped bool
	stopErr error
	running int
	// stoppedFlag mirrors stopped for the flights' lock-free checks on
	// the per-unit hot path; written under mu, read via atomic.
	stoppedFlag atomic.Bool

	// Launch slots (under mu): launchFree counts idle slots of the
	// launcher's width; placed flights beyond it wait in the FIFO
	// launchHead..launchTail, so launches start in placement order. Each
	// launch holds its slot for the machine's per-task launch latency —
	// the runtime-side, per-task overhead component.
	launchFree             int
	launchHead, launchTail *flight
	// free recycles finished flights (under mu), so a unit's trip
	// through the state machine allocates nothing in steady state.
	free *flight

	// passCount/passScanned/passPlaced instrument the scheduling passes
	// (under mu): passes run, units yielded by the queue, units placed.
	// Together with the queue's own work counter they let the pass-cost
	// regression tests pin that per-placed-unit work is independent of
	// backlog depth.
	passCount   uint64
	passScanned uint64
	passPlaced  uint64

	// runEnds (Backfill policy only) tracks each running unit's projected
	// completion — placement time + launch latency + cost-model duration —
	// the data the EASY reservation is computed from.
	runEnds map[*ComputeUnit]runInfo

	// utilUnits/utilBusy accumulate the pilot's utilization counters:
	// units that finished executing here and their core-weighted
	// execution time. Updated under mu at exec stop, before the unit
	// turns final (O(1) per unit); campaign reports diff snapshots
	// across their run window.
	utilUnits int
	utilBusy  time.Duration

	// capCores is the pilot's current capacity in cores: the static
	// allocation minus nodes lost to injected faults. Read lock-free by
	// admission and placement eligibility.
	capCores atomic.Int64

	// Fault-tolerance state (all under mu; recover also read via
	// recovery()): recover, when installed (ResourceSet rebind opt-in),
	// receives the units a pilot death or node loss displaces instead of
	// failing them; inflight maps running units to the flight of their
	// placement (allocation and rebind generation), so teardown can steal
	// them;
	// down marks nodes lost to FaultNodeLoss — release drops their
	// shares; quiesceEv, once armed by quiesce(), fires when no unit is
	// running (the DrainPilot handshake).
	recover   func([]*ComputeUnit)
	inflight  map[*ComputeUnit]*flight
	down      map[int]bool
	quiesceEv *vclock.Event
}

// runInfo is a running unit's projected completion and core count.
type runInfo struct {
	end   time.Duration
	cores int
}

// flight is one placement's trip through the agent's state machine:
// launch → input staging → execution → output staging → release. Every
// step is a clock callback (Clock.AfterFunc) firing step — the flight's
// one method value, bound when the flight is first allocated, so a step
// allocates nothing — and phase says what the next firing does. gen is
// the unit's rebind generation at placement (-1 on agents that do not
// track in-flight work): every effect a step applies is gated on it,
// so a unit stolen for rebinding mid-flight cannot be double-settled by
// its stale flight.
type flight struct {
	a     *agent
	u     *ComputeUnit
	alloc allocation
	gen   int
	phase flightPhase
	dir   int           // staging directive in progress
	start time.Duration // exec start
	step  func()        // f.fire
	next  *flight       // launch FIFO / free-list link
}

// flightPhase is the step a flight's next callback performs.
type flightPhase uint8

const (
	phLaunch   flightPhase = iota // launch latency elapsed
	phStageIn                     // input directive dir elapsed
	phExec                        // execution window elapsed
	phStageOut                    // output directive dir elapsed
)

func newAgent(p *ComputePilot) *agent {
	m := p.backend.machine
	cores := p.Desc.Cores
	nNodes := m.NodesFor(cores)
	nodes := make([]int, nNodes)
	rem := cores
	for i := range nodes {
		take := m.CoresPerNode
		if take > rem {
			take = rem
		}
		nodes[i] = take
		rem -= take
	}
	width := p.sess.Cfg.LauncherWidth
	if width <= 0 {
		width = nNodes
	}
	a := &agent{
		pilot:      p,
		sess:       p.sess,
		sched:      newScheduler(nodes, p.sess.Cfg.Agent, p.sess.Cfg.Rescan),
		pend:       newPendingQueue(p.sess.Cfg.PendingRef),
		launchFree: width,
	}
	if p.sess.Cfg.Agent == Backfill {
		a.runEnds = make(map[*ComputeUnit]runInfo)
	}
	a.capCores.Store(int64(cores))
	return a
}

// capacityCores reports the pilot's current capacity: the static
// allocation minus nodes lost to injected faults.
func (a *agent) capacityCores() int { return int(a.capCores.Load()) }

// setRecovery installs the rebind path: the callback receiving units a
// pilot death or node loss displaces, plus the in-flight tracking that
// makes stealing them possible. ResourceSet installs it right after
// submission — before activation — so no placement escapes tracking.
func (a *agent) setRecovery(fn func([]*ComputeUnit)) {
	a.mu.Lock()
	a.recover = fn
	if a.inflight == nil {
		a.inflight = make(map[*ComputeUnit]*flight)
	}
	a.mu.Unlock()
}

// recovery returns the installed rebind callback, nil without one.
func (a *agent) recovery() func([]*ComputeUnit) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recover
}

// rejectStopped disposes of a unit submitted to a stopped agent: with a
// recovery path installed it bounces back for rebinding (the pilot died
// between the placement pick and the submission landing), otherwise it
// fails with the stop cause.
func (a *agent) rejectStopped(u *ComputeUnit) {
	if rec := a.recovery(); rec != nil {
		rec([]*ComputeUnit{u})
		return
	}
	u.finish(UnitFailed, a.stopCause())
}

// rejectStoppedBatch is rejectStopped for a whole bulk submission.
func (a *agent) rejectStoppedBatch(us []*ComputeUnit) {
	if rec := a.recovery(); rec != nil {
		rec(us)
		return
	}
	cause := a.stopCause()
	for _, u := range us {
		u.finish(UnitFailed, cause)
	}
}

// start begins scheduling queued units; called when the pilot activates.
func (a *agent) start() {
	a.mu.Lock()
	a.started = true
	a.scheduleLocked()
	a.mu.Unlock()
}

// stop fails all queued units and refuses future work.
func (a *agent) stop(cause error) {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	a.stoppedFlag.Store(true)
	a.stopErr = cause
	doomed := a.pend.drain()
	a.mu.Unlock()
	// Real mode: reap every OS process still running for this pilot.
	// Their flights' RunUnit calls return with the kill error and the
	// units fail with the stop cause — no orphans outlive the agent.
	if r := a.sess.Cfg.Runner; r != nil {
		r.ReleasePilot(a.pilot.ID)
	}
	for _, u := range doomed {
		u.finish(UnitFailed, cause)
	}
}

// stopWithReturn is stop for a pilot with a recovery path installed:
// instead of failing the backlog it drains the pending queue (the
// queue's own FIFO drain machinery) and steals the in-flight units,
// returning both for the caller to rebind onto surviving pilots. A
// stolen unit's stale flight keeps its pending callback, but every
// subsequent effect is generation-gated (unit.go), so it exits
// harmlessly at its next gate. In-flight units are returned first (they
// are the oldest work), ordered by unit ID so the map iteration cannot
// leak nondeterminism into the rebind order.
func (a *agent) stopWithReturn(cause error) []*ComputeUnit {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return nil
	}
	a.stopped = true
	a.stoppedFlag.Store(true)
	a.stopErr = cause
	pend := a.pend.drain()
	running := make([]*ComputeUnit, 0, len(a.inflight))
	for u := range a.inflight {
		running = append(running, u)
	}
	a.inflight = make(map[*ComputeUnit]*flight)
	a.mu.Unlock()
	// Real mode: kill the stolen units' processes. The stale flights'
	// RunUnit calls return, and every subsequent effect is generation-
	// gated away — the rebound attempts own the units from here.
	if r := a.sess.Cfg.Runner; r != nil {
		r.ReleasePilot(a.pilot.ID)
	}
	sort.Slice(running, func(i, j int) bool { return running[i].ID < running[j].ID })
	returned := make([]*ComputeUnit, 0, len(running)+len(pend))
	for _, u := range running {
		if u.steal() {
			returned = append(returned, u)
		}
	}
	for _, u := range pend {
		if !u.State().Final() { // racing external finish keeps its result
			returned = append(returned, u)
		}
	}
	return returned
}

// drainPending removes and returns the live pending backlog without
// stopping the agent — the DrainPilot path: the unit manager has
// already withdrawn the pilot so no new work arrives, running units
// finish normally, and the returned backlog is rebound elsewhere.
func (a *agent) drainPending() []*ComputeUnit {
	a.mu.Lock()
	pend := a.pend.drain()
	a.mu.Unlock()
	out := make([]*ComputeUnit, 0, len(pend))
	for _, u := range pend {
		if !u.State().Final() {
			out = append(out, u)
		}
	}
	return out
}

// quiesce returns an event that fires once the agent has no running
// unit. Arm it only after the pending backlog is drained and no more
// work will be dispatched here (DrainPilot's handshake); with anything
// still running the event fires from the last release.
func (a *agent) quiesce() *vclock.Event {
	a.mu.Lock()
	if a.quiesceEv == nil {
		a.quiesceEv = vclock.NewEvent(a.sess.V, fmt.Sprintf("pilot %d quiesce", a.pilot.ID))
	}
	ev := a.quiesceEv
	fire := a.running == 0
	a.mu.Unlock()
	if fire {
		ev.Fire()
	}
	return ev
}

// loseNodes takes n nodes out of the allocation at the current instant —
// the FaultNodeLoss path. The last n node indices are chosen
// (deterministic and independent of occupancy); their free cores leave
// the scheduler immediately, and cores a running unit holds there are
// dropped when that unit releases. Every in-flight unit whose
// allocation touches a downed node is stolen (generation-gated, as in
// stopWithReturn) and the whole pending backlog is drained — a queued
// unit may no longer fit the shrunken pilot, and re-placement sorts
// feasible units back (often onto this same pilot's surviving nodes)
// while infeasible ones settle through the caller. Returns the
// displaced units; nil when the fault changed nothing.
func (a *agent) loseNodes(n int) []*ComputeUnit {
	a.mu.Lock()
	if a.stopped || n <= 0 {
		a.mu.Unlock()
		return nil
	}
	total := len(a.sched.nodeFree())
	if n > total {
		n = total
	}
	if a.down == nil {
		a.down = make(map[int]bool)
	}
	lost := 0
	for i := total - n; i < total; i++ {
		if a.down[i] {
			continue
		}
		a.down[i] = true
		lost += a.sched.markDown(i)
	}
	if lost == 0 {
		a.mu.Unlock()
		return nil
	}
	a.capCores.Add(-int64(lost))
	var hit []*ComputeUnit
	for u, fi := range a.inflight {
		touched := false
		fi.alloc.forEach(func(node, _ int) {
			if a.down[node] {
				touched = true
			}
		})
		if touched {
			hit = append(hit, u)
		}
	}
	for _, u := range hit {
		delete(a.inflight, u)
	}
	pend := a.pend.drain()
	a.mu.Unlock()
	sort.Slice(hit, func(i, j int) bool { return hit[i].ID < hit[j].ID })
	returned := make([]*ComputeUnit, 0, len(hit)+len(pend))
	for _, u := range hit {
		if u.steal() {
			returned = append(returned, u)
		}
	}
	for _, u := range pend {
		if !u.State().Final() {
			returned = append(returned, u)
		}
	}
	return returned
}

// submit enqueues a unit. The unit must already be bound to this agent's
// pilot. The QUEUED transition is recorded before the unit becomes
// visible to the scheduler, so a pass can never execute it first; queue
// insertion and the pass then share one critical section.
func (a *agent) submit(u *ComputeUnit) {
	if !a.admit(u) {
		return
	}
	u.setState(UnitQueued)
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		a.rejectStopped(u)
		return
	}
	a.pend.push(u)
	a.scheduleLocked()
	a.mu.Unlock()
}

// admit applies the static submission checks shared by submit and
// submitBatch, failing units that can never run here. It returns false
// when the unit was finished (rejected) and must not be queued.
func (a *agent) admit(u *ComputeUnit) bool {
	if a.isStopped() {
		a.rejectStopped(u)
		return false
	}
	// Units that can never be placed on this pilot are rejected here, at
	// submission, against the pilot's static shape — queueing them would
	// wedge the FIFO (and the watermark would rightly never trigger a
	// pass for them). The capacity is the live one: a pilot shrunk by
	// node loss no longer admits units only its lost nodes could hold.
	need := u.Desc.Cores
	if cap := a.capacityCores(); need > cap {
		u.finish(UnitFailed, fmt.Errorf(
			"pilot: unit %q needs %d cores, pilot %d holds %d",
			u.Desc.Name, need, a.pilot.ID, cap))
		return false
	}
	if m := a.pilot.backend.machine; !u.Desc.MPI && need > m.CoresPerNode {
		u.finish(UnitFailed, fmt.Errorf(
			"pilot: non-MPI unit %q needs %d cores, node has %d",
			u.Desc.Name, need, m.CoresPerNode))
		return false
	}
	return true
}

// submitBatch enqueues one wave's worth of units bound to this pilot as
// a single bulk submission: every unit is admitted and recorded QUEUED,
// then the whole group joins the pending FIFO under one critical
// section with one scheduling pass — instead of a lock acquisition and
// pass attempt per unit. Placement outcomes are identical to per-unit
// submission (passes are FIFO over pending), so this is purely a
// client-side cost reduction.
func (a *agent) submitBatch(us []*ComputeUnit) {
	queued := us[:0:0]
	for _, u := range us {
		if !a.admit(u) {
			continue
		}
		u.setState(UnitQueued)
		queued = append(queued, u)
	}
	if len(queued) == 0 {
		return
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		a.rejectStoppedBatch(queued)
		return
	}
	for _, u := range queued {
		a.pend.push(u)
	}
	a.scheduleLocked()
	a.mu.Unlock()
}

// cancelQueued removes a unit from the pending queue if still there —
// an O(1) tombstone on the segmented queue (the seed reference keeps
// its linear splice), so cancelling under a deep backlog never touches
// unrelated entries.
func (a *agent) cancelQueued(u *ComputeUnit) {
	a.mu.Lock()
	ok := a.pend.cancel(u)
	a.mu.Unlock()
	if ok {
		u.finish(UnitCanceled, nil)
		return
	}
	// Not pending: either executing (runs to completion, finish() maps
	// Done to Canceled via the unit's canceled flag) or already final.
}

// load approximates the agent's backlog for least-loaded scheduling.
func (a *agent) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pend.size() + a.running
}

// fitPossible reports whether any pending unit could be placed right now,
// per the queue's watermarks. Caller holds mu.
func (a *agent) fitPossible() bool {
	return a.pend.minNeedAny() <= a.sched.maxNodeFree() || a.pend.minNeedMPI() <= a.sched.freeCores()
}

// passStats snapshots the pass-cost counters (tests): passes run, units
// yielded, units placed, and the queue's cumulative internal work.
func (a *agent) passStats() (passes, scanned, placed, queueWork uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.passCount, a.passScanned, a.passPlaced, a.pend.work()
}

// scheduleLocked runs a scheduling pass if the agent is live. Caller
// holds mu; the pass runs to completion under it, so no event can
// interleave with a pass and nothing ever needs a second one.
func (a *agent) scheduleLocked() {
	if a.started && !a.stopped {
		a.passLocked()
	}
}

// utilSnapshot reads the utilization counters.
func (a *agent) utilSnapshot() UtilSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return UtilSnapshot{Units: a.utilUnits, CoreBusy: a.utilBusy}
}

// complete ends a flight: its allocation's cores return to the
// scheduler, the flight to the free list, and — unless the watermark
// says nothing pending can use the freed capacity, the O(1) common case
// on a saturated pilot — a pass places whatever now fits.
func (a *agent) complete(f *flight) {
	a.mu.Lock()
	a.releaseAllocLocked(f.alloc)
	a.running--
	if a.runEnds != nil {
		delete(a.runEnds, f.u)
	}
	if a.inflight != nil {
		// Only the entry of this very placement: the unit may already be
		// re-placed here under a newer generation.
		if a.inflight[f.u] == f {
			delete(a.inflight, f.u)
		}
	}
	var quiesce *vclock.Event
	if a.running == 0 && a.quiesceEv != nil {
		quiesce = a.quiesceEv
	}
	*f = flight{a: a, step: f.step, next: a.free}
	a.free = f
	if a.pend.size() > 0 && a.fitPossible() {
		a.scheduleLocked()
	}
	a.mu.Unlock()
	if quiesce != nil {
		quiesce.Fire()
	}
}

// releaseAllocLocked returns an allocation's cores to the scheduler,
// dropping shares on nodes lost to injected faults: the cores left with
// the node. Caller holds mu.
func (a *agent) releaseAllocLocked(alloc allocation) {
	if a.down == nil {
		a.sched.release(alloc)
		return
	}
	kept := allocation{node: -1}
	alloc.forEach(func(node, cores int) {
		if a.down[node] {
			return
		}
		if kept.node < 0 {
			kept.node, kept.cores = node, cores
		} else {
			kept.spill = append(kept.spill, nodeShare{node, cores})
		}
	})
	if kept.node >= 0 {
		a.sched.release(kept)
	}
}

// passLocked performs one continuous-scheduling pass over the pending
// queue, launching each placement it decides in placement order. Caller
// holds mu for the whole pass (so the queue's pass cursors see no
// interleaved mutation).
func (a *agent) passLocked() {
	if a.sched.freeCores() == 0 {
		// Saturated: nothing can be placed, leave the queue untouched.
		// (Never-placeable units cannot be in it: submit rejects them.)
		return
	}
	m := a.pilot.backend.machine
	backfill := a.sess.Cfg.Agent == Backfill

	// Backfill reservation state: set once the FIFO head blocks.
	blocked := false
	var shadow time.Duration // head's earliest possible start
	var extra int            // cores spare at the shadow time

	q := a.pend
	a.passCount++
	q.beginPass()
	for a.sched.freeCores() > 0 {
		u := q.next()
		if u == nil {
			break
		}
		a.passScanned++
		need := u.Desc.Cores
		// O(1) feasibility precheck against the index, then the EASY
		// reservation, then the actual placement.
		fits := need <= a.sched.maxNodeFree() || (u.Desc.MPI && need <= a.sched.freeCores())
		if !fits {
			// The precheck depends only on the unit's placement class
			// (need × MPI) and on free capacity, which never grows within
			// a pass — so every later unit of this class fails it too,
			// and the segmented queue stops consulting the whole bucket.
			if backfill && !blocked {
				blocked = true
				shadow, extra = a.reservationLocked(need)
			}
			q.block()
			continue
		}
		if backfill && blocked {
			// The blocked head holds a reservation: this unit may jump it
			// only if it cannot delay the head's shadow-time start —
			// either it is predicted to finish before the shadow time
			// (its cores are back when the head needs them), or it fits
			// in the spare cores the head will not need then. Spare-core
			// admissions consume the spare budget, so a stream of long
			// small units cannot collectively overrun the reservation.
			ok := false
			if dur, err := a.predictLocked(u); err == nil {
				ok = a.sess.V.Now()+m.TaskLaunchLatency+dur <= shadow
			}
			if !ok && need <= extra {
				ok = true
				extra -= need
			}
			if !ok {
				// The gate is per-unit — predicted durations differ
				// within a placement class — so only this unit waits;
				// its classmates still get their own gate check.
				q.skip()
				continue
			}
		}
		alloc, ok := a.sched.tryPlace(need, u.Desc.MPI)
		if !ok {
			// Defensive (the precheck implies placement succeeds on both
			// scheduler implementations): keep just this unit, claiming
			// no class-wide knowledge.
			if backfill && !blocked {
				blocked = true
				shadow, extra = a.reservationLocked(need)
			}
			q.skip()
			continue
		}
		a.running++
		if a.runEnds != nil {
			end := a.sess.V.Now() + m.TaskLaunchLatency
			if dur, err := a.predictLocked(u); err == nil {
				end += dur
			}
			a.runEnds[u] = runInfo{end: end, cores: need}
		}
		// Capture the rebind generation under the same lock that placed
		// the unit: a steal can only land before or after this critical
		// section, never between placement and capture.
		g := -1
		if a.inflight != nil {
			g = u.generation()
		}
		f := a.newFlightLocked(u, alloc, g)
		if a.inflight != nil {
			a.inflight[u] = f
		}
		a.launchLocked(f)
		a.passPlaced++
		q.placed()
	}
	q.endPass()
}

// newFlightLocked takes a flight off the free list (or allocates one,
// binding its step once) for a fresh placement. Caller holds mu.
func (a *agent) newFlightLocked(u *ComputeUnit, alloc allocation, gen int) *flight {
	f := a.free
	if f != nil {
		a.free = f.next
		f.next = nil
	} else {
		f = &flight{a: a}
		f.step = f.fire
	}
	f.u, f.alloc, f.gen = u, alloc, gen
	return f
}

// launchLocked starts f's launch on an idle launcher slot, or queues it
// behind the launches already waiting. Caller holds mu.
func (a *agent) launchLocked(f *flight) {
	if a.launchFree == 0 {
		if a.launchTail == nil {
			a.launchHead = f
		} else {
			a.launchTail.next = f
		}
		a.launchTail = f
		return
	}
	a.launchFree--
	a.sess.V.AfterFunc(a.pilot.backend.machine.TaskLaunchLatency, f.step)
}

// launchDone frees a finished launch's slot: the oldest waiting launch
// takes it over at once, or it goes back to the idle count.
func (a *agent) launchDone() {
	a.mu.Lock()
	if f := a.launchHead; f != nil {
		a.launchHead = f.next
		if a.launchHead == nil {
			a.launchTail = nil
		}
		f.next = nil
		a.sess.V.AfterFunc(a.pilot.backend.machine.TaskLaunchLatency, f.step)
	} else {
		a.launchFree++
	}
	a.mu.Unlock()
}

// predictLocked estimates a unit's execution duration via the cost model
// (the same call the flight's exec step will make). Used by the Backfill
// policy; staging and launcher queueing are not modelled — the
// reservation is a scheduling heuristic, exactly as walltime-based EASY
// backfill is at the batch layer.
func (a *agent) predictLocked(u *ComputeUnit) (time.Duration, error) {
	return a.sess.Cost.Duration(u.Desc.Kernel, u.Desc.Params, u.Desc.Cores, a.pilot.backend.machine)
}

// reservationLocked computes the blocked head's EASY reservation from the
// running units' projected completions: the shadow time at which enough
// cores will have been freed for the head, and the cores spare beyond the
// head's need at that moment. Projected completions sharing the shadow
// time are all counted, keeping the result independent of map order.
// Caller holds mu.
func (a *agent) reservationLocked(headNeed int) (shadow time.Duration, extra int) {
	free := a.sched.freeCores()
	infos := make([]runInfo, 0, len(a.runEnds))
	for _, ri := range a.runEnds {
		infos = append(infos, ri)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].end < infos[j].end })
	acc := 0
	for i, ri := range infos {
		acc += ri.cores
		if free+acc >= headNeed && (i+1 == len(infos) || infos[i+1].end != ri.end) {
			return ri.end, free + acc - headNeed
		}
	}
	// The head can never start (larger than capacity would be fatal, so
	// this is only reachable transiently): forbid all overtaking.
	return 0, -1
}

// fire is every flight callback: it performs the step phase names, and
// releases the flight once a step reports it has nothing left to wait
// for (the unit settled, or the flight went stale).
func (f *flight) fire() {
	var live bool
	switch f.phase {
	case phLaunch:
		f.a.launchDone()
		live = f.launched()
	case phExec:
		live = f.executed(nil)
	default: // a staging directive elapsed
		f.a.pilot.backend.mover.Done(f.directives()[f.dir])
		f.dir++
		live = f.stage()
	}
	if !live {
		f.a.complete(f)
	}
}

// launched runs once the launch latency has elapsed: input staging when
// the unit has any, else straight to execution. Like every step it
// reports whether a further callback is pending.
func (f *flight) launched() bool {
	a, u := f.a, f.u
	if a.isStopped() {
		u.finishFrom(f.gen, UnitFailed, a.stopCause())
		return false
	}
	if len(u.Desc.InputStaging) == 0 {
		return f.exec()
	}
	if !u.setStateFrom(f.gen, UnitStagingInput) {
		return false
	}
	a.sess.Prof.RecordID(u.entityID, a.sess.vocab.evStageinStart)
	f.phase, f.dir = phStageIn, 0
	return f.stage()
}

// directives returns the staging list the current phase walks.
func (f *flight) directives() []Directive {
	if f.phase == phStageOut {
		return f.u.Desc.OutputStaging
	}
	return f.u.Desc.InputStaging
}

// stage starts staging directive f.dir, one callback per directive
// (through the mover's non-sleeping step); past the last one it closes
// the staging phase and moves on.
func (f *flight) stage() bool {
	a, u := f.a, f.u
	vocab := &a.sess.vocab
	if dirs := f.directives(); f.dir < len(dirs) {
		c, err := a.pilot.backend.mover.Begin(dirs[f.dir])
		if err != nil {
			what := "input"
			if f.phase == phStageOut {
				what = "output"
			}
			u.finishFrom(f.gen, UnitFailed, fmt.Errorf("%s staging: %w", what, err))
			return false
		}
		a.sess.V.AfterFunc(c, f.step)
		return true
	}
	if u.staleGen(f.gen) {
		return false
	}
	if f.phase == phStageIn {
		a.sess.Prof.RecordID(u.entityID, vocab.evStageinStop)
		return f.exec()
	}
	a.sess.Prof.RecordID(u.entityID, vocab.evStageoutStop)
	u.finishFrom(f.gen, UnitDone, nil)
	return false
}

// exec opens the execution window: the cost-model duration as one
// callback in simulation, or — in real mode, where the runner blocks for
// as long as the unit really takes (an OS process, or a wall sleep of
// the modelled duration for kernels without a command) — one goroutine
// per running unit that finishes through the same executed step.
func (f *flight) exec() bool {
	a, u := f.a, f.u
	dur, err := a.sess.Cost.Duration(u.Desc.Kernel, u.Desc.Params, u.Desc.Cores, a.pilot.backend.machine)
	if err != nil {
		u.finishFrom(f.gen, UnitFailed, err)
		return false
	}
	if !u.setStateFrom(f.gen, UnitExecuting) {
		return false
	}
	f.start = a.sess.V.Now()
	a.sess.Prof.RecordID(u.entityID, a.sess.vocab.evExecStart)
	f.phase = phExec
	r := a.sess.Cfg.Runner
	if r == nil {
		a.sess.V.AfterFunc(dur, f.step)
		return true
	}
	a.sess.V.Go(func() {
		err := r.RunUnit(ExecRequest{
			PilotID:    a.pilot.ID,
			PilotCores: a.pilot.Desc.Cores,
			Unit:       u.Desc.Name,
			UnitID:     u.ID,
			Attempt:    u.Desc.Attempt,
			Kernel:     u.Desc.Kernel,
			Executable: u.Desc.Executable,
			Args:       u.Desc.Args,
			Cores:      u.Desc.Cores,
			Model:      dur,
		})
		if !f.executed(err) {
			a.complete(f)
		}
	})
	return true
}

// executed closes the execution window — bracketed by the same records
// and accounting in both modes — then settles the unit or starts its
// output staging.
func (f *flight) executed(execErr error) bool {
	a, u := f.a, f.u
	stop := a.sess.V.Now()
	if !u.markExecFrom(f.gen, f.start, stop) {
		return false
	}
	a.sess.Prof.RecordID(u.entityID, a.sess.vocab.evExecStop)
	// Utilization counters are bumped before the unit can turn final, so
	// a snapshot taken when a campaign's last unit settles cannot miss
	// its execution.
	a.mu.Lock()
	a.utilUnits++
	a.utilBusy += (stop - f.start) * time.Duration(u.Desc.Cores)
	a.mu.Unlock()

	var err error
	switch {
	case execErr != nil:
		err = fmt.Errorf("unit %q exec: %w", u.Desc.Name, execErr)
	case u.Desc.FailOn != nil && u.Desc.FailOn(u.Desc.Attempt):
		err = fmt.Errorf("unit %q failed (injected, attempt %d)", u.Desc.Name, u.Desc.Attempt)
	case a.isStopped():
		err = a.stopCause()
	case u.Desc.Work != nil:
		if werr := u.Desc.Work(); werr != nil {
			err = fmt.Errorf("unit %q work: %w", u.Desc.Name, werr)
		}
	}
	if err != nil {
		u.finishFrom(f.gen, UnitFailed, err)
		return false
	}
	if len(u.Desc.OutputStaging) == 0 {
		u.finishFrom(f.gen, UnitDone, nil)
		return false
	}
	if !u.setStateFrom(f.gen, UnitStagingOutput) {
		return false
	}
	a.sess.Prof.RecordID(u.entityID, a.sess.vocab.evStageoutStart)
	f.phase, f.dir = phStageOut, 0
	return f.stage()
}

func (a *agent) isStopped() bool {
	return a.stoppedFlag.Load()
}

// stopCause returns the stop error; valid once isStopped reports true.
func (a *agent) stopCause() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stopErr
}

// freeCores reports currently free cores (tests/diagnostics).
func (a *agent) freeCores() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.freeCores()
}

// nodeFree snapshots per-node free cores (tests/diagnostics).
func (a *agent) nodeFree() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.nodeFree()
}
