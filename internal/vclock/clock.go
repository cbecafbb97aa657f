// Package vclock provides the process clock the toolkit runs under: a
// virtual-time engine for discrete-event simulation with real Go
// concurrency, and a monotonic wall-clock twin for real-mode execution.
//
// The virtual engine lets ordinary goroutines cooperate on a simulated
// clock: a goroutine that calls Sleep suspends in virtual time, and the
// clock only advances when every registered process is blocked. Durations
// therefore model time (an MD task "runs" for 200 virtual seconds) while
// the wall clock cost is microseconds. All blocking must go through the
// primitives in this package (Sleep, Event, Queue, WaitGroup, Semaphore,
// Barrier) so the engine can account for runnable processes; blocking on a
// bare channel from a registered process stalls the simulation.
//
// The wall clock (NewWall) implements the same Clock contract against
// real time: Sleep really sleeps, the primitives really block, and
// registration is a no-op because the operating system, not the engine,
// decides when time passes. Code written against Clock runs unchanged on
// either — that seam is what lets one campaign execute simulated or for
// real (see internal/realtime).
package vclock

import "time"

// Clock is the process-clock contract the runtime is written against: a
// time source plus the process-accounting hooks (Go/Run/Attach/Detach)
// the discrete-event engine needs to know when it may advance time. The
// virtual clock (NewVirtual) and the wall clock (NewWall) both satisfy
// it; on the wall clock the accounting hooks are no-ops because real time
// advances on its own.
//
// The interface carries an unexported method on purpose: a Clock must be
// constructed by this package, because the blocking primitives park and
// wake through the clock's internal engine.
type Clock interface {
	// Now returns the elapsed time since the clock's origin.
	Now() time.Duration
	// Sleep suspends the calling process for d of this clock's time.
	// Non-positive durations return immediately.
	Sleep(d time.Duration)
	// Go spawns fn as a new registered process.
	Go(fn func())
	// Run executes fn inline as a registered process.
	Run(fn func())
	// After schedules fn to run at instant Now()+d as its own process —
	// the timer primitive behind fault arming and deadlines.
	After(d time.Duration, fn func())
	// AfterFunc schedules fn to run at instant Now()+d as a callback, not
	// a process: on the virtual engines fn runs inline on the advance
	// loop, in timer order (deadline, then registration sequence),
	// holding a runnable token, so it must not block; on the wall clock
	// it runs on its own goroutine, like time.AfterFunc. d <= 0 means
	// the current instant (see Virtual.AfterFunc).
	AfterFunc(d time.Duration, fn func())
	// Attach counts a process back into the runnable accounting.
	Attach()
	// Detach removes the calling process from the runnable accounting.
	Detach()
	// EngineKind reports which engine backs this clock.
	EngineKind() Engine

	// core exposes the internal engine to this package's primitives.
	core() engine
}

var _ Clock = (*Virtual)(nil)
var _ Clock = (*Wall)(nil)
