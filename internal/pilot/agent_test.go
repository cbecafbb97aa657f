package pilot

import (
	"fmt"
	"testing"
	"time"

	"entk/internal/vclock"
)

func TestLauncherWidthSerializesLaunches(t *testing.T) {
	// With LauncherWidth=1 and launch latency 10ms, 8 concurrent units
	// pay 80ms of serialized launch before the last one starts.
	v := vclock.NewVirtual()
	s := testSession(t, v)
	s.Cfg.LauncherWidth = 1
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := make([]UnitDescription, 8)
		for i := range descs {
			descs[i] = sleepUnit("w1", 1)
		}
		t0 := v.Now()
		units, _ := um.Submit(descs)
		um.WaitAll(units)
		elapsed := v.Now() - t0
		// submission 80ms + serialized launches 80ms + 1s exec.
		if elapsed < 1100*time.Millisecond {
			t.Errorf("elapsed %v, want >= 1.1s with serialized launcher", elapsed)
		}
		p.Cancel()
	})
}

func TestBestFitPacksTightestNode(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	s.Cfg.Agent = BestFit
	v.Run(func() {
		_, p := startPilot(t, s, 8) // 2 nodes x 4 cores
		um := NewUnitManager(s)
		um.AddPilot(p)
		// Occupy 3 cores on node 0 (leaving 1 free) with a long task.
		long := UnitDescription{Name: "long", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 100}, Cores: 3, MPI: true}
		u1, _ := um.SubmitOne(long)
		v.Sleep(time.Second)
		if u1.State() != UnitExecuting {
			t.Fatalf("long unit state %v", u1.State())
		}
		// A 1-core task under best-fit must choose node 0 (1 free) not
		// node 1 (4 free), leaving node 1 whole for a wide task.
		small, _ := um.SubmitOne(sleepUnit("small", 100))
		v.Sleep(time.Second)
		wide := UnitDescription{Name: "wide", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 1}, Cores: 4, MPI: true}
		u3, _ := um.SubmitOne(wide)
		// Wide task fits whole on node 1 only if best-fit kept it clear.
		start := v.Now()
		if st := u3.WaitFinal(); st != UnitDone {
			t.Fatalf("wide unit state %v (err %v)", st, u3.Err())
		}
		if v.Now()-start > 5*time.Second {
			t.Errorf("wide task waited %v: best-fit fragmented the nodes", v.Now()-start)
		}
		_ = small
		p.Cancel()
	})
}

func TestFirstFitFragmentsInSameScenario(t *testing.T) {
	// The mirror of the best-fit test: first-fit puts the small task on
	// node 1 (first with space after node 0 fills), so the 4-core wide
	// task cannot start until the small task finishes.
	v := vclock.NewVirtual()
	s := testSession(t, v)
	s.Cfg.Agent = FirstFit
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		long := UnitDescription{Name: "long", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 100}, Cores: 4, MPI: true}
		um.SubmitOne(long) // fills node 0 entirely
		v.Sleep(time.Second)
		// Small task lands on node 1 under both policies now; use a
		// 3-core holder to leave 1 free on node 1.
		holder := UnitDescription{Name: "holder", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 30}, Cores: 3, MPI: true}
		um.SubmitOne(holder)
		v.Sleep(time.Second)
		wide := UnitDescription{Name: "wide", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 1}, Cores: 4, MPI: true}
		u3, _ := um.SubmitOne(wide)
		start := v.Now()
		if st := u3.WaitFinal(); st != UnitDone {
			t.Fatalf("wide unit state %v", st)
		}
		// Wide must wait ~28s for the holder to release node 1.
		if v.Now()-start < 25*time.Second {
			t.Errorf("wide task started after %v, expected to wait for fragmentation", v.Now()-start)
		}
		p.Cancel()
	})
}

func TestMPIAllocationExactlyCoversRequest(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 12) // 3 nodes: 4+4+4
		a := p.agent
		a.mu.Lock()
		alloc, ok := a.sched.tryPlace(10, true)
		a.mu.Unlock()
		if !ok {
			t.Fatal("place failed")
		}
		alloc.forEach(func(node, n int) {
			if node < 0 || node >= 3 || n <= 0 || n > 4 {
				t.Errorf("bad allocation entry node=%d n=%d", node, n)
			}
		})
		if total := alloc.total(); total != 10 {
			t.Errorf("allocated %d cores, want 10", total)
		}
		if free := a.freeCores(); free != 2 {
			t.Errorf("free after place = %d, want 2", free)
		}
		a.mu.Lock()
		a.sched.release(alloc)
		a.mu.Unlock()
		if free := a.freeCores(); free != 12 {
			t.Errorf("free after release = %d, want 12", free)
		}
		p.Cancel()
	})
}

func TestPilotSmallerThanOneNode(t *testing.T) {
	// A 2-core pilot on a 4-core-per-node machine gets one node with
	// exactly 2 usable cores.
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 2)
		if got := p.agent.freeCores(); got != 2 {
			t.Errorf("pilot cores = %d, want 2", got)
		}
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := []UnitDescription{sleepUnit("a", 1), sleepUnit("b", 1), sleepUnit("c", 1)}
		t0 := v.Now()
		units, _ := um.Submit(descs)
		um.WaitAll(units)
		// 3 tasks on 2 cores: 2 waves.
		if elapsed := v.Now() - t0; elapsed < 2*time.Second {
			t.Errorf("3 tasks on 2 cores took %v, want >= 2s", elapsed)
		}
		p.Cancel()
	})
}

func TestAgentContinuousSchedulingSkipsBlockedHead(t *testing.T) {
	// A wide task that cannot fit yet must not block smaller tasks
	// behind it (continuous scheduling, unlike strict FIFO).
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		hog := UnitDescription{Name: "hog", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 50}, Cores: 6, MPI: true}
		um.SubmitOne(hog)
		v.Sleep(time.Second)
		// Wide cannot start (needs 8, only 2 free).
		wide := UnitDescription{Name: "wide", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 1}, Cores: 8, MPI: true}
		uw, _ := um.SubmitOne(wide)
		// Small fits in the 2 free cores and must run ahead of wide.
		us, _ := um.SubmitOne(sleepUnit("small", 1))
		if st := us.WaitFinal(); st != UnitDone {
			t.Fatalf("small state %v", st)
		}
		if v.Now() > 10*time.Second {
			t.Errorf("small task waited behind blocked wide task (t=%v)", v.Now())
		}
		if st := uw.WaitFinal(); st != UnitDone {
			t.Fatalf("wide state %v", st)
		}
		p.Cancel()
	})
}

// TestLaunchSlotsFillInPlacementOrder is the launcher's property: N
// units placed at one instant t on a launcher of width w start
// executing at t + ceil(k/w)*latency, k = 1..N in placement order —
// the first w launch at once, and each finished launch hands its slot
// to the oldest waiting one. The units are queued while the pilot is
// still pending, so its activation pass places all of them at once.
func TestLaunchSlotsFillInPlacementOrder(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{1, 5, 12, 32} {
			v := vclock.NewVirtual()
			s := testSession(t, v)
			s.Cfg.LauncherWidth = w
			latency := 10 * time.Millisecond // test.pilot's TaskLaunchLatency
			v.Run(func() {
				pm := NewPilotManager(s)
				p, err := pm.Submit(PilotDescription{Resource: "test.pilot", Cores: 32, Walltime: 10 * time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				um := NewUnitManager(s)
				um.AddPilot(p)
				descs := make([]UnitDescription, n)
				for i := range descs {
					descs[i] = sleepUnit(fmt.Sprintf("k%02d", i+1), 1)
				}
				units, err := um.Submit(descs)
				if err != nil {
					t.Fatal(err)
				}
				p.WaitActive()
				placed := v.Now()
				um.WaitAll(units)
				for i, u := range units {
					k := i + 1
					start, _, ok := u.ExecWindow()
					want := placed + time.Duration((k+w-1)/w)*latency
					if !ok || start != want {
						t.Errorf("w=%d n=%d: unit %d of %d exec_start %v, want t+%v = %v",
							w, n, k, n, start, want-placed, want)
					}
				}
				p.Cancel()
			})
		}
	}
}
