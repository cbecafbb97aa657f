package vclock

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// stamp is one recorded firing: who, and the clock reading it saw.
type stamp struct {
	who string
	at  time.Duration
}

// stampLog collects firings from callbacks and processes alike.
type stampLog struct {
	mu  sync.Mutex
	got []stamp
}

func (l *stampLog) add(v Clock, who string) {
	l.mu.Lock()
	l.got = append(l.got, stamp{who, v.Now()})
	l.mu.Unlock()
}

func (l *stampLog) whos() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.got))
	for i, s := range l.got {
		out[i] = s.who
	}
	return out
}

// TestAfterFuncInterleavesWithSleepers: callbacks and Sleep wakeups
// share one timer order, (deadline, seq). At distinct deadlines the
// firings interleave by time; at one deadline, same-instant callbacks
// run in registration order, and a callback registered before a
// sleeper's deadline has run by the time that sleeper wakes.
func TestAfterFuncInterleavesWithSleepers(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var log stampLog
		v.Run(func() {
			cb := func(who string) func() { return func() { log.add(v, who) } }
			v.AfterFunc(3*time.Second, cb("c3a")) // seq before the sleepers
			v.Go(func() {
				v.Sleep(time.Second)
				log.add(v, "s1")
				v.Sleep(2 * time.Second) // deadline 3s, seq after c3a
				log.add(v, "s3")
			})
			v.AfterFunc(2*time.Second, cb("c2"))
			v.AfterFunc(3*time.Second, cb("c3b"))
			v.AfterFunc(4*time.Second, cb("c4"))
			v.Sleep(5 * time.Second)
			log.add(v, "run5")
		})
		got := log.whos()
		pos := map[string]int{}
		for i, w := range got {
			pos[w] = i
		}
		if len(got) != 7 {
			t.Fatalf("firings %v, want 7", got)
		}
		for _, pair := range [][2]string{
			{"s1", "c2"}, {"c2", "c3a"}, {"c3a", "c3b"}, {"c3a", "s3"},
			{"s3", "c4"}, {"c3b", "c4"}, {"c4", "run5"},
		} {
			if pos[pair[0]] > pos[pair[1]] {
				t.Errorf("%s fired after %s: %v", pair[0], pair[1], got)
			}
		}
		want := map[string]time.Duration{"s1": time.Second, "c2": 2 * time.Second,
			"c3a": 3 * time.Second, "c3b": 3 * time.Second, "s3": 3 * time.Second,
			"c4": 4 * time.Second, "run5": 5 * time.Second}
		for _, s := range log.got {
			if s.at != want[s.who] {
				t.Errorf("%s fired at %v, want %v", s.who, s.at, want[s.who])
			}
		}
	})
}

// TestAfterFuncHoldsClock: a running callback holds a runnable token,
// so the clock cannot advance under it even when it wakes a process
// that immediately sleeps again — and a callback may wake parked
// processes.
func TestAfterFuncHoldsClock(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var seen []time.Duration
		v.Run(func() {
			ev := NewEvent(v, "kick")
			v.Go(func() {
				ev.Wait()
				v.Sleep(time.Millisecond)
			})
			v.AfterFunc(time.Second, func() {
				ev.Fire()
				for i := 0; i < 1000; i++ {
					seen = append(seen, v.Now())
				}
			})
			v.Sleep(2 * time.Second)
		})
		for _, at := range seen {
			if at != time.Second {
				t.Fatalf("clock moved to %v inside a callback fired at 1s", at)
			}
		}
	})
}

// TestAfterFuncChainsAndNonPositive pins the scheduling contract: a
// callback may file further callbacks (a chain advances one step per
// firing), and d <= 0 means "at the current instant" — never inline,
// but after every runnable process has blocked and after the timers
// already pending at that instant.
func TestAfterFuncChainsAndNonPositive(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var log stampLog
		v.Run(func() {
			// A five-step chain, one second per step.
			var step func()
			n := 0
			step = func() {
				n++
				log.add(v, fmt.Sprintf("chain%d", n))
				if n < 5 {
					v.AfterFunc(time.Second, step)
				}
			}
			v.AfterFunc(time.Second, step)

			// d <= 0 from a process: not inline, fires at the same instant
			// once this process blocks.
			ran := false
			v.AfterFunc(0, func() { ran = true; log.add(v, "zero") })
			if ran {
				t.Error("AfterFunc(0) ran inline")
			}
			v.AfterFunc(-time.Hour, func() { log.add(v, "negative") })

			// d <= 0 from a callback at 10s: after the callback already
			// pending at 10s, and before anything later.
			v.AfterFunc(10*time.Second, func() {
				log.add(v, "at10")
				v.AfterFunc(0, func() { log.add(v, "at10+0") })
			})
			v.AfterFunc(10*time.Second, func() { log.add(v, "at10b") })
			v.AfterFunc(10*time.Second+time.Nanosecond, func() { log.add(v, "after10") })
			v.Sleep(time.Minute)
		})
		want := []stamp{
			{"zero", 0}, {"negative", 0},
			{"chain1", 1 * time.Second}, {"chain2", 2 * time.Second}, {"chain3", 3 * time.Second},
			{"chain4", 4 * time.Second}, {"chain5", 5 * time.Second},
			{"at10", 10 * time.Second}, {"at10b", 10 * time.Second}, {"at10+0", 10 * time.Second},
			{"after10", 10*time.Second + time.Nanosecond},
		}
		if !reflect.DeepEqual(log.got, want) {
			t.Errorf("firings\n got %v\nwant %v", log.got, want)
		}
	})
}

// TestAfterFuncDeadlock: callbacks are timers, not processes. A pending
// callback keeps a simulation whose processes are all parked alive (it
// may be the one to wake them), and once the last callback has fired
// with only parked waiters left, deadlock detection still fires.
func TestAfterFuncDeadlock(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var woke time.Duration
		v.Run(func() {
			ev := NewEvent(v, "late")
			v.AfterFunc(5*time.Second, ev.Fire)
			ev.Wait() // only a callback can wake us: no deadlock
			woke = v.Now()
		})
		if woke != 5*time.Second {
			t.Fatalf("woke at %v, want 5s", woke)
		}

		v = NewVirtualEngine(v.EngineKind())
		done := make(chan interface{}, 1)
		fired := false
		go func() {
			defer func() { done <- recover() }()
			v.Run(func() {
				v.Go(func() { NewEvent(v, "never-fired").Wait() })
				v.AfterFunc(3*time.Second, func() { fired = true })
				// Park last (the panic is raised on whichever process
				// blocks last — here the recoverable Run caller), with the
				// callback still pending.
				v.Sleep(2 * time.Second)
				NewEvent(v, "also-never").Wait()
			})
		}()
		var r interface{}
		select {
		case r = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock panic did not unwind")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload %T: %v", r, r)
		}
		for _, want := range []string{"deadlock", "2 blocked waiter(s)", "event never-fired", "event also-never"} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report missing %q:\n%s", want, msg)
			}
		}
		if !fired {
			t.Error("the pending callback did not fire before the deadlock was declared")
		}
		if got := v.Now(); got != 3*time.Second {
			t.Errorf("clock at %v after deadlock, want 3s", got)
		}
	})
}

// TestWallAfterFunc: on the wall clock a callback runs on its own
// goroutine once the real delay has passed (d <= 0: promptly), never
// inline — so, unlike on the virtual engines, it may block.
func TestWallAfterFunc(t *testing.T) {
	w := NewWall()
	start := time.Now()
	fired := make(chan time.Duration, 1)
	w.AfterFunc(20*time.Millisecond, func() { fired <- time.Since(start) })
	zero := make(chan struct{})
	ran := false
	w.AfterFunc(0, func() {
		<-zero // blocks its own goroutine only
		ran = true
		close(fired)
	})
	select {
	case <-fired:
		t.Fatal("callback fired before its delay")
	default:
	}
	if d := <-fired; d < 20*time.Millisecond {
		t.Fatalf("callback fired after %v, want >= 20ms", d)
	}
	close(zero)
	if _, open := <-fired; open || !ran {
		t.Fatal("zero-delay callback did not run")
	}
}
