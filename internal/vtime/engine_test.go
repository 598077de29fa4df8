package vtime

import (
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100)
			times = append(times, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 200, 300}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20) // t=30
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		trace = append(trace, "b20")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a10", "b20", "a30"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondSignalWait(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "test cond")
	var woke Time
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		woke = p.Now()
	})
	e.At(500, func() { c.Signal() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 500 {
		t.Fatalf("woke at %d, want 500", woke)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "bc")
	n := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	e.At(10, func() {
		if c.Waiters() != 5 {
			t.Errorf("waiters = %d, want 5", c.Waiters())
		}
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "never signalled")
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck: never signalled" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine()
	s := NewSema(e, "sem", 0)
	var acquired Time
	e.Spawn("acq", func(p *Proc) {
		s.Acquire(p)
		acquired = p.Now()
	})
	e.At(777, func() { s.Release() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if acquired != 777 {
		t.Fatalf("acquired at %d, want 777", acquired)
	}
	if s.Value() != 0 {
		t.Fatalf("value = %d, want 0", s.Value())
	}
}

func TestSemaTryAcquire(t *testing.T) {
	e := NewEngine()
	s := NewSema(e, "sem", 2)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("TryAcquire should succeed twice")
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire should fail at zero")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire should succeed after Release")
	}
}

func TestSemaMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSema(e, "sem", 0)
	var order []string
	spawn := func(name string, delay Duration) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			s.Acquire(p)
			order = append(order, name)
		})
	}
	spawn("first", 1)
	spawn("second", 2)
	spawn("third", 3)
	e.At(100, func() { s.Release(); s.Release(); s.Release() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(100, func() { ran++ })
	e.At(200, func() { ran++ })
	e.At(300, func() { ran++ })
	if err := e.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran %d events, want 2 (deadline inclusive)", ran)
	}
	if e.Now() != 200 {
		t.Fatalf("now = %d, want 200", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++; e.Stop() })
	e.At(20, func() { ran++ })
	_ = e.RunUntil(100)
	if ran != 1 {
		t.Fatalf("ran %d, want 1 after Stop", ran)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childRan Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(50)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(10)
			childRan = c.Now()
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childRan != 60 {
		t.Fatalf("child ran at %d, want 60", childRan)
	}
}

func TestStaleWakeupIgnored(t *testing.T) {
	// A proc woken by both a timer and a cond signal at different times must
	// not be resumed twice.
	e := NewEngine()
	c := NewCond(e, "c")
	wakes := 0
	e.Spawn("w", func(p *Proc) {
		c.Wait(p)
		wakes++
	})
	e.At(5, func() { c.Signal() })
	e.At(6, func() { c.Signal() }) // no waiter; must be a no-op
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Microsecond != 1000 || Millisecond != 1_000_000 || Second != 1_000_000_000 {
		t.Fatal("unit constants wrong")
	}
	if d := DurationOf(1.5e-6); d != 1500 {
		t.Fatalf("DurationOf(1.5us) = %d, want 1500", d)
	}
	if DurationOf(-1) != 0 {
		t.Fatal("negative DurationOf should clamp to 0")
	}
	if got := Duration(2500).Micros(); got != 2.5 {
		t.Fatalf("Micros = %v, want 2.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := Time(1500).Micros(); got != 1.5 {
		t.Fatalf("Time.Micros = %v", got)
	}
}

// Property: for any set of (time, id) events, execution order is sorted by
// time with ties broken by insertion order.
func TestPropertyEventOrderIsStableSort(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		type rec struct {
			t   Time
			idx int
		}
		var got []rec
		for i, d := range delays {
			i, tt := i, Time(d%50) // force lots of ties
			e.At(tt, func() { got = append(got, rec{tt, i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		sorted := sort.SliceIsSorted(got, func(a, b int) bool {
			if got[a].t != got[b].t {
				return got[a].t < got[b].t
			}
			return got[a].idx < got[b].idx
		})
		return sorted && len(got) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: N procs doing random sleeps always terminate with Run() == nil
// and the engine clock equals the max total sleep.
func TestPropertyProcsTerminate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 1 + rng.Intn(8)
		maxTotal := Time(0)
		for i := 0; i < n; i++ {
			total := Time(0)
			var sleeps []Duration
			for j := 0; j < 1+rng.Intn(10); j++ {
				d := Duration(rng.Intn(1000))
				sleeps = append(sleeps, d)
				total = total.Add(d)
			}
			if total > maxTotal {
				maxTotal = total
			}
			e.Spawn("p", func(p *Proc) {
				for _, d := range sleeps {
					p.Sleep(d)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == maxTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Sleep(0)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// a starts first (spawned first), yields at Sleep(0), b runs, then a2.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

// TestEventHeapPopsInSortOrder drives the value-typed heap directly with
// pushes interleaved with pops and many equal-time ties: every pop must be
// the (t, seq) minimum of what the heap holds, i.e. exactly what sorting the
// contents would put first.
func TestEventHeapPopsInSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20090525))
	for round := 0; round < 50; round++ {
		var h eventHeap
		var ref []event // the same contents, kept sorted
		seq := int64(0)
		popOne := func() {
			got := h.pop()
			if got.t != ref[0].t || got.seq != ref[0].seq {
				t.Fatalf("round %d: popped (t=%d, seq=%d), sort order says (t=%d, seq=%d)",
					round, got.t, got.seq, ref[0].t, ref[0].seq)
			}
			ref = ref[1:]
		}
		for step := 0; step < 400; step++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				popOne()
				continue
			}
			seq++
			ev := event{t: Time(rng.Intn(8)), seq: seq} // 8 instants: ties everywhere
			h.push(ev)
			ref = append(ref, ev)
			sort.Slice(ref, func(a, b int) bool { return ref[a].before(&ref[b]) })
		}
		for len(ref) > 0 {
			popOne()
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d events left in the heap", round, len(h))
		}
	}
}

// TestSleepAndAtZeroAlloc pins the engine's own cost per event at zero
// allocations once the heap has reached its steady capacity: a proc wakeup
// and a timer are slots of the event array, not boxed nodes.
func TestSleepAndAtZeroAlloc(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	var avg float64
	e.Spawn("p", func(p *Proc) {
		step := func() {
			e.At(e.Now().Add(1), noop)
			p.Sleep(2)
		}
		step() // grow the heap to the capacity the loop needs
		avg = testing.AllocsPerRun(200, step)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("Sleep + At allocate %.2f objects per pair, want 0", avg)
	}
}

// TestCondSignalReleasesWaiter: Signal pops through a zeroed slot, so the
// woken waiter's predicate closure is not retained by the backing array, and
// the array is reused instead of reallocated per wait.
func TestCondSignalReleasesWaiter(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "test")
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			c.WaitPred(p, func() bool { return true })
		}
	})
	e.Spawn("signaller", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			c.Signal()
			if c.Waiters() != 0 {
				t.Errorf("signal %d left %d waiters", i, c.Waiters())
			}
			if w := c.waiters[:1][0]; w.p != nil || w.pred != nil {
				t.Errorf("signal %d left a stale waiter in the vacated slot", i)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// procFrame is on the stack of every proc coroutine, and of nothing else:
// Spawn's closure is its root.
const procFrame = "vtime.(*Engine).Spawn.func"

// onProcStack reports whether the caller runs on a proc's coroutine stack
// rather than on RunUntil's.
func onProcStack() bool { return strings.Contains(string(debug.Stack()), procFrame) }

// TestCallbackOnBlockedProcStack: a blocked proc runs the event loop itself,
// so a timer due before its wake-up is dispatched on its stack, without a
// switch — but still in engine context: Current() is nil inside the callback
// and the proc again once its Sleep or Wait returns. A timer due before any
// proc has started runs on RunUntil's stack as ever.
func TestCallbackOnBlockedProcStack(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "c")
	var stacks []bool
	callback := func() {
		if e.Current() != nil {
			t.Errorf("t=%d: Current() = %q inside a callback, want nil", e.Now(), e.Current().Name())
		}
		stacks = append(stacks, onProcStack())
	}
	e.At(0, callback)
	var p *Proc
	p = e.Spawn("p", func(*Proc) {
		e.At(5, callback)
		p.Sleep(10)
		if e.Current() != p {
			t.Error("Current() is not the proc after Sleep")
		}
		e.At(15, func() { callback(); c.Signal() })
		c.Wait(p)
		if e.Current() != p || p.Now() != 15 {
			t.Errorf("after Wait: Current() = %v at t=%d, want the proc at 15", e.Current(), p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, true}; len(stacks) != 3 || stacks[0] || !stacks[1] || !stacks[2] {
		t.Fatalf("callbacks ran on a proc stack: %v, want %v", stacks, want)
	}
}

// TestRunUntilParksSleeperPastDeadline: the deadline binds a proc that is
// running the event loop as it binds RunUntil — the callbacks before it run,
// the sleeper whose wake-up lies past it does not, and the next RunUntil
// resumes it.
func TestRunUntilParksSleeperPastDeadline(t *testing.T) {
	e := NewEngine()
	var ran []Time
	woke := Time(-1)
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	for _, at := range []Time{50, 60, 61} {
		e.At(at, func() { ran = append(ran, e.Now()) })
	}
	if err := e.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 || woke != -1 || e.Now() != 60 {
		t.Fatalf("at the deadline: callbacks %v, sleeper woke at %d, now %d; want [50 60], -1, 60", ran, woke, e.Now())
	}
	if err := e.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 3 || woke != 100 || e.Now() != 100 {
		t.Fatalf("after the second RunUntil: callbacks %v, sleeper woke at %d, now %d; want 3, 100, 100", ran, woke, e.Now())
	}
}

// TestStopOnProcStack: Stop ends the run wherever the event loop happens to
// be running — called from a callback a blocked proc is dispatching, and from
// a proc that then blocks. Nothing queued behind it runs.
func TestStopOnProcStack(t *testing.T) {
	for _, from := range []string{"callback", "proc"} {
		e := NewEngine()
		after := 0
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(100)
			after++
		})
		stop := func() {
			e.At(e.Now(), func() { after++ }) // queued behind the stop, same instant
			e.Stop()
		}
		if from == "callback" {
			e.At(10, func() {
				if !onProcStack() {
					t.Error("the stopping callback was not dispatched on the sleeper's stack")
				}
				stop()
			})
		} else {
			e.Spawn("stopper", func(p *Proc) {
				p.Sleep(10)
				stop()
				p.Sleep(1)
				after++
			})
		}
		e.At(20, func() { after++ })
		if err := e.RunUntil(1000); err != nil {
			t.Fatalf("Stop from a %s: %v", from, err)
		}
		if after != 0 || e.Now() != 10 {
			t.Fatalf("Stop from a %s: %d later steps ran, now %d; want 0, 10", from, after, e.Now())
		}
	}
}

// TestProcPanicIsAnError: a panic that escapes a proc — from its function or
// from a callback it was dispatching — comes back from Run as a
// *ProcPanicError naming it; one recovered inside the proc changes nothing,
// and a callback panicking on RunUntil's own stack still panics there.
func TestProcPanicIsAnError(t *testing.T) {
	for _, from := range []string{"proc", "callback"} {
		e := NewEngine()
		e.Spawn("bystander", func(p *Proc) { p.Sleep(1000) })
		e.Spawn("victim", func(p *Proc) {
			func() {
				defer func() { _ = recover() }()
				panic("handled")
			}()
			if from == "callback" {
				e.At(7, func() { panic("boom") })
			}
			p.Sleep(7)
			panic("boom")
		})
		err := e.Run()
		var pe *ProcPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("panic in a %s: err = %v, want *ProcPanicError", from, err)
		}
		if pe.Proc != "victim" || pe.Now != 7 || pe.Value != "boom" ||
			!strings.Contains(string(pe.Stack), "TestProcPanicIsAnError") ||
			!strings.Contains(pe.Error(), "victim") || !strings.Contains(pe.Error(), "t=7ns") || !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("panic in a %s: %+v, stack:\n%s", from, pe, pe.Stack)
		}
	}

	e := NewEngine()
	e.At(3, func() { panic("engine-side") })
	defer func() {
		if v := recover(); v != "engine-side" {
			t.Fatalf("recovered %v, want the callback's own panic", v)
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned after a callback panicked on its stack")
}

// procGoroutines counts the goroutines that are proc coroutines.
func procGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, procFrame) {
			n++
		}
	}
	return n
}

// TestFinishedProcsLeaveNoGoroutine: a proc's coroutine ends with its
// function. Procs abandoned by a deadlock (or Stop, or a panic elsewhere)
// are not reaped: each stays parked, one goroutine, until the process exits.
func TestFinishedProcsLeaveNoGoroutine(t *testing.T) {
	before := procGoroutines() // those earlier tests abandoned
	e := NewEngine()
	s := NewSema(e, "s", 0)
	for i := 0; i < 10; i++ {
		e.Spawn("a", func(p *Proc) { p.Sleep(5); s.Release() })
		e.Spawn("b", func(p *Proc) { s.Acquire(p) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := procGoroutines(); n != before {
		t.Fatalf("%d proc goroutines after a clean run, %d before it", n, before)
	}

	e = NewEngine()
	c := NewCond(e, "never")
	for i := 0; i < 3; i++ {
		e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	}
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || len(de.Blocked) != 3 {
		t.Fatalf("err = %v, want a DeadlockError with 3 procs", err)
	}
	if n := procGoroutines(); n != before+3 {
		t.Fatalf("%d proc goroutines after the deadlock, want the %d from before plus 3 parked", n, before)
	}
}
