package vtime

import (
	"math/rand"
	"sort"
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
