// Package vtime implements a deterministic discrete-event simulation engine.
//
// Simulated processes (Proc) are iter.Pull coroutines that execute exactly
// one at a time under the control of an Engine; they block on virtual-time
// primitives (Sleep, Cond.Wait) and the virtual clock advances between events.
// There is one event loop, Engine.dispatch, and whoever has nothing to do runs
// it: RunUntil on the caller's stack, a blocking proc on its own. The proc pops
// and runs timer callbacks itself, returns from Sleep or Wait without any
// switch when its own wake-up comes up, and switches back to RunUntil only when
// the next event wakes another proc; RunUntil resumes that one with a direct
// coroutine switch that bypasses the Go scheduler. Because at most one
// coroutine ever runs simulation code at a time and all ordering ties are
// broken by a monotonically increasing sequence number, every run of a
// simulation is bit-for-bit deterministic.
//
// Time is measured in integer nanoseconds (Time). Sub-nanosecond costs are
// accumulated by callers before being charged.
package vtime

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros reports d as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// DurationOf converts a floating point number of seconds into a Duration,
// rounding to the nearest nanosecond.
func DurationOf(seconds float64) Duration {
	if seconds < 0 {
		return 0
	}
	return Duration(seconds*1e9 + 0.5)
}

// Seconds reports t as a floating-point number of seconds since time zero.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports t as a floating-point number of microseconds since zero.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

type event struct {
	t    Time
	seq  int64
	fn   func()
	proc *Proc // non-nil for a proc wakeup event
}

// before is the engine's total order: time, then scheduling sequence. seq is
// unique, so two events never compare equal and the pop order is fixed by
// the pushes alone — not by the heap's shape.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events held by value: scheduling an
// event writes a slot of the backing array instead of allocating a node.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the callback and proc references
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s[c+1].before(&s[c]) {
				c++
			}
			if !s[c].before(&last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}

// Engine is a discrete-event simulation driver. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now      Time
	deadline Time // of the RunUntil in progress
	events   eventHeap
	seq      int64
	cur      *Proc
	procs    []*Proc // every proc spawned, for the deadlock report
	blocked  int     // procs waiting on a Cond
	stopped  bool
}

// NewEngine returns a fresh engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the total number of events scheduled so far. For a fixed
// configuration the count is bit-identical across runs, which makes it a
// deterministic proxy for host-side simulation work (every wakeup, sleep and
// timer is one event) — useful for comparing configurations without
// wall-clock noise.
func (e *Engine) Events() int64 { return e.seq }

// Current returns the proc presently executing simulation code, or nil when
// the engine is running an event callback (timer, NIC completion) with no
// proc scheduled. Observability layers use it to attribute work to threads.
func (e *Engine) Current() *Proc { return e.cur }

// At schedules fn to run in engine context at virtual time t. Scheduling in
// the past is an error and panics: simulations must never rewind the clock.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("vtime: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Spawn creates a new simulated process executing fn and schedules it to
// start at the current virtual time. The name is used in deadlock reports.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name}
	e.procs = append(e.procs, p)
	e.wake(p, e.now)
	// The coroutine is never stopped: a proc abandoned by Stop, a deadlock or
	// a panic elsewhere stays parked until process exit.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if v := recover(); v != nil {
				panic(&ProcPanicError{Proc: name, Now: e.now, Value: v, Stack: debug.Stack()})
			}
		}()
		fn(p)
	})
	return p
}

// wake schedules p to resume at time t.
func (e *Engine) wake(p *Proc, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, proc: p})
}

// dispatch is the engine's one event loop. RunUntil runs it with self nil
// until the run is over. A blocking proc runs it on its own stack, callbacks
// included, until its own wake-up comes up; if the run is over or another
// proc's wake-up is next, which only RunUntil's stack can switch to, it parks
// and RunUntil resumes it once it has popped its wake-up.
func (e *Engine) dispatch(self *Proc) {
	e.cur = nil
	for len(e.events) > 0 && !e.stopped && e.events[0].t <= e.deadline {
		if next := e.events[0].proc; self != nil && next != nil && next != self {
			break
		}
		ev := e.events.pop()
		e.now = ev.t
		p := ev.proc
		if p == nil {
			ev.fn()
			continue
		}
		if p.done {
			continue // stale wakeup for a finished proc
		}
		if p.blocked {
			p.blocked = false
			e.blocked--
		}
		e.cur = p
		if p == self {
			return
		}
		p.next()
		e.cur = nil
	}
	if self != nil {
		self.yield(struct{}{})
	}
}

// DeadlockError reports that the event queue drained while simulated
// processes were still blocked.
type DeadlockError struct {
	Now     Time
	Blocked []string // "name: reason" for each blocked proc
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at t=%dns, %d blocked procs: %v",
		int64(d.Now), len(d.Blocked), d.Blocked)
}

// ProcPanicError reports that a panic escaped a proc's function, or a
// callback dispatched on its stack. The other procs are abandoned.
type ProcPanicError struct {
	Proc  string
	Now   Time
	Value any
	Stack []byte // of the panicking proc
}

func (e *ProcPanicError) Error() string {
	return fmt.Sprintf("vtime: proc %s panicked at t=%dns: %v", e.Proc, int64(e.Now), e.Value)
}

// Run drives the simulation until the event queue is empty. It returns a
// *DeadlockError if processes remain blocked with no pending events, a
// *ProcPanicError if one panicked, nil otherwise. Run must be called from
// outside any simulated process.
func (e *Engine) Run() error {
	return e.RunUntil(Time(1<<62 - 1))
}

// RunUntil drives the simulation until the event queue is empty or the next
// event would occur after the deadline. Events exactly at the deadline run.
func (e *Engine) RunUntil(deadline Time) (err error) {
	defer func() {
		// iter.Pull re-raises a proc's panic in next's caller: here.
		if v := recover(); v != nil {
			pe, ok := v.(*ProcPanicError)
			if !ok {
				panic(v)
			}
			err = pe
		}
	}()
	e.deadline = deadline
	e.dispatch(nil)
	if len(e.events) > 0 && !e.stopped {
		e.now = deadline
		return nil
	}
	if e.blocked > 0 {
		names := make([]string, 0, e.blocked)
		for _, p := range e.procs {
			if p.blocked {
				names = append(names, p.name+": "+p.reason)
			}
		}
		sort.Strings(names)
		return &DeadlockError{Now: e.now, Blocked: names}
	}
	return nil
}

// Stop makes Run return after the current event completes. Pending events
// are discarded; blocked procs are abandoned (their coroutines stay parked
// until process exit, which is acceptable for short-lived simulations).
func (e *Engine) Stop() { e.stopped = true }

// Proc is a simulated process. All methods must be called from within the
// process's own coroutine (i.e. from the fn passed to Spawn), except Name.
type Proc struct {
	e       *Engine
	name    string
	label   int
	next    func() (struct{}, bool) // RunUntil's side of the coroutine
	yield   func(struct{}) bool     // the proc's side
	done    bool
	blocked bool   // waiting on a Cond
	reason  string // that Cond's, for the deadlock report
}

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// SetLabel stamps an application-defined classification on the process
// (e.g. a trace thread-track id). Zero until set.
func (p *Proc) SetLabel(l int) { p.label = l }

// Label returns the classification stamped by SetLabel.
func (p *Proc) Label() int { return p.label }

// Engine returns the engine driving this process.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep suspends the process for d of virtual time. Zero or negative d
// still yields, allowing same-time events to interleave deterministically.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.wake(p, p.e.now.Add(d))
	p.e.dispatch(p)
}

// block suspends the process until some other party wakes it via engine.wake.
func (p *Proc) block(reason string) {
	p.blocked, p.reason = true, reason
	p.e.blocked++
	p.e.dispatch(p)
}

// Cond is a broadcast condition variable in virtual time. Waiters are woken
// by Signal in FIFO order at the signalling instant. As with sync.Cond,
// callers should re-check their predicate in a loop.
type Cond struct {
	e       *Engine
	waiters []condWaiter
	reason  string
	delay   Duration
}

// condWaiter is one blocked process; pred, when set, gates its wakeups.
type condWaiter struct {
	p    *Proc
	pred func() bool
}

// SetWakeDelay makes every future Signal/Broadcast wake this cond's waiters
// at now+d instead of now. A waiter that blocks and is then woken reaches
// the post-Wait code at the same virtual instant as a zero-delay wake
// followed by Sleep(d), but costs one scheduled event instead of two — the
// PIOMan workers use it to fold their reaction delay into the wakeup.
func (c *Cond) SetWakeDelay(d Duration) {
	if d < 0 {
		d = 0
	}
	c.delay = d
}

// NewCond returns a condition bound to engine e; reason appears in deadlock
// reports for processes blocked on it.
func NewCond(e *Engine, reason string) *Cond {
	return &Cond{e: e, reason: reason}
}

// Wait blocks p until the next Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, condWaiter{p: p})
	p.block(c.reason)
}

// WaitPred blocks p until a Signal or Broadcast arriving while pred() is
// true. The predicate runs in the waker's host context before any wake is
// scheduled: a broadcast that cannot satisfy the waiter skips it entirely —
// no event, no context switch — so a thread blocked on an N-part condition
// wakes once instead of N times. This mirrors the completion counters real
// MPI implementations use to wake MPI_Wait exactly once. pred must be cheap,
// must not touch virtual time, and — as with Wait — the caller should
// re-check it in a loop. Its state may only change through actions that
// are themselves followed by a Signal or Broadcast, else the waiter is
// never woken.
func (c *Cond) WaitPred(p *Proc, pred func() bool) {
	c.waiters = append(c.waiters, condWaiter{p: p, pred: pred})
	p.block(c.reason)
}

// Broadcast wakes every current waiter at the present virtual time, except
// predicate waiters whose predicate is false — those stay blocked.
func (c *Cond) Broadcast() {
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.pred != nil && !w.pred() {
			kept = append(kept, w)
			continue
		}
		c.e.wake(w.p, c.e.now.Add(c.delay))
	}
	// Zero the vacated tail so woken waiters' closures are collectable.
	for i := len(kept); i < len(c.waiters); i++ {
		c.waiters[i] = condWaiter{}
	}
	c.waiters = kept
}

// Signal wakes the longest-waiting process, if any. Predicate waiters are
// woken regardless of their predicate's state (they re-check and re-wait).
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	// Shift down and zero the vacated slot: the backing array is reused and
	// the woken waiter's predicate closure becomes collectable.
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = condWaiter{}
	c.waiters = c.waiters[:n]
	c.e.wake(w.p, c.e.now.Add(c.delay))
}

// Waiters reports how many processes are blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Sema is a counting semaphore in virtual time; Release may be called from
// engine context (event callbacks), Acquire only from proc context. It is
// the analogue of the blocking primitives PIOMan substitutes for busy-wait
// loops (§3.3.2 of the paper).
type Sema struct {
	n    int
	cond *Cond
}

// NewSema returns a semaphore with initial count n.
func NewSema(e *Engine, reason string, n int) *Sema {
	return &Sema{n: n, cond: NewCond(e, reason)}
}

// Acquire decrements the semaphore, blocking p while the count is zero.
func (s *Sema) Acquire(p *Proc) {
	for s.n == 0 {
		s.cond.Wait(p)
	}
	s.n--
}

// TryAcquire decrements without blocking; reports whether it succeeded.
func (s *Sema) TryAcquire() bool {
	if s.n == 0 {
		return false
	}
	s.n--
	return true
}

// Release increments the semaphore and wakes one waiter.
func (s *Sema) Release() {
	s.n++
	s.cond.Signal()
}

// Value returns the current count.
func (s *Sema) Value() int { return s.n }
