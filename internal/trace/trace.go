// Package trace is the deterministic virtual-time observability layer of
// the progress stack: a per-rank event recorder (spans, instants, async
// operations, completed slices) stamped with vtime.Time plus a monotone
// sequence number, and an MPI_T-pvar-style registry of named counters that
// subsumes the scattered ad-hoc statistics of the subsystems.
//
// Everything here is host-side bookkeeping: recording an event never
// charges virtual time, so a traced run and an untraced run produce
// bit-identical simulation results (asserted by TestTraceNeutrality).
// Determinism follows from the engine's: exactly one proc runs at a time
// and ties break on the engine's sequence numbers, so two identical runs
// append identical event streams — the Chrome export of both is
// byte-identical.
//
// Thread attribution does not rely on the subsystems declaring who they
// are: the recorder asks the engine which Proc is executing and reads the
// label stamped on it at spawn time (TidApp for application threads,
// TidPioman for the background progress thread). Work performed in engine
// context — event callbacks such as NIC completions — lands on TidEngine.
// This matters because the background thread can sleep mid-sweep (polling
// charges costs) while the application thread of the same rank runs; a
// mutable "current thread" variable would misattribute those interleavings.
package trace

import (
	"fmt"

	"repro/internal/vtime"
)

// Thread-track ids within one rank's process, stamped on vtime.Proc labels.
const (
	// TidApp is the application thread (the rank's MPI program).
	TidApp = 0
	// TidPioman is PIOMan progress worker 0 (track name "pioman-0").
	// Additional workers get the tracks after TidRounds — see TidPiomanN.
	TidPioman = 1
	// TidEngine collects work performed in engine context (event
	// callbacks: NIC completions, visibility timers) with no proc running.
	TidEngine = 2
	// TidRounds is a synthetic per-rank track for collective round slices:
	// rounds are recorded as completed (ph X) events whose start lies in
	// the past, which would corrupt the B/E nesting of the real threads.
	TidRounds = 3
)

// tidNames maps the fixed track ids to the thread names the Chrome export
// declares; worker tracks beyond these derive their names in TidName.
var tidNames = [...]string{"app", "pioman-0", "engine", "rounds"}

// TidPiomanN returns the thread-track id of PIOMan progress worker i:
// worker 0 keeps the classic TidPioman slot, workers 1..N-1 take the ids
// after the fixed tracks so existing attributions never shift.
func TidPiomanN(i int) int {
	if i == 0 {
		return TidPioman
	}
	return TidRounds + i
}

// TidName returns the display name of a thread-track id, including the
// dynamic per-worker tracks ("pioman-1", "pioman-2", ...).
func TidName(tid int) string {
	if tid >= 0 && tid < len(tidNames) {
		return tidNames[tid]
	}
	return fmt.Sprintf("pioman-%d", tid-TidRounds)
}

// Arg is one ordered key/value event argument. Ordered slices (never maps)
// keep the export byte-deterministic.
type Arg struct {
	Key string
	Str string
	Int int64
	// IsStr selects which value field is live.
	IsStr bool
}

// Str builds a string-valued argument.
func Str(k, v string) Arg { return Arg{Key: k, Str: v, IsStr: true} }

// Int64 builds an integer-valued argument.
func Int64(k string, v int64) Arg { return Arg{Key: k, Int: v} }

// Event is one recorded trace event, Chrome-trace-shaped: Ph is the event
// phase ('B'/'E' nested spans, 'i' instants, 'b'/'e' async operations, 'X'
// completed slices with an explicit duration).
type Event struct {
	Seq  int64
	Rank int
	Tid  int
	Ph   byte
	Cat  string
	Name string
	Ts   vtime.Time
	Dur  vtime.Duration // ph 'X' only
	ID   int64          // ph 'b'/'e' only
	Args []Arg
}

// Trace collects one run's events. Create with New, hand to mpi.Config, and
// export with WriteChrome / Summarize after the run. A Trace is bound to
// exactly one run; reusing it is an error (the second Bind fails).
type Trace struct {
	e       *vtime.Engine
	np      int
	seq     int64
	nextID  int64
	events  []Event
	recs    []*Recorder
	metrics *Metrics
}

// New returns an empty, unbound trace.
func New() *Trace { return &Trace{} }

// Bind attaches the trace to a run's engine and rank count. mpi.Run calls
// it; a second call (trace reuse across runs) is rejected so timestamps
// from different engines never interleave in one event stream.
func (t *Trace) Bind(e *vtime.Engine, np int) error {
	if t.e != nil {
		return fmt.Errorf("trace: already bound to a run (np=%d)", t.np)
	}
	t.e = e
	t.np = np
	t.recs = make([]*Recorder, np)
	for r := range t.recs {
		t.recs[r] = &Recorder{t: t, rank: r}
	}
	return nil
}

// AttachMetrics links the run's counter registries so Summarize can fold
// counter totals into the trace summary.
func (t *Trace) AttachMetrics(m *Metrics) { t.metrics = m }

// Metrics returns the attached registries (nil before the run).
func (t *Trace) Metrics() *Metrics { return t.metrics }

// NP returns the bound rank count (0 before Bind).
func (t *Trace) NP() int { return t.np }

// Recorder returns rank's recorder. Panics if unbound or out of range —
// recorders only exist for the run the trace is bound to.
func (t *Trace) Recorder(rank int) *Recorder {
	if t.e == nil {
		panic("trace: Recorder before Bind")
	}
	return t.recs[rank]
}

// Events returns the recorded stream in emission order.
func (t *Trace) Events() []Event { return t.events }

// Recorder emits one rank's events. A nil *Recorder is the disabled state:
// every method no-ops, so subsystems hold one without checking, and the
// span helper returns a shared empty closure — tracing off costs a nil
// check per site and nothing else.
type Recorder struct {
	t    *Trace
	rank int
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Rank returns the rank this recorder records for (-1 when disabled).
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// Now returns the bound engine's virtual time (0 when disabled).
func (r *Recorder) Now() vtime.Time {
	if r == nil {
		return 0
	}
	return r.t.e.Now()
}

// tid derives the thread track from the proc the engine is running: the
// label stamped at spawn time, or TidEngine when an event callback (no
// proc) is executing.
func (r *Recorder) tid() int {
	cur := r.t.e.Current()
	if cur == nil {
		return TidEngine
	}
	return cur.Label()
}

// emit stamps and appends ev with a private copy of args. The copy is what
// keeps the variadic slices of every instrumented call site on the caller's
// stack: args never escapes, so a site costs nothing when r is nil.
func (r *Recorder) emit(ev Event, args []Arg) {
	r.t.seq++
	ev.Seq = r.t.seq
	ev.Rank = r.rank
	ev.Ts = r.t.e.Now()
	ev.Args = append([]Arg(nil), args...)
	r.t.events = append(r.t.events, ev)
}

// Begin opens a nested span on the current thread track. Every Begin must
// be matched by an End on the same proc (spans follow the proc's call
// stack, so LIFO nesting is structural).
func (r *Recorder) Begin(cat, name string, args ...Arg) {
	if r == nil {
		return
	}
	r.emit(Event{Tid: r.tid(), Ph: 'B', Cat: cat, Name: name}, args)
}

// End closes the innermost open span on the current thread track.
func (r *Recorder) End() {
	if r == nil {
		return
	}
	r.emit(Event{Tid: r.tid(), Ph: 'E'}, nil)
}

var noopEnd = func() {}

// Span opens a span and returns the closure that closes it — the one-line
// instrumentation form: defer rec.Span("mpi", "Barrier")().
func (r *Recorder) Span(cat, name string, args ...Arg) func() {
	if r == nil {
		return noopEnd
	}
	r.Begin(cat, name, args...)
	return r.End
}

// Instant records a zero-duration event on the current thread track.
func (r *Recorder) Instant(cat, name string, args ...Arg) {
	if r == nil {
		return
	}
	r.emit(Event{Tid: r.tid(), Ph: 'i', Cat: cat, Name: name}, args)
}

// AsyncBegin opens an async operation and returns its id (0 when
// disabled). Async events render as their own track per (cat, id), which
// is how in-flight nonblocking collectives appear alongside the threads
// that advance them.
func (r *Recorder) AsyncBegin(cat, name string, args ...Arg) int64 {
	if r == nil {
		return 0
	}
	r.t.nextID++
	id := r.t.nextID
	r.emit(Event{Tid: r.tid(), Ph: 'b', Cat: cat, Name: name, ID: id}, args)
	return id
}

// AsyncEnd closes the async operation id (pass the matching cat and name).
func (r *Recorder) AsyncEnd(cat, name string, id int64, args ...Arg) {
	if r == nil {
		return
	}
	r.emit(Event{Tid: r.tid(), Ph: 'e', Cat: cat, Name: name, ID: id}, args)
}

// Complete records a finished slice [start, now] on an explicit thread
// track — the collective round events land on TidRounds with it, since
// their start predates their recording point.
func (r *Recorder) Complete(cat, name string, tid int, start vtime.Time, args ...Arg) {
	if r == nil {
		return
	}
	now := r.t.e.Now()
	r.emit(Event{Tid: tid, Ph: 'X', Cat: cat, Name: name,
		Dur: vtime.Duration(now - start)}, args)
	// emit stamped Ts=now; rewrite to the slice's start.
	r.t.events[len(r.t.events)-1].Ts = start
}
