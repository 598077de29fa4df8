package trace

import (
	"sort"
	"testing"

	"repro/internal/vtime"
)

// TestNilRecorderNoops: the disabled state (nil recorder) is safe to drive
// through every method — this is what makes unconditional instrumentation
// sites legal.
func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Rank() != -1 {
		t.Fatalf("nil recorder rank = %d, want -1", r.Rank())
	}
	if r.Now() != 0 {
		t.Fatal("nil recorder Now != 0")
	}
	r.Begin("c", "n")
	r.End()
	r.Span("c", "n", Int64("k", 1))()
	r.Instant("c", "n")
	if id := r.AsyncBegin("c", "n"); id != 0 {
		t.Fatalf("nil AsyncBegin id = %d, want 0", id)
	}
	r.AsyncEnd("c", "n", 0)
	r.Complete("c", "n", TidRounds, 0)
}

// TestNilRegistryCounters: a nil registry hands out live standalone
// counters, so subsystems increment without caring whether metrics were
// requested.
func TestNilRegistryCounters(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	if c == nil {
		t.Fatal("nil registry returned nil counter")
	}
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("standalone counter = %d, want 3", c.Value())
	}
}

// TestRegistryInterning: the same name returns the same counter; Snapshot
// is sorted by name.
func TestRegistryInterning(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("b.second")
	if reg.Counter("b.second") != a {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(5)
	reg.Counter("a.first").Inc()
	snap := reg.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name }) {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	if snap[0].Name != "a.first" || snap[0].Value != 1 || snap[1].Value != 5 {
		t.Fatalf("snapshot content wrong: %+v", snap)
	}
}

// TestMetricsTotals: Totals sums the same counter name across rank
// registries and the run registry.
func TestMetricsTotals(t *testing.T) {
	m := NewMetrics(3)
	for r := 0; r < 3; r++ {
		m.Rank(r).Counter(CtrAppPolls).Add(int64(r + 1))
	}
	m.Run.Counter("rail.ib.bytes").Add(100)
	if got := m.Total(CtrAppPolls); got != 6 {
		t.Fatalf("Total(%s) = %d, want 6", CtrAppPolls, got)
	}
	if got := m.Total("rail.ib.bytes"); got != 100 {
		t.Fatalf("run-level total = %d, want 100", got)
	}
	if got := m.Total("no.such"); got != 0 {
		t.Fatalf("missing counter total = %d, want 0", got)
	}
}

// TestBindOnce: a trace binds to exactly one run.
func TestBindOnce(t *testing.T) {
	tr := New()
	e := vtime.NewEngine()
	if err := tr.Bind(e, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Bind(vtime.NewEngine(), 2); err == nil {
		t.Fatal("second Bind succeeded; trace reuse must be rejected")
	}
}

// TestTidAttribution: events record the executing proc's label as their
// thread track, and TidEngine when recorded from engine context.
func TestTidAttribution(t *testing.T) {
	tr := New()
	e := vtime.NewEngine()
	if err := tr.Bind(e, 1); err != nil {
		t.Fatal(err)
	}
	rec := tr.Recorder(0)
	p := e.Spawn("app", func(p *vtime.Proc) {
		rec.Instant("t", "from-app")
		p.Sleep(10)
	})
	p.SetLabel(TidApp)
	bg := e.Spawn("bg", func(p *vtime.Proc) {
		rec.Instant("t", "from-bg")
	})
	bg.SetLabel(TidPioman)
	e.After(5, func() { rec.Instant("t", "from-engine") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"from-app": TidApp, "from-bg": TidPioman, "from-engine": TidEngine}
	seen := 0
	for _, ev := range tr.Events() {
		w, ok := want[ev.Name]
		if !ok {
			continue
		}
		seen++
		if ev.Tid != w {
			t.Fatalf("%s recorded on tid %d, want %d", ev.Name, ev.Tid, w)
		}
	}
	if seen != len(want) {
		t.Fatalf("saw %d of %d attribution events", seen, len(want))
	}
}

// TestCompleteRewindsTimestamp: a Complete slice carries its start time and
// the elapsed duration, not the recording instant.
func TestCompleteRewindsTimestamp(t *testing.T) {
	tr := New()
	e := vtime.NewEngine()
	if err := tr.Bind(e, 1); err != nil {
		t.Fatal(err)
	}
	rec := tr.Recorder(0)
	e.Spawn("p", func(p *vtime.Proc) {
		start := rec.Now()
		p.Sleep(250)
		rec.Complete("round", "x", TidRounds, start)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	if evs[0].Ts != 0 || evs[0].Dur != 250 {
		t.Fatalf("slice ts=%d dur=%d, want ts=0 dur=250", evs[0].Ts, evs[0].Dur)
	}
}

// TestNilRecorderZeroAlloc guards the promise of the package comment: with
// tracing off an instrumented call site costs a nil check and nothing else.
// The variadic args must stay on the caller's stack — if a recording method
// ever lets them escape again, every site in mpi/ch3/nmad/nemesis/pioman
// pays a heap allocation per call with tracing off.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	n := int64(7)
	if avg := testing.AllocsPerRun(100, func() {
		r.Instant("nmad", "pw-submit", Int64("dst", n), Int64("bytes", n))
		r.Span("mpi", "Send", Int64("dst", n), Int64("bytes", n))()
	}); avg != 0 {
		t.Fatalf("disabled Instant + Span allocate %.2f objects, want 0", avg)
	}
}
