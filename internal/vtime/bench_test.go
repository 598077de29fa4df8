package vtime

import "testing"

// BenchmarkEventThroughput measures raw event dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var schedule func()
	n := 0
	schedule = func() {
		n++
		if n < b.N {
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcContextSwitch measures one simulated process sleep when the
// sleeper's own wake-up is the next event: it pops it on its own stack and
// Sleep returns without any coroutine switch (the self-wake path).
func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff measures a sleep whose wake-up is a real hand-off: two
// procs sleep in lockstep, so the next event is always the other's wake-up
// and every one costs two coroutine switches, sleeper → RunUntil → the other.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N; i += 2 {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCallbackOnProcStack measures a sleep with one timer due inside it:
// the sleeper dispatches the callback on its own stack, then its own wake-up.
// Two events per iteration, no switch.
func BenchmarkCallbackOnProcStack(b *testing.B) {
	e := NewEngine()
	noop := func() {}
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.After(1, noop)
			p.Sleep(2)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSemaPingPong measures a hand-off ping-pong between two procs
// through semaphores (which, unlike conds, retain early releases): per
// iteration two Cond wake-ups, each a real switch through RunUntil.
func BenchmarkSemaPingPong(b *testing.B) {
	e := NewEngine()
	s1 := NewSema(e, "s1", 0)
	s2 := NewSema(e, "s2", 0)
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s2.Release()
			s1.Acquire(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s2.Acquire(p)
			s1.Release()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
