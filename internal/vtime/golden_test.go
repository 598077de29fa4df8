package vtime

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_events.txt from this run")

// goldenSchedule drives one engine through every hand-off kind the package
// has — timers, zero and non-zero sleeps, Cond.Wait/WaitPred/Signal/Broadcast
// with and without a wake delay, a Sema, Spawn from a proc and from a
// callback, a RunUntil deadline in the middle, and a proc that finishes with
// a stale wake-up still queued — and logs (virtual time, events scheduled so
// far, actor, Current()) at every step.
func goldenSchedule(t *testing.T) []string {
	e := NewEngine()
	var log []string
	rec := func(actor string) {
		cur := "-"
		if p := e.Current(); p != nil {
			cur = fmt.Sprintf("%s/%d", p.Name(), p.Label())
		}
		log = append(log, fmt.Sprintf("t=%d seq=%d %s cur=%s", e.Now(), e.Events(), actor, cur))
	}

	c := NewCond(e, "golden cond")
	delayed := NewCond(e, "golden delayed cond")
	delayed.SetWakeDelay(3)
	sem := NewSema(e, "golden sema", 1)
	ready := 0

	e.At(5, func() { rec("timer@5") })
	e.At(5, func() {
		rec("timer@5 spawns d")
		e.Spawn("d", func(p *Proc) {
			p.SetLabel(4)
			rec("d start")
			p.Sleep(0)
			rec("d after sleep 0")
			sem.Acquire(p)
			rec("d has sema")
			p.Sleep(7)
			sem.Release()
			rec("d released sema")
		}).SetLabel(40)
	})
	e.After(12, func() { rec("timer@12 signals c"); c.Signal() })
	e.At(20, func() { rec("timer@20 broadcasts, ready=0"); delayed.Broadcast() })
	e.At(30, func() { ready = 1; rec("timer@30 broadcasts, ready=1"); delayed.Broadcast() })
	e.At(30, func() { rec("timer@30 broadcasts c"); c.Broadcast() })
	e.At(100, func() { rec("timer@100 signals delayed"); delayed.Signal() })

	e.Spawn("a", func(p *Proc) {
		p.SetLabel(1)
		rec("a start")
		p.Sleep(0)
		rec("a after sleep 0")
		p.Sleep(10)
		rec("a after sleep 10")
		c.Wait(p)
		rec("a signalled")
		e.After(1, func() { rec("a's timer") })
		p.Sleep(2)
		rec("a after sleep 2")
		e.Spawn("child", func(q *Proc) {
			q.SetLabel(5)
			rec("child start")
			sem.Acquire(q)
			rec("child has sema")
			q.Sleep(4)
			sem.Release()
			rec("child released sema")
			c.Wait(q)
			rec("child broadcast")
		})
		rec("a spawned child")
		sem.Acquire(p)
		rec("a has sema")
		p.Sleep(0)
		sem.Release()
		rec("a released sema")
		c.Wait(p)
		rec("a broadcast")
		e.wake(p, e.Now().Add(50)) // still queued when a finishes
		rec("a done")
	})
	e.Spawn("b", func(p *Proc) {
		p.SetLabel(2)
		rec("b start")
		for ready == 0 {
			delayed.WaitPred(p, func() bool { return ready != 0 })
			rec("b woke")
		}
		p.Sleep(60)
		rec("b after sleep 60")
		delayed.Wait(p)
		rec("b signalled")
	})
	e.Spawn("s", func(p *Proc) {
		p.SetLabel(3)
		for i := 0; i < 4; i++ {
			p.Sleep(9)
			rec(fmt.Sprintf("s tick %d", i))
		}
	})

	for _, deadline := range []Time{11, 33} {
		if err := e.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
		rec(fmt.Sprintf("RunUntil(%d) returned", deadline))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec("Run returned")
	return log
}

// TestGoldenSchedule pins "same schedule, fewer switches": the log was
// generated with the goroutine-and-channel engine this one replaced and must
// match line for line. Regenerate with -update only when the engine's
// observable order is meant to change.
func TestGoldenSchedule(t *testing.T) {
	const path = "testdata/golden_events.txt"
	got := strings.Join(goldenSchedule(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, golden has %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("got %d lines, golden has %d", len(gl), len(wl))
	}
}
