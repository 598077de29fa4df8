package nmad

import (
	"fmt"
	"testing"

	"repro/internal/vtime"
)

// Requests and packet wrappers are recycled: a request by its owner's
// Release (the MPICH2 module releases inside its completion callback), a
// wrapper by the library once the NIC drain and the receiver's Poll are both
// through with it. These tests play the owner and check that nothing is
// observed after its release — a stale pointer in a queue, a wrapper freed
// with an event still pending or a request completed twice would deliver a
// payload into the wrong buffer, complete the wrong message or trip the
// library's own released-request panics. They run under -race in CI.

// stressMsg is one message of a stress stream.
type stressMsg struct {
	src, idx, size int
	tag            uint64
}

// fill writes the message's pattern: every byte depends on sender, message
// index and offset, so a payload landing in the wrong buffer cannot pass.
func (m stressMsg) fill(b []byte) {
	for i := range b {
		b[i] = byte(m.src*131 + m.idx*31 + i*7 + i>>8)
	}
}

func (m stressMsg) check(b []byte) error {
	if len(b) != m.size {
		return fmt.Errorf("message %d from %d: %d bytes, want %d", m.idx, m.src, len(b), m.size)
	}
	want := make([]byte, m.size)
	m.fill(want)
	for i := range b {
		if b[i] != want[i] {
			return fmt.Errorf("message %d from %d: byte %d is %#x, want %#x", m.idx, m.src, i, b[i], want[i])
		}
	}
	return nil
}

// stressOwner issues one rank's requests and releases each inside its
// completion callback, as core.Direct does.
type stressOwner struct {
	t        *testing.T
	c        *Core
	pending  int
	distinct map[*Request]bool
	sendDone map[uint64][]int // per tag, message indices in send-completion order
}

func newStressOwner(t *testing.T, c *Core) *stressOwner {
	return &stressOwner{t: t, c: c, distinct: make(map[*Request]bool), sendDone: make(map[uint64][]int)}
}

func (o *stressOwner) send(g *Gate, m stressMsg) {
	data := make([]byte, m.size)
	m.fill(data)
	r := o.c.ISend(g, m.tag, data)
	o.distinct[r] = true
	o.pending++
	r.User = m
	r.SetOnComplete(func(r *Request) {
		if got := r.User.(stressMsg); got != m {
			o.t.Errorf("send completion carries message %+v, want %+v", got, m)
		}
		o.sendDone[m.tag] = append(o.sendDone[m.tag], m.idx)
		o.pending--
		r.Release()
	})
}

func (o *stressOwner) recv(g *Gate, m stressMsg) {
	buf := make([]byte, m.size)
	r := o.c.IRecv(g, m.tag, ^uint64(0), buf)
	o.distinct[r] = true
	o.pending++
	r.SetOnComplete(func(r *Request) {
		st := r.Status()
		if st.Peer != m.src || st.Tag != m.tag || st.Truncated {
			o.t.Errorf("message %d from %d completed with status %+v", m.idx, m.src, st)
		}
		if err := m.check(buf[:st.Len]); err != nil {
			o.t.Error(err)
		}
		o.pending--
		r.Release()
	})
}

func (o *stressOwner) idle() bool { return o.pending == 0 }

// TestRecycledRequestsAndWrappersStress streams messages from two senders
// to one receiver through every path that recycles: same-tag
// eager-after-rendezvous streams (the finishSend FIFO case), bursts that the
// busy NIC aggregates into multi-entry wrappers, arrivals before their
// receive is posted, and ANY_SOURCE-style probe-then-post receives.
func TestRecycledRequestsAndWrappersStress(t *testing.T) {
	const (
		rounds   = 6
		perRound = 24
		streamA  = uint64(5) // pre-posted receives
		streamB  = uint64(9) // receives posted late: unexpected, then probed
	)
	// Sizes cycle through rendezvous and eager so small packs queue behind
	// large ones on one (gate, tag) stream.
	sizes := []int{48 << 10, 96, 1, 700, 40 << 10, 33, 2048, 5}
	msg := func(src, idx int, tag uint64) stressMsg {
		return stressMsg{src: src, idx: idx, size: sizes[(idx+src)%len(sizes)], tag: tag}
	}

	ev := newEnv(t, 3, StratAggreg)
	owners := make([]*stressOwner, 3)
	for i, c := range ev.cores {
		owners[i] = newStressOwner(t, c)
	}
	const recvRank = 1
	ev.run(t, func(rank int, p *vtime.Proc) {
		o, mgr := owners[rank], ev.mgrs[rank]
		if rank != recvRank {
			g := o.c.Gate(recvRank)
			for round := 0; round < rounds; round++ {
				// Back-to-back posts: the first submission keeps the NIC
				// busy, the strategy aggregates what queues behind it.
				for k := 0; k < perRound; k++ {
					idx := round*perRound + k
					o.send(g, msg(rank, idx, streamA))
					o.send(g, msg(rank, idx, streamB))
				}
				mgr.WaitUntil(p, o.idle)
			}
			return
		}
		for round := 0; round < rounds; round++ {
			for k := 0; k < perRound; k++ {
				idx := round*perRound + k
				for _, src := range []int{0, 2} {
					o.recv(o.c.Gate(src), msg(src, idx, streamA))
				}
			}
			// Stream B sits in the unexpected store until probed, the way
			// the MPICH2 module handles ANY_SOURCE: find a buffered message,
			// then post the receive on the gate it came in on.
			next := map[int]int{0: round * perRound, 2: round * perRound}
			for posted := 0; posted < 2*perRound; {
				g, ok := o.c.IProbe(streamB, ^uint64(0))
				if !ok {
					if p.Now() > vtime.Time(vtime.Second) {
						t.Errorf("round %d: %d stream-B messages never arrived", round, 2*perRound-posted)
						return
					}
					if mgr.Progress(p) == 0 {
						p.Sleep(200)
					}
					continue
				}
				src := g.PeerRank
				o.recv(g, msg(src, next[src], streamB))
				next[src]++
				posted++
			}
			mgr.WaitUntil(p, o.idle)
		}
	})

	total := rounds * perRound * 2
	for _, rank := range []int{0, 2} {
		o := owners[rank]
		// Per tag, sends complete in submission order — eager packs wait
		// for the rendezvous packs posted before them.
		for _, tag := range []uint64{streamA, streamB} {
			done := o.sendDone[tag]
			if len(done) != total/2 {
				t.Fatalf("rank %d tag %d: %d sends completed, want %d", rank, tag, len(done), total/2)
			}
			for i, idx := range done {
				if idx != i {
					t.Fatalf("rank %d tag %d: completion %d is message %d: FIFO order broken", rank, tag, i, idx)
				}
			}
		}
		if len(o.distinct) >= total {
			t.Errorf("rank %d used %d distinct requests for %d sends: nothing was recycled", rank, len(o.distinct), total)
		}
		if o.c.Aggregated == 0 {
			t.Errorf("rank %d aggregated no entries: the busy-NIC wrapper path did not run", rank)
		}
		if o.c.opt.Pools.pws.Len() == 0 {
			t.Errorf("rank %d got no wrapper back", rank)
		}
	}
	r := owners[recvRank]
	if r.c.UnexpectedHit == 0 {
		t.Error("no receive was served from the unexpected store")
	}
	if r.c.PostedRecvs() != 0 || r.c.UnexpectedCount() != 0 {
		t.Errorf("receiver queues not drained: %d posted, %d unexpected", r.c.PostedRecvs(), r.c.UnexpectedCount())
	}
	if len(r.distinct) >= 2*total {
		t.Errorf("receiver used %d distinct requests for %d receives: nothing was recycled", len(r.distinct), 2*total)
	}
	// The vacated tail slots of the splice-deleted queues hold nothing.
	for _, q := range r.c.posted[:cap(r.c.posted)] {
		if q != nil {
			t.Fatal("posted queue retains a request past its removal")
		}
	}
	for _, u := range r.c.unexpected[:cap(r.c.unexpected)] {
		if u != nil {
			t.Fatal("unexpected store retains a message past its delivery")
		}
	}
}

// TestReleaseGuards: releasing an in-flight request, releasing twice and
// completing a released request are bugs the library reports.
func TestReleaseGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	ev := newEnv(t, 2, StratDefault)
	c := ev.cores[0]
	r := c.IRecv(c.Gate(1), 1, ^uint64(0), nil)
	mustPanic("Release of an in-flight request", r.Release)
	r.complete()
	r.Release()
	mustPanic("second Release", r.Release)
	mustPanic("completion of a released request", r.complete)
	if again := c.IRecv(c.Gate(1), 2, ^uint64(0), nil); again != r {
		t.Error("a released request was not reused")
	}
}

// TestFifoMatchesSliceQueue: the head-indexed queue pops what a plain
// `q = q[1:]` queue pops, through rewinds and compactions, and never keeps a
// popped element reachable from its backing array.
func TestFifoMatchesSliceQueue(t *testing.T) {
	var f fifo[*int]
	var ref []*int
	next := 0
	step := func(push bool) {
		if push {
			v := new(int)
			*v = next
			next++
			f.push(v)
			ref = append(ref, v)
			return
		}
		if got, want := f.front(), ref[0]; got != want {
			t.Fatalf("front is %d, want %d", *got, *want)
		}
		if got, want := f.pop(), ref[0]; got != want {
			t.Fatalf("popped %d, want %d", *got, *want)
		}
		ref = ref[1:]
	}
	// Grow deep, drain most of it (forcing compactions), refill, drain fully.
	for _, phase := range []struct{ pushes, pops int }{{200, 150}, {10, 40}, {300, 320}} {
		for i := 0; i < phase.pushes; i++ {
			step(true)
		}
		for i := 0; i < phase.pops; i++ {
			step(false)
		}
		if f.len() != len(ref) {
			t.Fatalf("len %d, want %d", f.len(), len(ref))
		}
		live := make(map[*int]bool, len(ref))
		for _, v := range ref {
			live[v] = true
		}
		for _, v := range f.q[:cap(f.q)] {
			if v != nil && !live[v] {
				t.Fatalf("backing array still references popped element %d", *v)
			}
		}
	}
	if f.len() != 0 || f.head != 0 {
		t.Fatalf("drained queue did not rewind: len %d head %d", f.len(), f.head)
	}
}
