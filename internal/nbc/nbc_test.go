package nbc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/coll"
	"repro/internal/marcel"
	"repro/internal/pioman"
	"repro/internal/vtime"
)

// The fake transport is an n-rank loopback network: sends complete at
// submission, deliveries land after a fixed latency in engine context, and
// matching is per-(src, tag) FIFO — the invariant the real CH3 layer
// provides. It lets the engine's round sequencing be tested without the full
// simulator stack.

type fakeReq struct {
	done bool
	cbs  []func()
	src  int
	tag  int32
	buf  []byte
}

func (r *fakeReq) Done() bool { return r.done }
func (r *fakeReq) AddCallback(f func()) {
	if r.done {
		f()
		return
	}
	r.cbs = append(r.cbs, f)
}
func (r *fakeReq) complete() {
	r.done = true
	for _, f := range r.cbs {
		f()
	}
	r.cbs = nil
}

type fakeMsg struct {
	src  int
	tag  int32
	data []byte
}

type fakeSide struct {
	net    *fakeNet
	rank   int
	mgr    *pioman.Manager
	eng    *Engine
	posted []*fakeReq
	unexp  []fakeMsg
}

type fakeNet struct {
	e     *vtime.Engine
	lat   vtime.Duration
	sides []*fakeSide
}

func newFakeNet(e *vtime.Engine, n int, lat vtime.Duration, pio bool) *fakeNet {
	net := &fakeNet{e: e, lat: lat}
	for r := 0; r < n; r++ {
		node := marcel.NewNode(e, fmt.Sprintf("n%d", r), 4)
		side := &fakeSide{net: net, rank: r}
		side.mgr = pioman.New(e, node, fmt.Sprintf("p%d", r), pioman.Config{Enabled: pio})
		side.eng = NewEngine(side.mgr, side)
		net.sides = append(net.sides, side)
	}
	return net
}

func (s *fakeSide) Isend(proc *vtime.Proc, dst int, tag int32, data []byte, rail int) Req {
	cp := make([]byte, len(data))
	copy(cp, data)
	peer := s.net.sides[dst]
	src := s.rank
	s.net.e.After(s.net.lat, func() {
		peer.deliver(src, tag, cp)
		peer.mgr.Notify()
	})
	return &fakeReq{done: true}
}

func (s *fakeSide) Irecv(proc *vtime.Proc, src int, tag int32, buf []byte) Req {
	r := &fakeReq{src: src, tag: tag, buf: buf}
	for i, m := range s.unexp {
		if m.src == src && m.tag == tag {
			s.unexp = append(s.unexp[:i], s.unexp[i+1:]...)
			copy(buf, m.data)
			r.complete()
			return r
		}
	}
	s.posted = append(s.posted, r)
	return r
}

func (s *fakeSide) deliver(src int, tag int32, data []byte) {
	for i, r := range s.posted {
		if r.src == src && r.tag == tag {
			s.posted = append(s.posted[:i], s.posted[i+1:]...)
			copy(r.buf, data)
			r.complete()
			return
		}
	}
	s.unexp = append(s.unexp, fakeMsg{src: src, tag: tag, data: data})
}

// runOps starts build(rank)'s schedule on every rank and waits for all.
// Shutdown waits for every engine, not just rank 0's: an asymmetric
// schedule (e.g. a vector collective whose receives are all elided) can
// complete rank 0 at Start while other ranks still need progress.
func runOps(t *testing.T, n int, pio bool, build func(rank int) *coll.Schedule) *fakeNet {
	t.Helper()
	e := vtime.NewEngine()
	net := newFakeNet(e, n, 500*vtime.Nanosecond, pio)
	for r := 0; r < n; r++ {
		r := r
		e.Spawn(fmt.Sprintf("app%d", r), func(p *vtime.Proc) {
			side := net.sides[r]
			op := side.eng.Start(p, build(r))
			side.mgr.WaitUntil(p, op.Done)
			net.sides[0].mgr.Notify()
			if r == 0 {
				side.mgr.WaitUntil(p, func() bool {
					for _, s := range net.sides {
						if s.eng.Completed() < 1 {
							return false
						}
					}
					return true
				})
				for _, s := range net.sides {
					s.mgr.Stop()
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestEngineEmptySchedule(t *testing.T) {
	e := vtime.NewEngine()
	net := newFakeNet(e, 1, 0, false)
	e.Spawn("app", func(p *vtime.Proc) {
		op := net.sides[0].eng.Start(p, &coll.Schedule{})
		if !op.Done() {
			t.Error("empty schedule must complete at Start")
		}
		net.sides[0].mgr.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineBarrierAllNP(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		for _, pio := range []bool{false, true} {
			runOps(t, n, pio, func(rank int) *coll.Schedule {
				return coll.BuildBarrier(rank, n)
			})
		}
	}
}

func TestEngineAllreduceMatchesSerial(t *testing.T) {
	const n, m = 5, 8
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, m)
		for i := range vecs[r] {
			vecs[r][i] = float64(r + i*3)
		}
	}
	runOps(t, n, true, func(rank int) *coll.Schedule {
		return coll.BuildAllreduce(rank, n, vecs[rank], coll.OpSum)
	})
	for i := 0; i < m; i++ {
		want := 0.0
		for r := 0; r < n; r++ {
			want += float64(r + i*3)
		}
		for r := 0; r < n; r++ {
			if math.Abs(vecs[r][i]-want) > 1e-9 {
				t.Fatalf("rank %d elem %d = %g, want %g", r, i, vecs[r][i], want)
			}
		}
	}
}

// TestEngineRoundsDeferredToProgress: multi-round schedules must advance via
// deferred progress tasks, not inline on the completion callback.
func TestEngineRoundsDeferredToProgress(t *testing.T) {
	net := runOps(t, 8, false, func(rank int) *coll.Schedule {
		return coll.BuildBarrier(rank, 8) // 3 rounds
	})
	for r, s := range net.sides {
		if s.eng.Completed() != 1 {
			t.Fatalf("rank %d: Completed = %d", r, s.eng.Completed())
		}
		if s.eng.BGRounds() == 0 {
			t.Fatalf("rank %d: no rounds issued from progress context", r)
		}
	}
}

// TestEngineSynchronousRounds: when every transfer is already satisfied at
// issue time (sends complete at submission, receives matched from the
// unexpected store), rounds collapse inline and the op completes without a
// single deferred task.
func TestEngineSynchronousRounds(t *testing.T) {
	e := vtime.NewEngine()
	net := newFakeNet(e, 2, 0, false)
	e.Spawn("seed", func(p *vtime.Proc) {
		// Pre-feed rank 0 with rank 1's barrier message (tag = seq 0).
		net.sides[0].deliver(1, 0, nil)
	})
	e.Spawn("app0", func(p *vtime.Proc) {
		side := net.sides[0]
		op := side.eng.Start(p, coll.BuildBarrier(0, 2))
		if !op.Done() {
			t.Error("pre-matched single-round barrier should complete inline")
		}
		if side.eng.BGRounds() != 0 {
			t.Errorf("BGRounds = %d, want 0", side.eng.BGRounds())
		}
		for _, s := range net.sides {
			s.mgr.Stop()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentOpsIsolated: two outstanding ops between the same pair
// use distinct tags and never cross-match.
func TestEngineConcurrentOpsIsolated(t *testing.T) {
	const n = 4
	a := make([][]float64, n)
	b := make([][]float64, n)
	for r := 0; r < n; r++ {
		a[r] = []float64{float64(r)}
		b[r] = []float64{float64(100 + r)}
	}
	e := vtime.NewEngine()
	net := newFakeNet(e, n, 300, true)
	for r := 0; r < n; r++ {
		r := r
		e.Spawn(fmt.Sprintf("app%d", r), func(p *vtime.Proc) {
			side := net.sides[r]
			op1 := side.eng.Start(p, coll.BuildAllreduce(r, n, a[r], coll.OpSum))
			op2 := side.eng.Start(p, coll.BuildAllreduce(r, n, b[r], coll.OpMax))
			side.mgr.WaitUntil(p, func() bool { return op1.Done() && op2.Done() })
			if r == 0 {
				for _, s := range net.sides {
					s.mgr.Stop()
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if a[r][0] != 6 { // 0+1+2+3
			t.Fatalf("rank %d: sum = %v, want 6", r, a[r][0])
		}
		if b[r][0] != 103 {
			t.Fatalf("rank %d: max = %v, want 103", r, b[r][0])
		}
	}
}

// TestEngineDeterministic: repeated runs drain at the identical virtual time.
func TestEngineDeterministic(t *testing.T) {
	run := func() vtime.Time {
		e := vtime.NewEngine()
		net := newFakeNet(e, 6, 700, true)
		for r := 0; r < 6; r++ {
			r := r
			e.Spawn(fmt.Sprintf("app%d", r), func(p *vtime.Proc) {
				side := net.sides[r]
				x := []float64{float64(r), 1}
				op := side.eng.Start(p, coll.BuildAllreduce(r, 6, x, coll.OpSum))
				side.mgr.WaitUntil(p, op.Done)
				if r == 0 {
					for _, s := range net.sides {
						s.mgr.Stop()
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if t1, t2 := run(), run(); t1 != t2 {
		t.Fatalf("nondeterministic: %d != %d", t1, t2)
	}
}

// TestEngineVectorSchedules: irregular (per-rank count) schedules — zero
// blocks elided, local copyF64 prims for the reduce-scatter landing — run
// correctly through the engine's round execution under both progress
// regimes.
func TestEngineVectorSchedules(t *testing.T) {
	const n = 4
	counts := []int{0, 3, 7, 2}
	total := 0
	for _, c := range counts {
		total += c
	}
	for _, pio := range []bool{false, true} {
		// Alltoallv: rank r sends counts[d] bytes of value r*16+d to d.
		send := make([][][]byte, n)
		recv := make([][][]byte, n)
		for r := 0; r < n; r++ {
			send[r] = make([][]byte, n)
			recv[r] = make([][]byte, n)
			for d := 0; d < n; d++ {
				send[r][d] = make([]byte, counts[d])
				for i := range send[r][d] {
					send[r][d][i] = byte(r*16 + d)
				}
				recv[r][d] = make([]byte, counts[r])
			}
		}
		runOps(t, n, pio, func(rank int) *coll.Schedule {
			return coll.BuildAlltoallv(rank, n, send[rank], recv[rank], true)
		})
		for r := 0; r < n; r++ {
			for s := 0; s < n; s++ {
				for i := range recv[r][s] {
					if recv[r][s][i] != byte(s*16+r) {
						t.Fatalf("pio=%v: rank %d block from %d byte %d = %d",
							pio, r, s, i, recv[r][s][i])
					}
				}
			}
		}

		// Reduce-scatter: segment sums land in each rank's recv.
		xs := make([][]float64, n)
		recvs := make([][]float64, n)
		for r := 0; r < n; r++ {
			xs[r] = make([]float64, total)
			for i := range xs[r] {
				xs[r][i] = float64(r*10 + i)
			}
			recvs[r] = make([]float64, counts[r])
		}
		runOps(t, n, pio, func(rank int) *coll.Schedule {
			return coll.BuildReduceScatterHalving(rank, n, xs[rank], recvs[rank], counts, coll.OpSum)
		})
		off := 0
		for r := 0; r < n; r++ {
			for i := 0; i < counts[r]; i++ {
				want := 0.0
				for s := 0; s < n; s++ {
					want += float64(s*10 + off + i)
				}
				if math.Abs(recvs[r][i]-want) > 1e-9 {
					t.Fatalf("pio=%v: rank %d elem %d = %g, want %g", pio, r, i, recvs[r][i], want)
				}
			}
			off += counts[r]
		}
	}
}

// releasingSide is a fakeSide whose transport is a Releaser: it counts each
// request's releases and checks that the engine registered its callback
// first.
type releasingSide struct {
	*fakeSide
	t        *testing.T
	issued   int
	released map[*fakeReq]int
}

func (s *releasingSide) Isend(proc *vtime.Proc, dst int, tag int32, data []byte, rail int) Req {
	s.issued++
	return s.fakeSide.Isend(proc, dst, tag, data, rail)
}

func (s *releasingSide) Irecv(proc *vtime.Proc, src int, tag int32, buf []byte) Req {
	s.issued++
	return s.fakeSide.Irecv(proc, src, tag, buf)
}

func (s *releasingSide) Release(r Req) {
	fr := r.(*fakeReq)
	if !fr.done && len(fr.cbs) == 0 {
		s.t.Error("request released before its completion callback was registered")
	}
	s.released[fr]++
}

// TestEngineReleasesTransfers: an engine whose transport is a Releaser
// hands back every transfer's request exactly once, after registering its
// callback.
func TestEngineReleasesTransfers(t *testing.T) {
	const n = 4
	for _, pio := range []bool{false, true} {
		e := vtime.NewEngine()
		net := newFakeNet(e, n, 500*vtime.Nanosecond, pio)
		sides := make([]*releasingSide, n)
		for r, side := range net.sides {
			sides[r] = &releasingSide{fakeSide: side, t: t, released: map[*fakeReq]int{}}
			side.eng = NewEngine(side.mgr, sides[r])
		}
		for r := 0; r < n; r++ {
			r := r
			e.Spawn(fmt.Sprintf("app%d", r), func(p *vtime.Proc) {
				side := net.sides[r]
				op := side.eng.Start(p, coll.BuildBarrier(r, n))
				side.mgr.WaitUntil(p, op.Done)
				side.mgr.Stop()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for r, s := range sides {
			if s.issued == 0 || len(s.released) != s.issued {
				t.Errorf("pioman=%v rank %d: %d requests released of %d issued", pio, r, len(s.released), s.issued)
			}
			for _, k := range s.released {
				if k != 1 {
					t.Errorf("pioman=%v rank %d: a request released %d times", pio, r, k)
				}
			}
		}
	}
}
