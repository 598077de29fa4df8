package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/bench"
	"repro/cluster"
	"repro/internal/ch3"
	"repro/internal/coll"
	"repro/internal/coll/tune"
	"repro/internal/marcel"
	"repro/internal/nbc"
	"repro/internal/nemesis"
	"repro/internal/nmad"
	"repro/internal/pioman"
	"repro/internal/shmq"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/mpi"
)

// Probes are micro-drivers: each builds one layer the way that layer's unit
// tests do and times its public calls from outside — host nanoseconds and
// allocations per call, the median of reps repetitions. They do not depend
// on the workload, so a process measures them once. The model sheet (the
// paper-shape virtual values) rides along for the same reason.

const (
	probeReps      = 21
	probeRepsSmoke = 3
)

type probeSet struct {
	reps    int
	smoke   bool
	vals    map[string]float64
	spans   *spanLog // every probe is one host span
	written bool     // spans already stored
}

func newProbeSet(smoke bool) *probeSet {
	ps := &probeSet{reps: probeReps, smoke: smoke}
	if smoke {
		ps.reps = probeRepsSmoke
	}
	return ps
}

// n scales a probe's inner loop count down for -smoke.
func (ps *probeSet) n(full int) int {
	if ps.smoke {
		if full /= 20; full < 4 {
			full = 4
		}
	}
	return full
}

// sample runs f reps times; f performs units calls. It returns the median
// host nanoseconds and the median allocations per call.
func (ps *probeSet) sample(reps, units int, f func()) (ns, allocs float64) {
	var nss, as []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		f()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(units))
		as = append(as, float64(m1.Mallocs-m0.Mallocs)/float64(units))
	}
	return median(nss), median(as)
}

// probe measures one named probe under a host span and stores its results:
// name gets the nanoseconds, allocName (when not empty) the allocations.
func (ps *probeSet) probe(layer, name, allocName string, reps, units int, f func()) {
	end := ps.spans.begin(layer, name)
	ns, allocs := ps.sample(reps, units, f)
	end()
	ps.vals[name] = ns
	if allocName != "" {
		ps.vals[allocName] = allocs
	}
}

// values measures everything on first use.
func (ps *probeSet) values() map[string]float64 {
	if ps.vals != nil {
		return ps.vals
	}
	ps.vals = make(map[string]float64)
	ps.spans = newSpanLog()
	runtime.GC()
	ps.vtimeProbes()
	ps.transportProbes()
	ps.nmadProbes()
	ps.ch3Probes()
	ps.piomanProbes()
	ps.nbcProbe()
	ps.collProbes()
	ps.traceProbes()
	ps.mpiProbes()
	ps.depthSlope()
	ps.modelSheet()
	return ps.vals
}

// writeSpans stores the probes' host spans next to the workload traces, once.
func (ps *probeSet) writeSpans(dir string) error {
	if ps.written {
		return nil
	}
	ps.written = true
	return ps.spans.write(dir, "probes")
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe set-up failed: %v", err))
	}
}

// ---- vtime ------------------------------------------------------------------

func (ps *probeSet) vtimeProbes() {
	n := ps.n(100000)
	chain := func(e *vtime.Engine, until vtime.Time) {
		left := n
		var step func()
		step = func() {
			if left--; left > 0 {
				e.After(1, step)
			}
		}
		e.After(1, step)
		must(e.RunUntil(until))
	}
	ps.probe("vtime", "vtime.probe.event_ns", "", ps.reps, n, func() {
		chain(vtime.NewEngine(), vtime.Time(n+1))
	})
	// The same chain under a heap holding 100k pending far-future events.
	deep := vtime.NewEngine()
	for i := 0; i < ps.n(100000); i++ {
		deep.At(vtime.Time(1<<50+i), func() {})
	}
	ps.probe("vtime", "vtime.probe.event_ns_deep", "", ps.reps, n, func() {
		chain(deep, deep.Now().Add(vtime.Duration(n+1)))
	})
	sleeper := func() {
		e := vtime.NewEngine()
		e.Spawn("sleeper", func(p *vtime.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		must(e.Run())
	}
	ps.probe("vtime", "vtime.probe.switch_ns", "", ps.reps, n, sleeper)
	// The same handoff with a second P for the scheduler to wake: what the
	// engine costs a user who leaves GOMAXPROCS at two cores.
	procs := runtime.GOMAXPROCS(2)
	ps.probe("vtime", "vtime.probe.switch_ns_2p", "", ps.reps, n, sleeper)
	runtime.GOMAXPROCS(procs)
	// Two procs handing off through semaphores: one wake per handoff.
	ps.probe("vtime", "vtime.probe.cond_wake_ns", "", ps.reps, 2*n, func() {
		e := vtime.NewEngine()
		s1, s2 := vtime.NewSema(e, "s1", 0), vtime.NewSema(e, "s2", 0)
		e.Spawn("a", func(p *vtime.Proc) {
			for i := 0; i < n; i++ {
				s2.Release()
				s1.Acquire(p)
			}
		})
		e.Spawn("b", func(p *vtime.Proc) {
			for i := 0; i < n; i++ {
				s2.Acquire(p)
				s1.Release()
			}
		})
		must(e.Run())
	})
}

// ---- simnet, shmq, nemesis, topo --------------------------------------------

func (ps *probeSet) transportProbes() {
	n := ps.n(20000)
	ps.probe("simnet", "simnet.probe.transfer_ns", "", ps.reps, n, func() {
		e := vtime.NewEngine()
		net, err := simnet.New(e, 2, cluster.RailIB())
		must(err)
		rail, delivered := net.Rail(0), 0
		for i := 0; i < n; i++ {
			rail.Transfer(0, 1, 1024, nil, func(simnet.Delivery) { delivered++ })
		}
		must(e.Run())
	})

	pool, err := shmq.NewPool(64, 32<<10)
	must(err)
	ps.probe("shmq", "shmq.probe.enq_deq_ns", "", ps.reps, n, func() {
		for i := 0; i < n; i++ {
			pool.Recv.Enqueue(pool.GetFree())
			pool.Release(pool.Recv.Dequeue())
		}
	})

	// One 1 KiB fragment through a connected endpoint pair: copy into a
	// cell, enqueue, visibility event, poll, handler, recycle.
	frag := make([]byte, 1<<10)
	ps.probe("nemesis", "nemesis.probe.fragment_ns", "nemesis.probe.fragment_allocs", ps.reps, n, func() {
		e := vtime.NewEngine()
		a, err := nemesis.NewEndpoint(e, 0, nemesis.Options{})
		must(err)
		b, err := nemesis.NewEndpoint(e, 1, nemesis.Options{})
		must(err)
		a.ConnectLocal(b)
		b.ConnectLocal(a)
		b.SetHandler(func(shmq.Header, []byte) vtime.Duration { return 0 })
		for i := 0; i < n; i++ {
			a.TrySendFragment(1, shmq.Header{Type: shmq.CellData, Tag: 1, MsgLen: int64(len(frag))}, frag)
			must(e.Run())
			b.Poll()
		}
	})

	racks := topo.XeonRacks(512)
	sink := 0
	ps.probe("topo", "topo.probe.distance_ns", "", ps.reps, n, func() {
		for i := 0; i < n; i++ {
			sink += racks.Hierarchy.Distance(i%512, (i*7)%512)
		}
	})
	ps.probe("topo", "topo.probe.placement_ns_np4096", "", ps.reps, 1, func() {
		must(topo.Block(4096, 512).Validate(racks))
	})
	_ = sink
}

// ---- nmad -------------------------------------------------------------------

// nmadPair wires two NewMadeleine cores over the two-rail network with
// polling progress managers, as the package's own tests do.
type nmadPair struct {
	e     *vtime.Engine
	cores [2]*nmad.Core
	mgrs  [2]*pioman.Manager
}

func newNmadPair() *nmadPair {
	e := vtime.NewEngine()
	net, err := simnet.New(e, 2, cluster.RailIB(), cluster.RailMX())
	must(err)
	np := &nmadPair{e: e}
	for i := range np.cores {
		mgr := pioman.New(e, marcel.NewNode(e, fmt.Sprintf("n%d", i), 8), fmt.Sprintf("p%d", i), pioman.Config{})
		np.cores[i] = nmad.New(e, i, i, nmad.Options{
			Strategy: nmad.StratSplitBalance,
			Rails:    net.Rails(),
			PostTask: func(cost vtime.Duration, run func()) { mgr.PostTask(pioman.Task{Cost: cost, Run: run}) },
			Notify:   mgr.Notify,
		})
		mgr.Register(np.cores[i], pioman.ClassNet)
		np.mgrs[i] = mgr
	}
	np.cores[0].Connect(np.cores[1])
	np.cores[1].Connect(np.cores[0])
	return np
}

// stream sends n messages of size bytes from core 0 to core 1, one at a
// time, and drains the engine.
func (np *nmadPair) stream(n, size int) {
	msg, buf := make([]byte, size), make([]byte, size)
	np.e.Spawn("send", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			np.mgrs[0].WaitUntil(p, np.cores[0].ISend(np.cores[0].Gate(1), 1, msg).Done)
		}
	})
	np.e.Spawn("recv", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			np.mgrs[1].WaitUntil(p, np.cores[1].IRecv(np.cores[1].Gate(0), 1, ^uint64(0), buf).Done)
		}
	})
	must(np.e.Run())
}

func (ps *probeSet) nmadProbes() {
	n := ps.n(4000)
	ps.probe("nmad", "nmad.probe.eager_msg_ns", "nmad.probe.eager_msg_allocs", ps.reps, n, func() {
		newNmadPair().stream(n, 64)
	})
	const rdvBytes = 1 << 20
	nr := ps.n(80)
	end := ps.spans.begin("nmad", "nmad.probe.rdv_ns_per_KiB")
	ns, allocs := ps.sample(ps.reps, nr, func() { newNmadPair().stream(nr, rdvBytes) })
	end()
	ps.vals["nmad.probe.rdv_ns_per_KiB"] = ns / (rdvBytes >> 10)
	ps.vals["nmad.probe.rdv_msg_allocs"] = allocs

	e := vtime.NewEngine()
	net, err := simnet.New(e, 2, cluster.RailIB(), cluster.RailMX())
	must(err)
	ps.probe("nmad", "nmad.probe.split_preview_ns", "", ps.reps, n, func() {
		for i := 0; i < n; i++ {
			nmad.SplitPreview(nmad.StratSplitBalance, net.Rails(), 0, rdvBytes+i)
		}
	})
}

// ---- ch3 --------------------------------------------------------------------

// centralBackend is the minimal ch3.NetBackend: CH3 keeps every receive on
// its own posted queue, which is what the matching probes exercise.
type centralBackend struct{}

func (centralBackend) Name() string          { return "probe" }
func (centralBackend) CentralMatching() bool { return true }
func (centralBackend) Isend(*vtime.Proc, *ch3.Request) {
	panic("benchmark: probe backend has no network")
}
func (centralBackend) PostRecv(*ch3.Request)           {}
func (centralBackend) PostRecvAny(*ch3.Request)        {}
func (centralBackend) ShmMatchedAny(*ch3.Request)      {}
func (centralBackend) Progress() (int, vtime.Duration) { return 0, 0 }

var _ ch3.NetBackend = centralBackend{}

// matchProbe posts depth receives spread over 64 sources and 8 contexts,
// then times match + re-post pairs against the standing queue. With anySrc
// the standing receives are wildcards, the worst case for bucketing.
func (ps *probeSet) matchProbe(name string, depth int, anySrc bool) {
	e := vtime.NewEngine()
	mgr := pioman.New(e, marcel.NewNode(e, "n0", 8), "p0", pioman.Config{})
	p := ch3.NewProcess(e, 0, 65, mgr, nil, nil, ch3.Config{})
	p.SetBackend(centralBackend{})
	post := func(i int) {
		src := 1 + i%64
		if anySrc {
			src = int(ch3.AnySource)
		}
		// Zero software cost configured, so Irecv never sleeps and needs no proc.
		p.Irecv(nil, src, int32(i), int32(i%8), nil)
	}
	for i := 0; i < depth; i++ {
		post(i)
	}
	n := ps.n(20000)
	ps.probe("ch3", name, "", ps.reps, n, func() {
		for k := 0; k < n; k++ {
			i := (k * 7) % depth
			if p.MatchPosted(int32(i%8), int32(1+i%64), int32(i)) == nil {
				panic("benchmark: match probe lost a posted receive")
			}
			post(i)
		}
	})
}

func (ps *probeSet) ch3Probes() {
	ps.matchProbe("ch3.probe.match_ns_depth16", 16, false)
	ps.matchProbe("ch3.probe.match_ns_depth4096", 4096, false)
	ps.matchProbe("ch3.probe.match_anysrc_ns_depth4096", 4096, true)

	// Two processes on one node: 64-byte eager messages through Isend,
	// the shm job engine, the cell queues and the posted-queue match.
	n := ps.n(4000)
	msg, buf := make([]byte, 64), make([]byte, 64)
	ps.probe("ch3", "ch3.probe.isend_shm_ns", "ch3.probe.isend_shm_allocs", ps.reps, n, func() {
		e := vtime.NewEngine()
		node := marcel.NewNode(e, "n0", 8)
		var eps [2]*nemesis.Endpoint
		var procs [2]*ch3.Process
		for i := range eps {
			ep, err := nemesis.NewEndpoint(e, i, nemesis.Options{})
			must(err)
			eps[i] = ep
		}
		eps[0].ConnectLocal(eps[1])
		eps[1].ConnectLocal(eps[0])
		for i := range procs {
			mgr := pioman.New(e, node, fmt.Sprintf("p%d", i), pioman.Config{})
			procs[i] = ch3.NewProcess(e, i, 2, mgr, eps[i], func(int) bool { return true }, ch3.Config{})
			procs[i].SetBackend(centralBackend{})
		}
		e.Spawn("send", func(p *vtime.Proc) {
			for i := 0; i < n; i++ {
				procs[0].Wait(p, procs[0].Isend(p, 1, 1, 0, msg))
			}
		})
		e.Spawn("recv", func(p *vtime.Proc) {
			for i := 0; i < n; i++ {
				procs[1].Wait(p, procs[1].Irecv(p, 0, 1, 0, buf))
			}
		})
		must(e.Run())
	})
}

// ---- pioman -----------------------------------------------------------------

type idleSource struct{}

func (idleSource) SourceName() string          { return "idle" }
func (idleSource) Poll() (int, vtime.Duration) { return 0, 0 }

func (ps *probeSet) piomanProbes() {
	n := ps.n(20000)
	progress := func(tasks bool) func() {
		return func() {
			e := vtime.NewEngine()
			mgr := pioman.New(e, marcel.NewNode(e, "n0", 8), "p0", pioman.Config{})
			mgr.Register(idleSource{}, pioman.ClassNet)
			ran := 0
			e.Spawn("app", func(p *vtime.Proc) {
				for i := 0; i < n; i++ {
					if tasks {
						mgr.PostTask(pioman.Task{Run: func() { ran++ }})
					}
					mgr.Progress(p)
				}
			})
			must(e.Run())
		}
	}
	ps.probe("pioman", "pioman.probe.poll_ns", "", ps.reps, n, progress(false))
	ps.probe("pioman", "pioman.probe.task_ns", "", ps.reps, n, progress(true))
	// A task's cost is what a pass with a task costs beyond an empty pass.
	if d := ps.vals["pioman.probe.task_ns"] - ps.vals["pioman.probe.poll_ns"]; d > 0 {
		ps.vals["pioman.probe.task_ns"] = d
	}
}

// ---- nbc --------------------------------------------------------------------

// loopReq and loopSide are a loopback nbc.Transport: sends complete at
// submission, deliveries land one latency later, matching is FIFO per
// (source, tag). Requests are recycled so the allocations the probe counts
// are the engine's own.
type loopReq struct {
	done bool
	cb   func()
	src  int
	tag  int32
	buf  []byte
	side *loopSide
}

func (r *loopReq) Done() bool { return r.done }
func (r *loopReq) AddCallback(f func()) {
	if r.done {
		f()
		r.side.free = append(r.side.free, r)
		return
	}
	r.cb = f
}

type loopMsg struct {
	src  int
	tag  int32
	data []byte
}

type loopSide struct {
	e      *vtime.Engine
	rank   int
	peers  []*loopSide
	mgr    *pioman.Manager
	eng    *nbc.Engine
	posted []*loopReq
	unexp  []loopMsg
	free   []*loopReq
}

func (s *loopSide) req() *loopReq {
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free = s.free[:n-1]
		*r = loopReq{side: s}
		return r
	}
	return &loopReq{side: s}
}

func (s *loopSide) Isend(_ *vtime.Proc, dst int, tag int32, data []byte, _ int) nbc.Req {
	peer, src := s.peers[dst], s.rank
	s.e.After(500, func() {
		peer.deliver(src, tag, data)
		peer.mgr.Notify()
	})
	r := s.req()
	r.done = true
	return r
}

func (s *loopSide) Irecv(_ *vtime.Proc, src int, tag int32, buf []byte) nbc.Req {
	r := s.req()
	r.src, r.tag, r.buf = src, tag, buf
	for i, m := range s.unexp {
		if m.src == src && m.tag == tag {
			s.unexp = append(s.unexp[:i], s.unexp[i+1:]...)
			copy(buf, m.data)
			r.done = true
			return r
		}
	}
	s.posted = append(s.posted, r)
	return r
}

func (s *loopSide) deliver(src int, tag int32, data []byte) {
	for i, r := range s.posted {
		if r.src == src && r.tag == tag {
			s.posted = append(s.posted[:i], s.posted[i+1:]...)
			copy(r.buf, data)
			r.done = true
			if r.cb != nil {
				r.cb()
				s.free = append(s.free, r)
			}
			return
		}
	}
	s.unexp = append(s.unexp, loopMsg{src, tag, data})
}

func (ps *probeSet) nbcProbe() {
	const ranks, elems = 4, 8
	n := ps.n(2000)
	rounds := 0
	end := ps.spans.begin("nbc", "nbc.probe.round_ns")
	ns, allocs := ps.sample(ps.reps, n, func() {
		e := vtime.NewEngine()
		sides := make([]*loopSide, ranks)
		for r := range sides {
			s := &loopSide{e: e, rank: r}
			s.mgr = pioman.New(e, marcel.NewNode(e, fmt.Sprintf("n%d", r), 4), fmt.Sprintf("p%d", r), pioman.Config{})
			s.eng = nbc.NewEngine(s.mgr, s)
			sides[r] = s
		}
		for r, s := range sides {
			s.peers = sides
			r, s := r, s
			x := make([]float64, elems)
			sched := coll.Build(coll.Key{Op: coll.OpAllreduce, Algo: coll.AlgoRecDoubling},
				coll.Args{Rank: r, Size: ranks, X: x, Op: coll.OpSum})
			rounds = len(sched.Rounds)
			e.Spawn(fmt.Sprintf("app%d", r), func(p *vtime.Proc) {
				for i := 0; i < n; i++ {
					gen := s.eng.Start(p, sched)
					s.mgr.WaitUntil(p, gen.Done)
				}
			})
		}
		must(e.Run())
	})
	end()
	// Per rank and round: n ops on each of ranks ranks, rounds rounds each.
	ps.vals["nbc.probe.round_ns"] = ns / float64(ranks*rounds)
	ps.vals["nbc.probe.start_allocs"] = allocs / ranks
}

// ---- coll, tune -------------------------------------------------------------

func (ps *probeSet) collProbes() {
	stack := cluster.MPICH2NmadIB().Name
	n := ps.n(20000)
	ps.probe("tune", "tune.probe.table_for_ns", "", ps.reps, n, func() {
		for i := 0; i < n; i++ {
			tune.TableFor(stack)
		}
	})
	table := tune.TableFor(stack)
	tuning := &coll.Tuning{Table: table, Stack: stack}
	sizes := []int{256, 4 << 10, 64 << 10, 512 << 10}
	var picked coll.Algo
	ps.probe("coll", "coll.probe.select_ns", "", ps.reps, n, func() {
		for i := 0; i < n; i++ {
			picked = tuning.Select(coll.OpAllreduce, 16, sizes[i%len(sizes)], false)
		}
	})
	_ = picked

	args := func(rank, np, elems int) coll.Args {
		return coll.Args{Rank: rank, Size: np, X: make([]float64, elems), Op: coll.OpSum}
	}
	a16 := args(5, 16, 8<<10)
	var key coll.Key
	ps.probe("coll", "coll.probe.keyfor_ns", "", ps.reps, n, func() {
		for i := 0; i < n; i++ {
			key = coll.KeyFor(tuning, coll.OpAllreduce, a16, false)
		}
	})
	a16.Seg = key.Seg
	nb := ps.n(400)
	ps.probe("coll", "coll.probe.build_ns_np16", "", ps.reps, nb, func() {
		for i := 0; i < nb; i++ {
			coll.Build(key, a16)
		}
	})
	sched, other := coll.Build(key, a16), args(5, 16, 8<<10)
	cur, next := a16.BufArgs(), other.BufArgs()
	ps.probe("coll", "coll.probe.rebind_ns", "", ps.reps, n, func() {
		for i := 0; i < n; i++ {
			sched.Rebind(cur, next)
			cur, next = next, cur
		}
	})
	a1024 := args(341, 1024, 8<<10)
	key1024 := coll.KeyFor(&coll.Tuning{}, coll.OpAllreduce, a1024, false)
	a1024.Seg = key1024.Seg
	ps.probe("coll", "coll.probe.build_ns_np1024", "coll.probe.build_allocs_np1024", ps.reps, nb, func() {
		for i := 0; i < nb; i++ {
			coll.Build(key1024, a1024)
		}
	})
	data, err := table.JSON()
	must(err)
	np := ps.n(200)
	ps.probe("coll", "coll.probe.parse_table_ns", "", ps.reps, np, func() {
		for i := 0; i < np; i++ {
			_, err := coll.ParseTable(data)
			must(err)
		}
	})
}

// ---- trace ------------------------------------------------------------------

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

func (ps *probeSet) traceProbes() {
	n := ps.n(100000)
	var last *trace.Trace
	ps.probe("trace", "trace.probe.record_ns", "", ps.reps, n, func() {
		t := trace.New()
		must(t.Bind(vtime.NewEngine(), 1))
		rec := t.Recorder(0)
		for i := 0; i < n/2; i++ {
			rec.Span("mpi", "Send", trace.Int64("dst", 1))()
		}
		last = t
	})
	var w countWriter
	end := ps.spans.begin("trace", "trace.probe.write_chrome_MBps")
	ns, _ := ps.sample(ps.reps, 1, func() {
		w.n = 0
		must(trace.WriteChrome(&w, last))
	})
	end()
	ps.vals["trace.probe.write_chrome_MBps"] = float64(w.n) / 1e6 / (ns / 1e9)
}

// ---- mpi --------------------------------------------------------------------

func (ps *probeSet) mpiProbes() {
	// An empty program at NP=4096: world build, the finalize barrier and
	// teardown. Each repetition takes seconds, so it gets few.
	np, reps := 4096, 3
	if ps.smoke {
		np, reps = 256, 1
	}
	cfg := mpi.Config{Cluster: cluster.XeonRacks(np / 8), NP: np, Placement: topo.Block(np, np/8),
		Stack: cluster.MPICH2Nmad("mpich2-nmad-ib-fattree", cluster.RailIBFatTree())}
	end := ps.spans.begin("mpi", "mpi.probe.world_build_ms_np4096")
	ns, _ := ps.sample(reps, 1, func() {
		_, err := mpi.Run(cfg, func(*mpi.Comm) {})
		must(err)
	})
	end()
	ps.vals["mpi.probe.world_build_ms_np4096"] = ns / 1e6

	// A cached nonblocking start through the public entry point on a
	// one-rank world, where the schedule is local and nothing else runs
	// between the memory readings. (mpi's own test pins the inner
	// rebind-and-start path at zero; the entry point adds the request and
	// the key signature.)
	n := ps.n(2000)
	one := mpi.Config{Cluster: cluster.Xeon2(), Stack: cluster.MPICH2NmadIB(), NP: 1}
	end = ps.spans.begin("mpi", "mpi.probe.cached_start_allocs")
	_, err := mpi.Run(one, func(c *mpi.Comm) {
		x := make([]float64, 64)
		c.Wait(c.IallreduceF64(x, mpi.OpSum))
		c.Wait(c.IallreduceF64(x, mpi.OpSum))
		_, allocs := ps.sample(ps.reps, n, func() {
			for i := 0; i < n; i++ {
				c.IallreduceF64(x, mpi.OpSum)
			}
		})
		ps.vals["mpi.probe.cached_start_allocs"] = allocs
	})
	end()
	must(err)
}

// depthSlope is the storm's host cost per engine event at 5000 operations
// in flight over the same at 1000: flat matching and pooling keep it at 1.
func (ps *probeSet) depthSlope() {
	perEvent := func(inFlight int) float64 {
		o := runOpts{seed: DefaultSeed, scale: fullScale, batches: 1}
		if ps.smoke {
			o.scale = smokeScale * 10
		}
		out, err := runCollStorm(&o, inFlight)
		must(err)
		return ratio(float64(out.worldNs), float64(out.events))
	}
	end := ps.spans.begin("ch3", "ch3.depth_slope")
	ps.vals["ch3.depth_slope"] = ratio(perEvent(stormDeep), perEvent(stormInFlight))
	end()
}

// ---- model sheet ------------------------------------------------------------

// modelSheet computes the paper-shape virtual values once. They are exact:
// a change that only speeds the simulator must leave every one identical.
func (ps *probeSet) modelSheet() {
	end := ps.spans.begin("bench", "model sheet")
	defer end()
	ib, pio := cluster.MPICH2NmadIB(), cluster.MPICH2NmadIB().WithPIOMan(true)
	y := func(s bench.Series, err error) float64 {
		must(err)
		return s.Points[0].Y
	}
	ps.vals["simnet.model.lat_4B_us"] = y(bench.Latency(ib, []int{4}, bench.NetpipeOptions{}))
	ps.vals["nmad.model.bw_1MiB_MBps"] = y(bench.Bandwidth(ib, []int{1 << 20}, bench.NetpipeOptions{Iters: 3}))

	// Striped chain broadcast of 1 MiB over both rails against the better
	// single rail (bench's TestStripedBcastBandwidthAdditivity, >= 1.5).
	chain := func(stack cluster.Stack, stripe int) float64 {
		r, err := bench.CollBenchOnce(stack, bench.CollBenchOptions{Op: "bcast", Bytes: 1 << 20,
			Iters: 4, NP: 2, Algo: coll.AlgoChain, Seg: 64 << 10, Stripe: stripe})
		must(err)
		return r.PerOp
	}
	best := chain(ib, 0)
	if mx := chain(cluster.MPICH2NmadMX(), 0); mx < best {
		best = mx
	}
	ps.vals["nmad.model.multirail_additivity"] = best / chain(cluster.MPICH2NmadMulti(), 2)

	// PIOMan's shared-memory synchronisation cost (paper: about 450 ns).
	intra := bench.NetpipeOptions{Iters: 10, IntraNode: true}
	ps.vals["pioman.model.shm_sync_overhead_ns"] =
		1e3 * (y(bench.Latency(pio, []int{4}, intra)) - y(bench.Latency(ib, []int{4}, intra)))

	// Fig. 7b's point: 256 KiB rendezvous send under 400 us of compute.
	const size, computeUS = 256 << 10, 400
	comm, err := bench.OverlapOnce(pio, size, bench.OverlapOptions{ComputeUS: 0.001})
	must(err)
	both, err := bench.OverlapOnce(pio, size, bench.OverlapOptions{ComputeUS: computeUS})
	must(err)
	hideable := comm
	if c := computeUS * 1e-6; c < hideable {
		hideable = c
	}
	ps.vals["pioman.model.overlap_ratio_p2p"] = (comm + computeUS*1e-6 - both) / hideable

	r, err := bench.NbcOverlapOnce(pio, bench.NbcOverlapOptions{})
	must(err)
	ps.vals["nbc.model.overlap_ratio_iallreduce"] = r.OverlapRatio()
}
