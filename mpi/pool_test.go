package mpi

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/cluster"
	"repro/internal/alloctest"
	"repro/internal/coll"
	"repro/internal/topo"
)

// TestCachedSchedStartZeroAlloc pins the heavy-traffic hot path at zero
// allocations: once a shape's schedule is cached, keying the call, finding
// (and, for new buffers, rebinding) its schedule and handing it to the
// nonblocking engine (sched → StartDone, the body of every cached I* start)
// must not allocate — fixed-width key fields, the free lists (requests,
// ops), the per-entry BufArgs scratch and the cached release closure cover
// it.
//
// The run is single-rank so the schedule is local-only and the measured
// calls cross no yield point: nothing else runs during AllocsPerRun.
func TestCachedSchedStartZeroAlloc(t *testing.T) {
	cfg := xeonCfg(1, cluster.MPICH2NmadIB())
	var avg float64
	_, err := Run(cfg, func(c *Comm) {
		bufs := [2][]float64{make([]float64, 64), make([]float64, 64)}
		// Warm the path: first call compiles the entry, the next ones grow
		// the rebind scratch and the free lists to steady state.
		for i := 0; i < 3; i++ {
			c.Wait(c.IallreduceF64(bufs[i%2], OpSum))
		}
		eng := c.engine()
		i := 0
		avg = testing.AllocsPerRun(200, func() {
			i++ // alternate buffers: every other start rebinds
			s, release := c.sched(coll.OpAllreduce, coll.Args{X: bufs[i/2%2], Op: coll.OpSum})
			eng.StartDone(c.proc, s, release)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("cached schedule key+rebind+start allocates %.2f objects/op, want 0", avg)
	}
}

// TestEagerRoundTripAllocBudget pins what one blocking eager round trip — a
// Send and a Recv on each of two ranks, two delivered messages — allocates
// at steady state on the paper's stack, on the network path (vtime, ch3, the
// direct module, nmad wrappers, simnet) and on the shared-memory path (ch3
// jobs, nemesis cells). Both budgets are zero: requests, packet wrappers and
// in-flight records recycle, trace arguments stay on the stack, the engine
// heap holds events by value and every callback is bound once. AllocsPerRun
// counts the whole process, so rank 1's half of the echo is included.
func TestEagerRoundTripAllocBudget(t *testing.T) {
	const runs = 200
	for _, tc := range []struct {
		name      string
		placement topo.Placement
	}{
		{"inter-node", topo.Placement{0, 1}},
		{"intra-node", topo.Placement{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := xeonCfg(2, cluster.MPICH2NmadIB())
			cfg.Placement = tc.placement
			var avg float64
			_, err := Run(cfg, func(c *Comm) {
				msg, buf := make([]byte, 1024), make([]byte, 1024)
				echo := func() {
					if c.Rank() == 0 {
						c.Send(1, 3, msg)
						c.Recv(1, 3, buf)
					} else {
						st := c.Recv(0, 3, buf)
						c.Send(0, 3, buf[:st.Len])
					}
				}
				for i := 0; i < 50; i++ { // fill the free lists and queues
					echo()
				}
				if c.Rank() == 0 {
					avg = testing.AllocsPerRun(runs, echo)
				} else {
					for i := 0; i < runs+1; i++ { // AllocsPerRun warms up once
						echo()
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if avg != 0 {
				t.Fatalf("%s eager round trip allocates %.2f objects, budget 0", tc.name, avg)
			}
		})
	}
}

// TestCachedCollectiveAllocBudget pins what one cached blocking collective
// allocates at steady state, process-wide (all four ranks' calls), for a
// reduction through every typed path (recursive doubling, reduce-scatter,
// and a custom operator), a broadcast and a personalized exchange, at
// eager sizes, on one node and across two. Both budgets are zero: float
// payloads go out as the vector's own memory (every transport copies a
// payload by the time its send completes — shared memory into cells, the
// network into bounce buffers from the world's store), unexpected arrivals
// land in recycled buffers, the key of a repeated shape builds no string
// and a repeat over the same buffers rebinds nothing.
func TestCachedCollectiveAllocBudget(t *testing.T) {
	const np, runs = 4, 50
	counts := []int{40, 0, 24, 64}
	type bufs struct {
		x, recv   []float64
		data      []byte
		send, out [][]byte
	}
	type call struct {
		name string
		run  func(c *Comm, b bufs)
	}
	weighted := coll.Op(func(a, b float64) float64 { return a + 2*b })
	calls := []call{
		{"AllreduceF64", func(c *Comm, b bufs) { c.AllreduceF64(b.x, OpSum) }},
		{"AllreduceF64/custom", func(c *Comm, b bufs) { c.AllreduceF64(b.x, weighted) }},
		{"ReduceScatterF64", func(c *Comm, b bufs) { c.ReduceScatterF64(b.x, b.recv, counts, OpMax) }},
		{"Bcast", func(c *Comm, b bufs) { c.Bcast(1, b.data) }},
		{"Alltoall", func(c *Comm, b bufs) { c.Alltoall(b.send, b.out) }},
	}
	for _, tc := range []struct {
		name      string
		placement topo.Placement
	}{
		{"one node", topo.Placement{0, 0, 0, 0}},
		{"two nodes", topo.Placement{0, 0, 1, 1}},
	} {
		for _, cl := range calls {
			t.Run(tc.name+"/"+cl.name, func(t *testing.T) {
				cfg := xeonCfg(np, cluster.MPICH2NmadIB())
				cfg.Placement = tc.placement
				var avg float64
				_, err := Run(cfg, func(c *Comm) {
					b := bufs{x: make([]float64, 128), recv: make([]float64, counts[c.Rank()]),
						data: make([]byte, 3000), send: make([][]byte, np), out: make([][]byte, np)}
					for r := range b.send {
						b.send[r], b.out[r] = make([]byte, 700), make([]byte, 700)
					}
					// Rank 0 measures, so its calls bracket everyone's: no rank
					// starts call k before rank 0 has (the token), and rank 0
					// does not finish it before every rank has (the barrier).
					token := make([]byte, 1)
					once := func() {
						c.Bcast(0, token)
						cl.run(c, b)
						c.Barrier()
					}
					for i := 0; i < 200; i++ { // compile, fill the free lists and the store, touch every shm cell
						once()
					}
					if c.Rank() == 0 {
						avg = testing.AllocsPerRun(runs, once)
					} else {
						for i := 0; i < runs+1; i++ { // AllocsPerRun warms up once
							once()
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if avg != 0 {
					t.Fatalf("one cached %s allocates %.2f objects process-wide, budget 0", cl.name, avg)
				}
			})
		}
	}
}

// TestRecycledRequestsStress drives the blocking point-to-point calls, which
// recycle their CH3 request (and, off-node, the NewMadeleine request and
// packet wrapper behind it), through the cases where a premature or missed
// release would show: eager messages queued behind a rendezvous on one tag,
// ANY_SOURCE receives (the probe-then-post path), shared-memory and network
// peers at once, and nonblocking windows whose requests the caller keeps.
// Every payload is verified. Run under -race in CI.
//
// The on-node window stays below the shared-memory rendezvous threshold: two
// shm rendezvous in flight on one connection deadlock under PIOMan (the CTS
// job pushed when Irecv matches a buffered RTS is never advanced) — at the
// parent commit too; it is a protocol bug, not a recycling one.
func TestRecycledRequestsStress(t *testing.T) {
	const np, iters, window = 4, 40, 6
	sizes := []int{48 << 10, 64, 1, 3000, 80 << 10, 17}
	fill := func(b []byte, src, it int) {
		for i := range b {
			b[i] = byte(src*101 + it*13 + i*3 + i>>7)
		}
	}
	for _, stack := range []cluster.Stack{cluster.MPICH2NmadIB(), cluster.MPICH2NmadIB().WithPIOMan(true)} {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			cfg := xeonCfg(np, stack)
			// Ranks 0,2 on one node and 1,3 on the other: the ring's hops and
			// rank^1 are off-node, rank^2 is on-node.
			cfg.Placement = topo.RoundRobin(np, cluster.Xeon2().NumNodes)
			_, err := Run(cfg, func(c *Comm) {
				me := c.Rank()
				next, prev := (me+1)%np, (me+np-1)%np
				check := func(what string, got []byte, src, it int) {
					want := make([]byte, len(got))
					fill(want, src, it)
					if !bytes.Equal(got, want) {
						t.Errorf("rank %d %s iter %d: payload from %d corrupted", me, what, it, src)
					}
				}
				for it := 0; it < iters; it++ {
					n := sizes[it%len(sizes)]
					out, in := make([]byte, n), make([]byte, n)
					fill(out, me, it)
					// Ring over the network, received with ANY_SOURCE.
					if me%2 == 0 {
						c.Send(next, 7, out)
					}
					st := c.Recv(AnySource, 7, in)
					if me%2 == 1 {
						c.Send(next, 7, out)
					}
					if st.Source != prev || st.Len != n {
						t.Errorf("rank %d ring iter %d: status %+v, want %d bytes from %d", me, it, st, n, prev)
					}
					check("ring", in, prev, it)

					// Windows of nonblocking sends on one tag against blocking
					// receives: over the network rendezvous first with eager
					// ones behind them, over shared memory eager only.
					for _, peer := range []int{me ^ 1, me ^ 2} {
						size := func(k int) int {
							if n := sizes[k%len(sizes)]; peer == me^1 || n <= 48<<10 {
								return n
							}
							return 512
						}
						if me < peer {
							var qs []*Request
							for k := 0; k < window; k++ {
								b := make([]byte, size(k))
								fill(b, me, it*window+k)
								qs = append(qs, c.Isend(peer, 9, b))
							}
							c.WaitAll(qs...)
							continue
						}
						for k := 0; k < window; k++ {
							b := make([]byte, size(k))
							if st := c.Recv(peer, 9, b); st.Len != len(b) {
								t.Errorf("rank %d window iter %d msg %d from %d: %d bytes, want %d", me, it, k, peer, st.Len, len(b))
							}
							check("window", b, peer, it*window+k)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPoolingNeutrality: the free lists (requests, shm jobs, nbc ops) and
// bucketed matching queues are host-side mechanics — disabling pooling must
// reproduce bit-identical virtual-time results on every progress regime.
func TestPoolingNeutrality(t *testing.T) {
	for _, stack := range []cluster.Stack{
		cluster.MPICH2NmadIB(),
		cluster.MPICH2NmadIB().WithPIOMan(true),
		cluster.MVAPICH2(),
	} {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			run := func(noPooling bool) float64 {
				cfg := xeonCfg(4, stack)
				cfg.Placement = topo.RoundRobin(4, cluster.Xeon2().NumNodes)
				cfg.NoPooling = noPooling
				rep, err := Run(cfg, tracedWorkload)
				if err != nil {
					t.Fatal(err)
				}
				return rep.Seconds
			}
			pooled := run(false)
			fresh := run(true)
			if pooled != fresh {
				t.Fatalf("pooling perturbed the run: %v (pooled) != %v (fresh)", pooled, fresh)
			}
		})
	}
}

// TestConcurrentNbcStress keeps hundreds of nonblocking collectives from
// many sibling Split communicators in flight at once under PIOMan — the
// collstorm shape, asserting correctness where the benchmark measures
// throughput: every allreduce reduces exactly its communicator's
// contributions (isolation), every started op completes, and the matching
// queues drain. Run under -race in CI, it also exercises the pools and
// bucketed queues for data races.
func TestConcurrentNbcStress(t *testing.T) {
	const (
		np      = 8
		nSplits = 6
		perComm = 12 // in-flight ops per (rank, sub-communicator)
		vecLen  = 16
	)
	// 8 ranks × 6 splits × 12 ops = 576 concurrently outstanding requests.
	cfg := xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true))
	cfg.Placement = topo.RoundRobin(np, cluster.Xeon2().NumNodes)

	drained := make([]bool, np)
	rep, err := Run(cfg, func(c *Comm) {
		me := c.Rank()
		subs := make([]*Comm, nSplits)
		for k := range subs {
			color := (me >> (k % 3)) & 1
			subs[k] = c.Split(color, me)
		}

		var reqs []*Request
		var bufs [][]float64
		for k, sub := range subs {
			for j := 0; j < perComm; j++ {
				x := make([]float64, vecLen)
				scale := float64(k*perComm + j + 1)
				for i := range x {
					x[i] = scale * float64(sub.Rank()+1)
				}
				bufs = append(bufs, x)
				reqs = append(reqs, sub.IallreduceF64(x, OpSum))
			}
		}
		c.WaitAll(reqs...)

		// Each sub-communicator has 4 members with ranks 0..3, so the
		// elementwise sum is scale * (1+2+3+4).
		i := 0
		for k := range subs {
			for j := 0; j < perComm; j++ {
				want := float64(k*perComm+j+1) * 10
				for e, v := range bufs[i] {
					if v != want {
						t.Errorf("rank %d split %d op %d elem %d: got %v, want %v",
							me, k, j, e, v, want)
						break
					}
				}
				i++
			}
		}
		// All 576 ops are complete: no posted receive may linger (a leak
		// here means a bucketed-queue removal went wrong). The unexpected
		// queue is checked loosely — ranks that finished earlier are
		// already in the finalize barrier, whose eager messages legally
		// sit here until this rank enters it (at most one per barrier
		// round), but nothing from the stress ops may remain.
		drained[me] = c.p.PostedLen() == 0 && c.p.UnexpectedQLen() < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range drained {
		if !ok {
			t.Errorf("rank %d: matching queues not drained after WaitAll", r)
		}
	}
	cs := rep.Counters()
	if cs.NbcStarted != cs.NbcCompleted {
		t.Errorf("nbc ops: started %d != completed %d", cs.NbcStarted, cs.NbcCompleted)
	}
	if want := int64(np * nSplits * perComm); cs.NbcStarted < want {
		t.Errorf("nbc ops started %d, want at least %d", cs.NbcStarted, want)
	}
	if cs.ReqPoolHits == 0 || cs.OpPoolHits == 0 {
		t.Errorf("pools never hit: req %d/%d, op %d/%d",
			cs.ReqPoolHits, cs.ReqPoolMisses, cs.OpPoolHits, cs.OpPoolMisses)
	}
	if cs.ReqInFlight < np {
		t.Errorf("peak in-flight requests %d, want at least %d", cs.ReqInFlight, np)
	}
}

// TestFirstCachedBarrierZeroAlloc pins the first timed batch of a pingpong
// at zero allocations, on both ranks: after a warm-up echo batch and the
// Barrier that compiles its schedule, the first cached Barriers and one
// more echo batch allocate nothing, on the network path and on the
// shared-memory path. The bracket is the one a time-boxed benchmark puts
// round its first timed batch — rank 0 opens it between two Barriers and
// closes it after the next one — with the collector off and one P.
// testing.AllocsPerRun is no use here: its own warm-up call would absorb
// exactly the allocations this test is after.
//
// A second bracket then runs thousands of cached Barriers: an interface
// assertion on the Barrier path allocates at random, about one call in a
// thousand until the runtime has filled that site's type cache, which a
// pingpong's few Barriers a batch leave to chance; this many calls show it
// nineteen times in twenty.
//
// The brackets count the simulator's allocations only (alloctest): the Go
// runtime's background scavenger allocates on its own goroutine now and
// then, which a process-wide count would blame on the Barrier.
func TestFirstCachedBarrierZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name      string
		placement topo.Placement
	}{
		{"inter-node", topo.Placement{0, 1}},
		{"intra-node", topo.Placement{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := xeonCfg(2, cluster.MPICH2NmadIB())
			cfg.Placement = tc.placement
			var first, more alloctest.Result
			_, err := Run(cfg, func(c *Comm) {
				msg, buf := make([]byte, 1024), make([]byte, 1024)
				batch := func() {
					for i := 0; i < 50; i++ {
						if c.Rank() == 0 {
							c.Send(1, 3, msg)
							c.Recv(1, 3, buf)
						} else {
							st := c.Recv(0, 3, buf)
							c.Send(0, 3, buf[:st.Len])
						}
					}
				}
				batch()
				c.Barrier() // compiles the barrier's schedule
				var b *alloctest.Bracket
				if c.Rank() == 0 {
					b = alloctest.Start()
				}
				c.Barrier() // the first cached one
				batch()
				c.Barrier()
				if c.Rank() == 0 {
					first = b.Stop()
					b = alloctest.Start()
				}
				for i := 0; i < 3000; i++ {
					c.Barrier()
				}
				if c.Rank() == 0 {
					more = b.Stop()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if first.Objects != 0 {
				t.Errorf("%s: the first cached Barriers and one echo batch allocate %v\nwant 0", tc.name, first)
			}
			if more.Objects != 0 {
				t.Fatalf("%s: 3000 more cached Barriers allocate %v\nwant 0", tc.name, more)
			}
		})
	}
}

// TestNonblockingP2PAllocBudget pins what a user's nonblocking
// point-to-point message allocates at steady state, on both ranks, in the
// multirail_stream shape: windows of 4 rendezvous Isends (rank 0) and
// Irecvs (rank 1) over the two-rail stack, each closed by WaitAll and a
// one-byte ack. The budget is exactly 2 objects a message, its two
// *Request handles: the call that completes a request gives the CH3
// request behind it back to the free list, where it keeps its bound Done
// predicate, and WaitAll's predicate is bound once per communicator. One-byte messages open and close the bracket on rank
// 1, so that it holds every window of both ranks and nothing else; an eager
// message allocates nothing (TestEagerRoundTripAllocBudget).
func TestNonblockingP2PAllocBudget(t *testing.T) {
	const window, warm, windows = 4, 20, 50
	sizes := []int{40 << 10, 256 << 10} // above the 32 KiB rendezvous threshold
	cfg := xeonCfg(2, cluster.MPICH2NmadMulti())
	cfg.Placement = topo.Placement{0, 1}
	var got alloctest.Result
	_, err := Run(cfg, func(c *Comm) {
		bufs := make([][]byte, window)
		for s := range bufs {
			bufs[s] = make([]byte, sizes[1])
		}
		reqs := make([]*Request, window)
		ack := make([]byte, 1)
		run := func(w int) {
			n := sizes[w%len(sizes)]
			for s, b := range bufs {
				if c.Rank() == 0 {
					reqs[s] = c.Isend(1, s, b[:n])
				} else {
					reqs[s] = c.Irecv(0, s, b[:n])
				}
			}
			c.WaitAll(reqs...)
			if c.Rank() == 0 {
				c.Recv(1, window, ack)
			} else {
				c.Send(0, window, ack)
			}
		}
		for w := 0; w < warm; w++ {
			run(w)
		}
		var b *alloctest.Bracket
		if c.Rank() == 0 {
			b = alloctest.Start()
			c.Send(1, window+1, ack)
		} else {
			c.Recv(0, window+1, ack)
		}
		for w := 0; w < windows; w++ {
			run(w)
		}
		// Rank 1 holds until the bracket is closed: what Run does after
		// the body is not the messages'.
		if c.Rank() == 0 {
			got = b.Stop()
			c.Send(1, window+1, ack)
		} else {
			c.Recv(0, window+1, ack)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * window * windows); got.Objects != want {
		t.Fatalf("%d nonblocking messages allocate %v\nwant %d (2 a message)", window*windows, got, want)
	}
}

// TestWaitPredicatesZeroAlloc pins what waiting on a request without a CH3
// request costs beyond the request itself: nothing. A cached nonblocking
// allreduce closed by Wait, or by WaitAny over its one request, allocates
// exactly one object a call on each rank, its *Request handle, because
// Wait's and WaitAny's predicates are bound once per communicator, as
// WaitAll's is. Rank 0 opens the bracket before a token broadcast lets any
// rank start, and closes it before a second one lets any rank leave.
func TestWaitPredicatesZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const np, warm, calls = 2, 20, 100
	for _, tc := range []struct {
		name string
		wait func(c *Comm, q *Request)
	}{
		{"Wait", func(c *Comm, q *Request) { c.Wait(q) }},
		{"WaitAny", func(c *Comm, q *Request) { c.WaitAny(q) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got alloctest.Result
			_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
				x, token := make([]float64, 16), make([]byte, 1)
				for i := 0; i < warm; i++ {
					c.Bcast(0, token)
					tc.wait(c, c.IallreduceF64(x, OpSum))
					c.Barrier()
				}
				var b *alloctest.Bracket
				if c.Rank() == 0 {
					b = alloctest.Start()
				}
				c.Bcast(0, token)
				for i := 0; i < calls; i++ {
					tc.wait(c, c.IallreduceF64(x, OpSum))
				}
				c.Barrier()
				if c.Rank() == 0 {
					got = b.Stop()
				}
				c.Bcast(0, token)
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(np * calls); got.Objects != want {
				t.Fatalf("%d cached IallreduceF64 closed by %s on %d ranks allocate %v\nwant %d (1 a call: the Request)",
					calls, tc.name, np, got, want)
			}
		})
	}
}

// TestRequestFitsSizeClass pins the Request handle at 80 B or less: every
// nonblocking-collective start allocates one, and coll_storm's
// alloc_kb_per_op rose past its bound when a kept status pushed it into the
// 96 B class.
func TestRequestFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 80 {
		t.Fatalf("Request is %d B, want <= 80", n)
	}
}
