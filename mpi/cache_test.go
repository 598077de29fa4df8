package mpi

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/cluster"
	"repro/internal/coll"
)

// TestSchedCacheCompilesOnce: repeating a collective with the same shape on
// one communicator compiles its schedule exactly once; later invocations
// are cache hits that rebind buffers.
func TestSchedCacheCompilesOnce(t *testing.T) {
	const np = 4
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
		x := make([]float64, 64)
		data := make([]byte, 512)

		c.Wait(c.IallreduceF64(x, OpSum))
		c.Wait(c.Ibcast(0, data))
		compiles0, hits0 := c.SchedCacheStats()

		const reps = 5
		for i := 0; i < reps; i++ {
			// Fresh buffers each time: reuse must come from rebinding, not
			// from pointer identity.
			y := make([]float64, 64)
			buf := make([]byte, 512)
			c.Wait(c.IallreduceF64(y, OpSum))
			c.Wait(c.Ibcast(0, buf))
			// The blocking paths share the same cache entries.
			c.AllreduceF64(y, OpSum)
			c.Bcast(0, buf)
		}
		compiles, hits := c.SchedCacheStats()
		if compiles != compiles0 {
			t.Errorf("rank %d: %d new compiles on repeated shapes, want 0",
				c.Rank(), compiles-compiles0)
		}
		if want := hits0 + 4*reps; hits != want {
			t.Errorf("rank %d: %d cache hits, want %d", c.Rank(), hits, want)
		}

		// A different shape compiles anew...
		c.Wait(c.IallreduceF64(make([]float64, 128), OpSum))
		c2, _ := c.SchedCacheStats()
		if c2 != compiles+1 {
			t.Errorf("rank %d: new shape added %d compiles, want 1", c.Rank(), c2-compiles)
		}
		// ...and a different root does too.
		c.Wait(c.Ibcast(1, data))
		c3, _ := c.SchedCacheStats()
		if c3 != c2+1 {
			t.Errorf("rank %d: new root added %d compiles, want 1", c.Rank(), c3-c2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedCacheDeterminism: cached and uncached runs produce identical
// virtual-time results — compilation is host work, invisible to the
// simulation.
func TestSchedCacheDeterminism(t *testing.T) {
	workload := func(c *Comm) {
		me := c.Rank()
		np := c.Size()
		x := make([]float64, 700) // Rabenseifner regime
		for i := range x {
			x[i] = float64(me + i)
		}
		data := make([]byte, 20<<10) // binomial regime
		mine := make([]byte, 256)
		out := make([][]byte, np)
		for r := range out {
			out[r] = make([]byte, 256)
		}
		for iter := 0; iter < 4; iter++ {
			q := c.IallreduceF64(x, OpSum)
			c.Compute(40e-6)
			c.Wait(q)
			c.Bcast(0, data)
			c.Wait(c.Iallgather(mine, out))
			c.Barrier()
		}
	}
	measure := func(noCache bool) float64 {
		cfg := xeonCfg(8, cluster.MPICH2NmadIB().WithPIOMan(true))
		cfg.NoSchedCache = noCache
		rep, err := Run(cfg, workload)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	cached, uncached := measure(false), measure(true)
	if cached != uncached {
		t.Fatalf("cached run %.9fs != uncached run %.9fs", cached, uncached)
	}
}

// TestSchedCacheConcurrentSameShape: two in-flight collectives with the
// same shape stay correct — the second compiles a throwaway schedule
// instead of rebinding the busy cached one.
func TestSchedCacheConcurrentSameShape(t *testing.T) {
	const np = 4
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
		me := c.Rank()
		a := make([]float64, 32)
		b := make([]float64, 32)
		for i := range a {
			a[i] = float64(me)
			b[i] = float64(10 * me)
		}
		q1 := c.IallreduceF64(a, OpSum)
		q2 := c.IallreduceF64(b, OpSum)
		c.WaitAll(q1, q2)
		sum := float64(np * (np - 1) / 2)
		for i := range a {
			if math.Abs(a[i]-sum) > 1e-9 || math.Abs(b[i]-10*sum) > 1e-9 {
				t.Errorf("rank %d: concurrent same-shape results wrong: %g %g", me, a[i], b[i])
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedCacheNilVsEmpty: nil and zero-length buffers share a cache key
// (the signature only encodes lengths), so flattening them into rebind
// regions must treat them identically (regression: nil-vs-empty repeats
// used to panic with a Rebind shape mismatch).
func TestSchedCacheNilVsEmpty(t *testing.T) {
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		c.Bcast(0, []byte{})
		c.Bcast(0, nil)
		x := make([]float64, 0)
		c.AllreduceF64(x, OpSum)
		c.AllreduceF64(nil, OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForcedAlgorithmsMatch: every registered allreduce/allgather/bcast
// algorithm produces identical results when forced via Config.Coll.
func TestForcedAlgorithmsMatch(t *testing.T) {
	type probe struct {
		op    coll.OpKind
		algos []coll.Algo
	}
	probes := []probe{
		{coll.OpBcast, []coll.Algo{coll.AlgoBinomial, coll.AlgoScatterAllgather}},
		{coll.OpAllreduce, []coll.Algo{coll.AlgoRecDoubling, coll.AlgoRabenseifner}},
		{coll.OpAllgather, []coll.Algo{coll.AlgoRing, coll.AlgoBruck}},
	}
	for _, p := range probes {
		for _, algo := range p.algos {
			p, algo := p, algo
			t.Run(fmt.Sprintf("%s/%s", p.op, algo), func(t *testing.T) {
				cfg := xeonCfg(8, cluster.MPICH2NmadIB())
				cfg.Coll.Force = map[coll.OpKind]coll.Algo{p.op: algo}
				_, err := Run(cfg, func(c *Comm) {
					me := c.Rank()
					np := c.Size()
					switch p.op {
					case coll.OpBcast:
						data := make([]byte, 3000)
						if me == 0 {
							for i := range data {
								data[i] = byte(i * 13)
							}
						}
						c.Bcast(0, data)
						for i := range data {
							if data[i] != byte(i*13) {
								t.Errorf("rank %d: bcast[%d] wrong under %s", me, i, algo)
								return
							}
						}
					case coll.OpAllreduce:
						x := make([]float64, 300)
						for i := range x {
							x[i] = float64(me + i)
						}
						c.AllreduceF64(x, OpSum)
						for i := range x {
							want := float64(np*i) + float64(np*(np-1)/2)
							if math.Abs(x[i]-want) > 1e-9 {
								t.Errorf("rank %d: allreduce[%d] = %g want %g under %s",
									me, i, x[i], want, algo)
								return
							}
						}
					case coll.OpAllgather:
						mine := []byte(fmt.Sprintf("r%02d", me))
						out := make([][]byte, np)
						for r := range out {
							out[r] = make([]byte, len(mine))
						}
						c.Allgather(mine, out)
						for r := range out {
							if string(out[r]) != fmt.Sprintf("r%02d", r) {
								t.Errorf("rank %d: allgather[%d] = %q under %s", me, r, out[r], algo)
								return
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
}

// TestCollectiveValidation: mismatched arguments fail at the entry point
// with a clear per-operation error.
func TestCollectiveValidation(t *testing.T) {
	cases := []struct {
		name string
		want string // substring of the panic message
		call func(c *Comm)
	}{
		{"BcastRoot", "Bcast: root 7", func(c *Comm) { c.Bcast(7, make([]byte, 4)) }},
		{"IbcastRoot", "Ibcast: root -1", func(c *Comm) { c.Ibcast(-1, make([]byte, 4)) }},
		{"AllreduceNilOp", "AllreduceF64: nil reduction operator",
			func(c *Comm) { c.AllreduceF64(make([]float64, 2), nil) }},
		{"AllgatherCount", "Allgather: out has 3 blocks for communicator size 2",
			func(c *Comm) { c.Allgather(make([]byte, 4), make([][]byte, 3)) }},
		{"IallgatherSelf", "Iallgather: out[0] is 2 bytes but this rank contributes 4",
			func(c *Comm) {
				c.Iallgather(make([]byte, 4), [][]byte{make([]byte, 2), make([]byte, 4)})
			}},
		{"AlltoallCount", "Alltoall: send has 1 blocks, recv 2",
			func(c *Comm) { c.Alltoall(make([][]byte, 1), make([][]byte, 2)) }},
		{"GatherCount", "Gather: out has 5 blocks for communicator size 2",
			func(c *Comm) { c.Gather(0, make([]byte, 1), make([][]byte, 5)) }},
		{"IscatterSelf", "Iscatter: blocks[0] is 1 bytes but buf is 3",
			func(c *Comm) {
				c.Iscatter(0, [][]byte{make([]byte, 1), make([]byte, 3)}, make([]byte, 3))
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var msg string
			_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
				if c.Rank() != 0 {
					return
				}
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				tc.call(c)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(msg, tc.want) {
				t.Errorf("panic %q does not contain %q", msg, tc.want)
			}
		})
	}
}

// TestAliasedAlltoallBypassesCache: fully aliased block views (NAS IS's
// class-size volume exchange shares one workspace block across all peers)
// must not enter the schedule cache — positional rebinding cannot tell
// identical regions apart, so a cached aliased schedule would poison a
// later same-key call with distinct blocks. The aliased call compiles a
// throwaway schedule; the distinct-block shape before and after it stays
// cached and correct.
func TestAliasedAlltoallBypassesCache(t *testing.T) {
	const np, b = 4, 8
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		distinct := func(tag byte) ([][]byte, [][]byte) {
			send := make([][]byte, np)
			recv := make([][]byte, np)
			for r := range send {
				send[r] = make([]byte, b)
				for i := range send[r] {
					send[r][i] = tag + byte(me)
				}
				recv[r] = make([]byte, b)
			}
			return send, recv
		}
		verify := func(step string, recv [][]byte, tag byte) {
			for r := range recv {
				for i := range recv[r] {
					if recv[r][i] != tag+byte(r) {
						t.Errorf("rank %d %s: recv[%d][%d] = %d, want %d",
							me, step, r, i, recv[r][i], tag+byte(r))
						return
					}
				}
			}
		}

		s1, r1 := distinct(10)
		c.Alltoall(s1, r1)
		verify("before aliased call", r1, 10)

		// IS-style volume exchange: every block is the same shared buffer
		// on both sides. Data is garbage by design; the call must neither
		// panic nor poison the cache entry for this shape.
		shared := make([]byte, b)
		sharedIn := make([]byte, b)
		aliasedS := make([][]byte, np)
		aliasedR := make([][]byte, np)
		for r := range aliasedS {
			aliasedS[r] = shared
			aliasedR[r] = sharedIn
		}
		c.Alltoall(aliasedS, aliasedR)

		s2, r2 := distinct(100)
		c.Alltoall(s2, r2)
		verify("after aliased call", r2, 100)

		if compiles, hits := c.SchedCacheStats(); compiles != 2 || hits != 1 {
			t.Errorf("rank %d: compiles/hits = %d/%d, want 2/1 (aliased call compiled uncached)",
				me, compiles, hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceAllgatherBypassesCache: aliasing *across* argument slots —
// mine being out[rank], the natural in-place allgather shape — must bypass
// the cache exactly like within-list aliasing: the flattened buffer-args
// view the rebinder sees holds two identical regions, which positional
// rebinding cannot tell apart on a later same-key call.
func TestInPlaceAllgatherBypassesCache(t *testing.T) {
	const np, b = 4, 16
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		mkOut := func(tag byte) [][]byte {
			out := make([][]byte, np)
			for r := range out {
				out[r] = make([]byte, b)
			}
			for i := range out[me] {
				out[me][i] = tag + byte(me)
			}
			return out
		}
		verify := func(step string, out [][]byte, tag byte) {
			for r := range out {
				if out[r][0] != tag+byte(r) || out[r][b-1] != tag+byte(r) {
					t.Errorf("rank %d %s: out[%d] = %v, want filled with %d",
						me, step, r, out[r][:2], tag+byte(r))
					return
				}
			}
		}

		// In-place: mine aliases out[me].
		inPlace := mkOut(10)
		c.Allgather(inPlace[me], inPlace)
		verify("in-place", inPlace, 10)

		// Same key, fully distinct buffers: must not inherit a schedule
		// compiled over the aliased layout.
		out := mkOut(100)
		mine := make([]byte, b)
		copy(mine, out[me])
		c.Allgather(mine, out)
		verify("distinct after in-place", out, 100)

		if compiles, hits := c.SchedCacheStats(); compiles != 2 || hits != 0 {
			t.Errorf("rank %d: compiles/hits = %d/%d, want 2/0 (in-place call compiled uncached)",
				me, compiles, hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// primBindings flattens what every prim of a schedule is bound to — operand
// base pointers and lengths, and the operator — so two snapshots compare
// equal exactly when no rebind wrote a prim in between.
func primBindings(s *coll.Schedule) []any {
	var out []any
	for _, rd := range s.Rounds {
		for _, prims := range [][]coll.Prim{rd.Comm, rd.Local} {
			for _, pr := range prims {
				addr := func(p unsafe.Pointer) uintptr { return uintptr(p) } // DeepEqual would compare pointees
				out = append(out,
					addr(unsafe.Pointer(unsafe.SliceData(pr.Buf))), len(pr.Buf),
					addr(unsafe.Pointer(unsafe.SliceData(pr.Dst))), len(pr.Dst),
					addr(unsafe.Pointer(unsafe.SliceData(pr.AccF64))), len(pr.AccF64),
					addr(unsafe.Pointer(unsafe.SliceData(pr.SrcF64))), len(pr.SrcF64),
					fmt.Sprintf("%p", pr.Op))
			}
		}
	}
	return out
}

// TestRebindOnlyWhenBuffersChange: a cache hit that passes the very buffers
// and operator the schedule is bound to — what a loop over one set of
// buffers does every time — writes no prim; a hit with another buffer or
// another operator rebinds, to exactly what compiling against those
// arguments would have produced (the results are the new call's).
func TestRebindOnlyWhenBuffersChange(t *testing.T) {
	const np = 4
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := float64(c.Rank())
		x, y := make([]float64, 600), make([]float64, 600)
		data := make([]byte, 2048)
		run := func(v []float64, op coll.Op, fill, want float64) {
			for i := range v {
				v[i] = fill + me
			}
			c.AllreduceF64(v, op)
			c.Bcast(0, data)
			if v[0] != want || v[len(v)-1] != want {
				t.Errorf("rank %d: allreduce = %v..%v, want %v", c.Rank(), v[0], v[len(v)-1], want)
			}
		}
		run(x, OpSum, 1, 10) // 1+2+3+4
		var sched *coll.Schedule
		for k, e := range c.cache.entries {
			if k.Op == coll.OpAllreduce {
				sched = e.sched
			}
		}
		bound := primBindings(sched)
		for i := 0; i < 3; i++ {
			run(x, OpSum, float64(i), float64(4*i+6))
		}
		if c.cache.rebinds != 0 || !reflect.DeepEqual(primBindings(sched), bound) {
			t.Errorf("rank %d: same-buffer repeats rebound %d times or wrote a prim", c.Rank(), c.cache.rebinds)
		}
		run(y, OpSum, 2, 14)
		if c.cache.rebinds != 1 || reflect.DeepEqual(primBindings(sched), bound) {
			t.Errorf("rank %d: a new buffer rebound %d times, want 1", c.Rank(), c.cache.rebinds)
		}
		if x[0] != 14 { // the last x result (i=2): untouched by the call on y
			t.Errorf("rank %d: x[0] = %v after a call on y", c.Rank(), x[0])
		}
		run(y, OpMax, 2, 5)
		run(y, OpMax, 3, 6)
		if c.cache.rebinds != 2 {
			t.Errorf("rank %d: a new operator then a repeat rebound %d times in all, want 2", c.Rank(), c.cache.rebinds)
		}
		run(x, OpSum, 1, 10)
		if c.cache.rebinds != 3 || !reflect.DeepEqual(primBindings(sched), bound) {
			t.Errorf("rank %d: back on the first buffers: %d rebinds, bindings restored = %v",
				c.Rank(), c.cache.rebinds, reflect.DeepEqual(primBindings(sched), bound))
		}
		if _, hits := c.SchedCacheStats(); hits != 2*7 {
			t.Errorf("rank %d: %d cache hits, want 14", c.Rank(), hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
