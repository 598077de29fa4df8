package main

import (
	"math/rand"
	"time"

	"repro/cluster"
	"repro/internal/coll/tune"
	"repro/internal/topo"
	"repro/mpi"
)

// Full-scale shape of coll_storm (bench.CollStorm's, with a compute window
// between start and wait so lost overlap shows in virtual time).
//
// The issue asked for 5000 in flight. There an op costs 1.8 times what it
// costs at 1000 (55 000 against 97 000 ops/s; 74 000 at 3000, 82 000 at
// 2000), the live heap is 47 MB against 5 MB, and the difference is misses
// in the last-level cache the sandbox shares with its host's other guests:
// two sets of ten runs of one commit twenty minutes apart read 40 200 and
// 50 800 ops/s, each set within 5-10 % of itself, and a neighbour walking a
// 128 MB table took up to 37 % off the storm at 5000 and nothing at 1000.
// A workload the machine moves by its whole bound measures the machine, so
// the workload runs at 1000, five refills to a batch, and the deep storm
// stays in view as ch3.depth_slope.
const (
	stormNP       = 8
	stormSplits   = 3
	stormInFlight = 1000
	stormDeep     = 5000 // ch3.depth_slope compares this depth with stormInFlight
	stormRefills  = 5    // per batch
	stormVecLen   = 16
	stormCompute  = 300e-6
)

// runCollStorm keeps inFlight nonblocking allreduces outstanding across
// three sibling Split communicators under PIOMan. A refill starts the
// window, computes and waits for all; a batch is stormRefills of them. An op
// is one allreduce call on one rank; every element of every result is
// checked against the serial sum.
func runCollStorm(o *runOpts, inFlight int) (*runOut, error) {
	t0 := cpuNow()
	rng := rand.New(rand.NewSource(o.seed))
	perRank := o.scaled((inFlight + stormNP - 1) / stormNP)
	// Slot-unique vector lengths (slot s reduces stormVecLen+s elements):
	// each slot keeps its own schedule-cache key, so refills after the first
	// run on cache hits. The storm is chaotic in its inputs — lengthening
	// every vector by one element, or permuting lengths among slots, moves
	// its virtual time by 5 % and its allocations by 3 % (which arrivals are
	// unexpected changes) — so the seed only lengthens the last slot by up
	// to 7 elements, picks the values reduced and stretches the compute
	// window by up to a microsecond (the last slot alone leaves virtual time
	// as it is, and the driver refuses a time no seed moves).
	extra := rng.Intn(8)
	compute := stormCompute + float64(rng.Intn(1000))*1e-9
	base := make([]float64, perRank)
	for s := range base {
		base[s] = float64(rng.Intn(8))
	}

	// Refills do not repeat in virtual time: ranks leave the barrier between
	// batches with a skew that depends on how the previous refill drained, so
	// batch lengths cycle (period 3 at the default seed, within about 3 %).
	// The sequence itself is deterministic, which the per-layer pass checks
	// by running it twice.
	out := &runOut{np: stormNP, opsPerBatch: int64(stormRefills * stormNP * perRank), batchesVary: true}
	clus := cluster.Xeon2()
	cfg := mpi.Config{Cluster: clus, Stack: cluster.MPICH2NmadIB().WithPIOMan(true), NP: stormNP,
		Placement: topo.RoundRobin(stormNP, clus.NumNodes), Pioman: mpi.PiomanConfig{Workers: 1}}
	err := runWorld(o, out, t0, cfg, func(c *mpi.Comm, w *inWorld) {
		me := c.Rank()
		subs := make([]*mpi.Comm, stormSplits)
		for k := range subs {
			subs[k] = c.Split((me>>k)&1, me)
		}
		bufs := make([][]float64, perRank)
		for s := range bufs {
			bufs[s] = make([]float64, stormVecLen+s)
		}
		bufs[perRank-1] = make([]float64, stormVecLen+perRank-1+extra)
		reqs := make([]*mpi.Request, perRank)
		refill := func() {
			var startNs int64
			for s, x := range bufs {
				sub := subs[s%stormSplits]
				for i := range x {
					x[i] = float64((sub.Rank()+1)*(1+i%3)) + base[s]
				}
				if me == 0 && w.o.spans != nil {
					t := time.Now()
					reqs[s] = sub.IallreduceF64(x, mpi.OpSum)
					startNs += time.Since(t).Nanoseconds()
				} else {
					reqs[s] = sub.IallreduceF64(x, mpi.OpSum)
				}
			}
			c.Compute(compute)
			c.WaitAll(reqs...)
			for s, x := range bufs {
				sz := subs[s%stormSplits].Size()
				tri := float64(sz * (sz + 1) / 2)
				for i, got := range x {
					if want := tri*float64(1+i%3) + float64(sz)*base[s]; got != want {
						out.fail(1, "rank %d slot %d elem %d: allreduce %v, want %v", me, s, i, got, want)
						break
					}
				}
			}
			if me == 0 && w.o.spans != nil {
				out.startNs += startNs
				out.startCalls += int64(perRank)
				w.o.spans.add("mpi", "IallreduceF64 start calls", startNs, int64(perRank))
			}
		}
		batch := func() {
			for r := 0; r < stormRefills; r++ {
				refill()
			}
		}
		batch()
		for w.next(c) {
			batch()
		}
	})
	return out, err
}

// Full-scale shape of coll_sweep.
const (
	sweepNP    = 16
	sweepIters = 2 // invocations per shape and batch
)

// shape is one (collective, size) pair of the sweep on one rank. prepare
// stamps the send buffers with it and wipes the receive buffers; it may only
// run behind a barrier (see runCollSweep). run performs one invocation and
// check verifies its result.
type shape struct {
	prepare func(it uint64)
	run     func(it uint64)
	check   func(it uint64) bool
}

// runCollSweep cycles blocking collectives over 6 ops × 4 size classes on
// 16 ranks, two nodes, with the embedded tuned table. After the warm-up
// batch every invocation is a schedule-cache hit. An op is one collective
// call on one rank.
func runCollSweep(o *runOpts) (*runOut, error) {
	t0 := cpuNow()
	rng := rand.New(rand.NewSource(o.seed))
	const np = sweepNP
	const nOps = 6
	type plan struct {
		op   int
		size int
		key  uint64
		root int
		w    []int // skew weights for the vector ops
	}
	var plans []plan
	for k, base := range []int{256, 4 << 10, 64 << 10, 512 << 10} {
		for op := 0; op < nOps; op++ {
			p := plan{op: op, size: jitter(rng, base) &^ 7, key: rng.Uint64(), root: (5*op + 3*k) % np}
			// The skew is a fixed cycle of weights, zero-length blocks
			// included. It is not seeded: which pairs carry the heavy blocks
			// (same node or not) moves virtual time by 6 %, more than two
			// seeds may differ by.
			for j := 0; j < np; j++ {
				p.w = append(p.w, j%4)
			}
			plans = append(plans, p)
		}
	}
	// The order of the shapes is fixed too: back-to-back collectives overlap
	// at their edges, so even rotating the cycle moves a batch's virtual time
	// by up to 12 %.
	iters := o.scaled(sweepIters)

	out := &runOut{np: np, opsPerBatch: int64(len(plans) * iters * np)}
	clus := cluster.Xeon2()
	stack := cluster.MPICH2NmadIB()
	cfg := mpi.Config{Cluster: clus, Stack: stack, NP: np, Placement: topo.Block(np, clus.NumNodes)}
	endTab := o.spans.begin("tune", "TableFor")
	cfg.Coll.Table = tune.TableFor(stack.Name)
	endTab()
	err := runWorld(o, out, t0, cfg, func(c *mpi.Comm, w *inWorld) {
		me := c.Rank()
		shapes := make([]shape, len(plans))
		for i, p := range plans {
			switch p.op {
			case 0:
				shapes[i] = bcastShape(c, p.root, p.size, p.key)
			case 1:
				shapes[i] = allreduceShape(c, p.size/8)
			case 2:
				shapes[i] = allgatherShape(c, p.size/np, p.key)
			case 3:
				shapes[i] = alltoallShape(c, p.size/np, p.key)
			case 4:
				shapes[i] = alltoallvShape(c, p.size/np, p.key, p.w)
			case 5:
				shapes[i] = reduceScatterShape(c, p.size/8/np, p.w)
			}
		}
		// The simulator moves eager payloads by reference: a rank that
		// rewrites a buffer right after a collective returns can still change
		// what a slower peer receives or forwards. So payload buffers are
		// only touched behind a barrier, once per cycle through the shapes:
		// fresh stamps on what is sent, wiped stamps on what is received, so
		// a transfer that never lands is caught.
		var it uint64
		batch := func() {
			for k := 0; k < iters; k++ {
				it++
				c.Barrier()
				for _, sh := range shapes {
					sh.prepare(it)
				}
				for i, sh := range shapes {
					sh.run(it)
					if !sh.check(it) {
						out.fail(1, "rank %d shape %d (op %d, %d B) cycle %d: wrong result",
							me, i, plans[i].op, plans[i].size, it)
					}
				}
			}
		}
		batch()
		for w.next(c) {
			batch()
		}
	})
	return out, err
}

// blockKey derives the pattern key of the block rank src contributes
// (toward dst, for the personalized exchanges) under one shape key.
func blockKey(key uint64, src, dst int) uint64 { return key + uint64(src)*1009 + uint64(dst)*9176 }

func bcastShape(c *mpi.Comm, root, n int, key uint64) shape {
	data, want := make([]byte, n), make([]byte, n)
	fillPattern(data, key)
	fillPattern(want, key)
	return shape{
		prepare: func(it uint64) {
			stamp(want, it)
			if c.Rank() == root {
				stamp(data, it)
			} else {
				wipeStamps(data)
			}
		},
		run:   func(uint64) { c.Bcast(root, data) },
		check: func(uint64) bool { return sameBytes(data, want) },
	}
}

// f64Stride is how densely long float vectors are checked.
const f64Stride = 61

// sameF64 checks got[i] == want(i) for every element of a short vector and
// for every f64Stride-th element plus the last of a long one.
func sameF64(got []float64, want func(i int) float64) bool {
	step := 1
	if len(got) > fullCheckMax/8 {
		step = f64Stride
	}
	for i := 0; i < len(got); i += step {
		if got[i] != want(i) {
			return false
		}
	}
	n := len(got)
	return n == 0 || got[n-1] == want(n-1)
}

func allreduceShape(c *mpi.Comm, n int) shape {
	x := make([]float64, n)
	np, me := c.Size(), c.Rank()
	tri := float64(np * (np + 1) / 2)
	return shape{
		// Float vectors are encoded into fresh wire buffers when sent, so
		// refilling x between invocations is safe.
		prepare: func(uint64) {},
		run: func(it uint64) {
			for i := range x {
				x[i] = float64((me+1)*(1+i%5)) + float64(it%7)
			}
			c.AllreduceF64(x, mpi.OpSum)
		},
		check: func(it uint64) bool {
			return sameF64(x, func(i int) float64 { return tri*float64(1+i%5) + float64(np)*float64(it%7) })
		},
	}
}

func allgatherShape(c *mpi.Comm, block int, key uint64) shape {
	np, me := c.Size(), c.Rank()
	mine := make([]byte, block)
	fillPattern(mine, blockKey(key, me, 0))
	out, want := make([][]byte, np), make([][]byte, np)
	for r := range out {
		out[r], want[r] = make([]byte, block), make([]byte, block)
		fillPattern(want[r], blockKey(key, r, 0))
	}
	return shape{
		prepare: func(it uint64) {
			stamp(mine, it)
			for r := range out {
				wipeStamps(out[r])
				stamp(want[r], it)
			}
		},
		run:   func(uint64) { c.Allgather(mine, out) },
		check: func(uint64) bool { return sameBlocks(out, want) },
	}
}

func alltoallShape(c *mpi.Comm, block int, key uint64) shape {
	np, me := c.Size(), c.Rank()
	send, recv, want := make([][]byte, np), make([][]byte, np), make([][]byte, np)
	for r := range send {
		send[r], recv[r], want[r] = make([]byte, block), make([]byte, block), make([]byte, block)
		fillPattern(send[r], blockKey(key, me, r))
		fillPattern(want[r], blockKey(key, r, me))
	}
	return shape{
		prepare: func(it uint64) { stampBlocks(send, recv, want, it) },
		run:     func(uint64) { c.Alltoall(send, recv) },
		check:   func(uint64) bool { return sameBlocks(recv, want) },
	}
}

// stampBlocks prepares a personalized exchange: stamps on every send block
// and expected block, wiped stamps on every receive block.
func stampBlocks(send, recv, want [][]byte, it uint64) {
	for r := range send {
		stamp(send[r], it)
		wipeStamps(recv[r])
		stamp(want[r], it)
	}
}

func sameBlocks(got, want [][]byte) bool {
	for r := range got {
		if !sameBytes(got[r], want[r]) {
			return false
		}
	}
	return true
}

// skewCount is the seeded count matrix of the vector ops: a function of
// (src, dst) only, so every rank derives its send row and receive column.
func skewCount(w []int, block, src, dst int) int {
	return (block * w[(src*3+dst)%len(w)] / 2) &^ 7
}

// cut slices a packed flat buffer into blocks of the given counts.
func cut(flat []byte, counts []int) [][]byte {
	blocks := make([][]byte, len(counts))
	off := 0
	for i, n := range counts {
		blocks[i] = flat[off : off+n]
		off += n
	}
	return blocks
}

func alltoallvShape(c *mpi.Comm, block int, key uint64, w []int) shape {
	np, me := c.Size(), c.Rank()
	scounts, rcounts := make([]int, np), make([]int, np)
	sTotal, rTotal := 0, 0
	for r := 0; r < np; r++ {
		scounts[r], rcounts[r] = skewCount(w, block, me, r), skewCount(w, block, r, me)
		sTotal += scounts[r]
		rTotal += rcounts[r]
	}
	sbuf, rbuf, wbuf := make([]byte, sTotal), make([]byte, rTotal), make([]byte, rTotal)
	send, recv, want := cut(sbuf, scounts), cut(rbuf, rcounts), cut(wbuf, rcounts)
	for r := 0; r < np; r++ {
		fillPattern(send[r], blockKey(key, me, r))
		fillPattern(want[r], blockKey(key, r, me))
	}
	return shape{
		prepare: func(it uint64) { stampBlocks(send, recv, want, it) },
		run:     func(uint64) { c.Alltoallv(sbuf, scounts, nil, rbuf, rcounts, nil) },
		check:   func(uint64) bool { return sameBlocks(recv, want) },
	}
}

func reduceScatterShape(c *mpi.Comm, elems int, w []int) shape {
	np, me := c.Size(), c.Rank()
	counts := make([]int, np)
	total, off := 0, 0
	for r := range counts {
		counts[r] = elems * w[r%len(w)] / 2
		if r < me {
			off += counts[r]
		}
		total += counts[r]
	}
	x, recv := make([]float64, total), make([]float64, counts[me])
	tri := float64(np * (np + 1) / 2)
	return shape{
		prepare: func(uint64) {},
		run: func(it uint64) {
			for i := range x {
				x[i] = float64((me+1)*(1+i%5)) + float64(it%7)
			}
			c.ReduceScatterF64(x, recv, counts, mpi.OpSum)
		},
		check: func(it uint64) bool {
			return sameF64(recv, func(i int) float64 {
				return tri*float64(1+(off+i)%5) + float64(np)*float64(it%7)
			})
		},
	}
}
