package coll

// Conformance harness: every registered (op, algo) builder pair is executed
// over the in-memory fabric on randomized rank counts, counts vectors and
// payloads, and its observable outputs are compared byte-for-byte against
// straight-line reference collectives — plain loops of sends and receives
// with none of the algorithms' structure. The harness walks Registrations(),
// so a newly registered algorithm is covered automatically (or fails the
// generator switch until a generator exists). Reduction inputs are
// integer-valued, making every fold order exact in float64 — equality is
// exact, not approximate.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

const confTag int32 = 77

// rankOut collects one rank's observable outputs for comparison.
type rankOut struct {
	B [][]byte
	X [][]float64
}

// runConf executes fn on np concurrent peers over a fresh fabric and
// returns the per-rank outputs. A watchdog converts the stall that follows
// a mid-schedule panic (surviving peers block in RecvT on messages that
// will never arrive) into a prompt failure carrying the panic message,
// instead of a go-test timeout with a goroutine dump.
func runConf(t *testing.T, np int, fn func(p *peer) rankOut) []rankOut {
	t.Helper()
	outs := make([]rankOut, np)
	f := newFabric(np)
	var wg sync.WaitGroup
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs <- fmt.Errorf("rank %d panicked: %v", r, e)
				}
			}()
			outs[r] = fn(&peer{f: f, rank: r})
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		var stalled []string
	drain:
		for {
			select {
			case e := <-errs:
				stalled = append(stalled, e.Error())
			default:
				break drain
			}
		}
		t.Fatalf("conformance run stalled — a rank likely panicked mid-schedule: %v", stalled)
	}
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	return outs
}

// ---- straight-line reference collectives ------------------------------------
//
// Each reference is the simplest correct data movement: rooted fan-in/out
// loops, or everyone-sends-to-everyone. They share nothing with the
// schedule builders under test.

func refBarrier(p *peer) {
	n := p.Size()
	if p.rank == 0 {
		for r := 1; r < n; r++ {
			p.RecvT(r, confTag, nil)
		}
		for r := 1; r < n; r++ {
			p.SendT(r, confTag, nil, 0)
		}
		return
	}
	p.SendT(0, confTag, nil, 0)
	p.RecvT(0, confTag, nil)
}

func refBcast(p *peer, root int, data []byte) {
	if p.rank == root {
		for r := 0; r < p.Size(); r++ {
			if r != root {
				p.SendT(r, confTag, data, 0)
			}
		}
		return
	}
	p.RecvT(root, confTag, data)
}

func refReduce(p *peer, root int, x []float64, op Op) {
	if p.rank != root {
		p.SendT(root, confTag, F64Bytes(x), 0)
		return
	}
	buf := make([]byte, 8*len(x))
	tmp := make([]float64, len(x))
	for r := 0; r < p.Size(); r++ {
		if r == root {
			continue
		}
		p.RecvT(r, confTag, buf)
		BytesF64(tmp, buf)
		for i := range x {
			x[i] = op(x[i], tmp[i])
		}
	}
}

func refAllreduce(p *peer, x []float64, op Op) {
	refReduce(p, 0, x, op)
	if p.rank == 0 {
		refBcast(p, 0, F64Bytes(x))
		return
	}
	buf := make([]byte, 8*len(x))
	refBcast(p, 0, buf)
	BytesF64(x, buf)
}

// refAllgather serves allgather and allgatherv alike: block lengths are
// whatever the out views say.
func refAllgather(p *peer, mine []byte, out [][]byte) {
	copy(out[p.rank], mine)
	for r := 0; r < p.Size(); r++ {
		if r != p.rank {
			p.SendT(r, confTag, mine, 0)
		}
	}
	for r := 0; r < p.Size(); r++ {
		if r != p.rank {
			p.RecvT(r, confTag, out[r])
		}
	}
}

// refAlltoall serves alltoall and alltoallv alike.
func refAlltoall(p *peer, send, recv [][]byte) {
	copy(recv[p.rank], send[p.rank])
	for d := 0; d < p.Size(); d++ {
		if d != p.rank {
			p.SendT(d, confTag, send[d], 0)
		}
	}
	for s := 0; s < p.Size(); s++ {
		if s != p.rank {
			p.RecvT(s, confTag, recv[s])
		}
	}
}

func refGather(p *peer, root int, mine []byte, out [][]byte) {
	if p.rank != root {
		p.SendT(root, confTag, mine, 0)
		return
	}
	copy(out[root], mine)
	for r := 0; r < p.Size(); r++ {
		if r != root {
			p.RecvT(r, confTag, out[r])
		}
	}
}

func refScatter(p *peer, root int, blocks [][]byte, buf []byte) {
	if p.rank != root {
		p.RecvT(root, confTag, buf)
		return
	}
	copy(buf, blocks[root])
	for r := 0; r < p.Size(); r++ {
		if r != root {
			p.SendT(r, confTag, blocks[r], 0)
		}
	}
}

func refReduceScatter(p *peer, x, recv []float64, counts []int, op Op) {
	win := prefixSums(counts)
	if p.rank != 0 {
		p.SendT(0, confTag, F64Bytes(x), 0)
		buf := make([]byte, 8*counts[p.rank])
		p.RecvT(0, confTag, buf)
		BytesF64(recv, buf)
		return
	}
	acc := append([]float64(nil), x...)
	buf := make([]byte, 8*len(x))
	tmp := make([]float64, len(x))
	for r := 1; r < p.Size(); r++ {
		p.RecvT(r, confTag, buf)
		BytesF64(tmp, buf)
		for i := range acc {
			acc[i] = op(acc[i], tmp[i])
		}
	}
	for r := 1; r < p.Size(); r++ {
		p.SendT(r, confTag, F64Bytes(acc[win[r]:win[r+1]]), 0)
	}
	copy(recv, acc[win[0]:win[1]])
}

// ---- randomized input generation --------------------------------------------

var confLens = []int{0, 1, 3, 8, 17, 64, 257}

func confLen(rng *rand.Rand) int { return confLens[rng.Intn(len(confLens))] }

func confBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// confF64s returns integer-valued floats so any reduction order is exact.
func confF64s(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(17) - 8)
	}
	return xs
}

func confCounts(rng *rand.Rand, np int) []int {
	counts := make([]int, np)
	for r := range counts {
		if rng.Intn(4) == 0 {
			continue // zero-length block
		}
		counts[r] = 1 + rng.Intn(64)
	}
	return counts
}

func confOp(rng *rand.Rand) Op {
	if rng.Intn(2) == 0 {
		return OpSum
	}
	return OpMax
}

func confNodes(rng *rand.Rand, np int) []int {
	k := 1 + rng.Intn(np)
	nodes := make([]int, np)
	for r := range nodes {
		nodes[r] = rng.Intn(k)
	}
	return nodes
}

func cpb(b []byte) []byte { return append([]byte(nil), b...) }

func cpf(x []float64) []float64 { return append([]float64(nil), x...) }

// ---- the harness ------------------------------------------------------------

// confStripe, when set, is injected into every Args confExec builds: the
// striped conformance sweep re-runs the whole harness under a two-rail
// striping. The fabric ignores the rail hints —
// equality then asserts striping changes which wires data would ride, never
// what data moves.
var confStripe Striping

// confExec builds every rank's schedule on the test goroutine (asserting
// the round-shape deadlock-freedom invariant), executes them over the
// fabric, and returns the per-rank outputs read by out.
func confExec(t *testing.T, label string, reg Registration, np int,
	mkArgs func(rank int) Args, out func(rank int) rankOut) []rankOut {
	t.Helper()
	scheds := make([]*Schedule, np)
	for r := 0; r < np; r++ {
		a := mkArgs(r)
		a.Rank, a.Size = r, np
		a.Stripe, a.Rails = confStripe.Width, confStripe.Rails
		scheds[r] = Build(Key{Op: reg.Op, Algo: reg.Algo}, a)
		checkRoundShape(t, scheds[r], fmt.Sprintf("%s/r%d", label, r))
	}
	runConf(t, np, func(p *peer) rankOut {
		ExecBlocking(p, scheds[p.rank], confTag, nil)
		return rankOut{}
	})
	outs := make([]rankOut, np)
	for r := 0; r < np; r++ {
		outs[r] = out(r)
	}
	return outs
}

func confCompare(t *testing.T, label string, algo, ref []rankOut) {
	t.Helper()
	for r := range algo {
		if !reflect.DeepEqual(algo[r], ref[r]) {
			t.Fatalf("%s: rank %d diverges from the reference\n algo: %+v\n  ref: %+v",
				label, r, algo[r], ref[r])
		}
	}
}

// confTrial runs one randomized conformance instance for a registered
// (op, algo) pair: identical inputs through the schedule builder and
// through the straight-line reference, outputs compared exactly.
func confTrial(t *testing.T, reg Registration, np int, nodes []int, rng *rand.Rand) {
	t.Helper()
	label := fmt.Sprintf("%s/%s/np%d", reg.Op, reg.Algo, np)
	root := rng.Intn(np)

	switch reg.Op {
	case OpBarrier:
		a := confExec(t, label, reg, np,
			func(rank int) Args { return Args{Nodes: nodes} },
			func(rank int) rankOut { return rankOut{} })
		ref := runConf(t, np, func(p *peer) rankOut { refBarrier(p); return rankOut{} })
		confCompare(t, label, a, ref)

	case OpBcast:
		data := confBytes(rng, confLen(rng))
		bufs := make([][]byte, np)
		mk := func() func(rank int) []byte {
			return func(rank int) []byte {
				buf := make([]byte, len(data))
				if rank == root {
					copy(buf, data)
				} else {
					for i := range buf {
						buf[i] = 0xAA
					}
				}
				return buf
			}
		}
		mkBuf := mk()
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				bufs[rank] = mkBuf(rank)
				return Args{Root: root, Data: bufs[rank], Nodes: nodes}
			},
			func(rank int) rankOut { return rankOut{B: [][]byte{bufs[rank]}} })
		mkRef := mk()
		ref := runConf(t, np, func(p *peer) rankOut {
			buf := mkRef(p.rank)
			refBcast(p, root, buf)
			return rankOut{B: [][]byte{buf}}
		})
		confCompare(t, label, a, ref)

	case OpReduce:
		m := confLen(rng)
		op := confOp(rng)
		xs := make([][]float64, np)
		for r := range xs {
			xs[r] = confF64s(rng, m)
		}
		vecs := make([][]float64, np)
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				vecs[rank] = cpf(xs[rank])
				return Args{Root: root, X: vecs[rank], Op: op, Nodes: nodes}
			},
			func(rank int) rankOut {
				if rank != root {
					return rankOut{} // non-root x is scratch, by contract
				}
				return rankOut{X: [][]float64{vecs[rank]}}
			})
		ref := runConf(t, np, func(p *peer) rankOut {
			x := cpf(xs[p.rank])
			refReduce(p, root, x, op)
			if p.rank != root {
				return rankOut{}
			}
			return rankOut{X: [][]float64{x}}
		})
		confCompare(t, label, a, ref)

	case OpAllreduce:
		m := confLen(rng)
		op := confOp(rng)
		xs := make([][]float64, np)
		for r := range xs {
			xs[r] = confF64s(rng, m)
		}
		vecs := make([][]float64, np)
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				vecs[rank] = cpf(xs[rank])
				return Args{X: vecs[rank], Op: op, Nodes: nodes}
			},
			func(rank int) rankOut { return rankOut{X: [][]float64{vecs[rank]}} })
		ref := runConf(t, np, func(p *peer) rankOut {
			x := cpf(xs[p.rank])
			refAllreduce(p, x, op)
			return rankOut{X: [][]float64{x}}
		})
		confCompare(t, label, a, ref)

	case OpAllgather, OpAllgatherv:
		var counts []int
		if reg.Op == OpAllgather {
			b := confLen(rng)
			counts = make([]int, np)
			for r := range counts {
				counts[r] = b
			}
		} else {
			counts = confCounts(rng, np)
		}
		mines := make([][]byte, np)
		for r := range mines {
			mines[r] = confBytes(rng, counts[r])
		}
		mkOut := func() [][]byte {
			out := make([][]byte, np)
			for r := range out {
				out[r] = make([]byte, counts[r])
			}
			return out
		}
		outs := make([][][]byte, np)
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				outs[rank] = mkOut()
				return Args{Mine: cpb(mines[rank]), Out: outs[rank],
					RCounts: counts, Nodes: nodes}
			},
			func(rank int) rankOut { return rankOut{B: outs[rank]} })
		ref := runConf(t, np, func(p *peer) rankOut {
			out := mkOut()
			refAllgather(p, cpb(mines[p.rank]), out)
			return rankOut{B: out}
		})
		confCompare(t, label, a, ref)

	case OpAlltoall, OpAlltoallv:
		// counts[s][d] is the globally agreed matrix; alltoall is the
		// uniform special case (the two-level builder requires it).
		counts := make([][]int, np)
		if reg.Op == OpAlltoall {
			b := confLen(rng)
			for s := range counts {
				counts[s] = make([]int, np)
				for d := range counts[s] {
					counts[s][d] = b
				}
			}
		} else {
			for s := range counts {
				counts[s] = confCounts(rng, np)
			}
		}
		sends := make([][][]byte, np)
		for s := range sends {
			sends[s] = make([][]byte, np)
			for d := range sends[s] {
				sends[s][d] = confBytes(rng, counts[s][d])
			}
		}
		mkRecv := func(rank int) [][]byte {
			recv := make([][]byte, np)
			for s := range recv {
				recv[s] = make([]byte, counts[s][rank])
			}
			return recv
		}
		cpSend := func(rank int) [][]byte {
			send := make([][]byte, np)
			for d := range send {
				send[d] = cpb(sends[rank][d])
			}
			return send
		}
		recvs := make([][][]byte, np)
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				recvs[rank] = mkRecv(rank)
				return Args{Send: cpSend(rank), Recv: recvs[rank], Nodes: nodes}
			},
			func(rank int) rankOut { return rankOut{B: recvs[rank]} })
		ref := runConf(t, np, func(p *peer) rankOut {
			recv := mkRecv(p.rank)
			refAlltoall(p, cpSend(p.rank), recv)
			return rankOut{B: recv}
		})
		confCompare(t, label, a, ref)

	case OpGather, OpGatherv:
		var counts []int
		if reg.Op == OpGather {
			b := confLen(rng)
			counts = make([]int, np)
			for r := range counts {
				counts[r] = b
			}
		} else {
			counts = confCounts(rng, np)
		}
		mines := make([][]byte, np)
		for r := range mines {
			mines[r] = confBytes(rng, counts[r])
		}
		mkOut := func() [][]byte {
			out := make([][]byte, np)
			for r := range out {
				out[r] = make([]byte, counts[r])
			}
			return out
		}
		outs := make([][][]byte, np)
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				a := Args{Root: root, Mine: cpb(mines[rank]), Nodes: nodes}
				if rank == root {
					outs[rank] = mkOut()
					a.Out = outs[rank]
				}
				return a
			},
			func(rank int) rankOut {
				if rank != root {
					return rankOut{}
				}
				return rankOut{B: outs[rank]}
			})
		ref := runConf(t, np, func(p *peer) rankOut {
			if p.rank != root {
				refGather(p, root, cpb(mines[p.rank]), nil)
				return rankOut{}
			}
			out := mkOut()
			refGather(p, root, cpb(mines[p.rank]), out)
			return rankOut{B: out}
		})
		confCompare(t, label, a, ref)

	case OpScatter, OpScatterv:
		var counts []int
		if reg.Op == OpScatter {
			b := confLen(rng)
			counts = make([]int, np)
			for r := range counts {
				counts[r] = b
			}
		} else {
			counts = confCounts(rng, np)
		}
		blocks := make([][]byte, np)
		for r := range blocks {
			blocks[r] = confBytes(rng, counts[r])
		}
		cpBlocks := func() [][]byte {
			bs := make([][]byte, np)
			for r := range bs {
				bs[r] = cpb(blocks[r])
			}
			return bs
		}
		bufs := make([][]byte, np)
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				bufs[rank] = make([]byte, counts[rank])
				a := Args{Root: root, Mine: bufs[rank], Nodes: nodes}
				if rank == root {
					a.Send = cpBlocks()
				}
				return a
			},
			func(rank int) rankOut { return rankOut{B: [][]byte{bufs[rank]}} })
		ref := runConf(t, np, func(p *peer) rankOut {
			buf := make([]byte, counts[p.rank])
			if p.rank == root {
				refScatter(p, root, cpBlocks(), buf)
			} else {
				refScatter(p, root, nil, buf)
			}
			return rankOut{B: [][]byte{buf}}
		})
		confCompare(t, label, a, ref)

	case OpReduceScatter:
		counts := confCounts(rng, np)
		op := confOp(rng)
		total := 0
		for _, n := range counts {
			total += n
		}
		xs := make([][]float64, np)
		for r := range xs {
			xs[r] = confF64s(rng, total)
		}
		recvs := make([][]float64, np)
		a := confExec(t, label, reg, np,
			func(rank int) Args {
				recvs[rank] = make([]float64, counts[rank])
				return Args{X: cpf(xs[rank]), RecvF64: recvs[rank],
					RCounts: counts, Op: op, Nodes: nodes}
			},
			func(rank int) rankOut { return rankOut{X: [][]float64{recvs[rank]}} })
		ref := runConf(t, np, func(p *peer) rankOut {
			recv := make([]float64, counts[p.rank])
			refReduceScatter(p, cpf(xs[p.rank]), recv, counts, op)
			return rankOut{X: [][]float64{recv}}
		})
		confCompare(t, label, a, ref)

	default:
		t.Fatalf("no conformance generator for op %s — every registered pair must be covered", reg.Op)
	}
}

// TestConformanceAllRegisteredPairs is the registry-wide conformance sweep:
// every (op, algo) pair × rank counts (power-of-two and not) × randomized
// payloads/counts/roots, against the straight-line references.
func TestConformanceAllRegisteredPairs(t *testing.T) {
	regs := Registrations()
	seen := make(map[OpKind]bool)
	for _, reg := range regs {
		seen[reg.Op] = true
	}
	for op := OpKind(0); op < numOps; op++ {
		if !seen[op] {
			t.Fatalf("op %s has no registered builders", op)
		}
	}

	nps := []int{1, 2, 3, 4, 5, 7, 8, 12}
	for _, reg := range regs {
		reg := reg
		t.Run(fmt.Sprintf("%s/%s", reg.Op, reg.Algo), func(t *testing.T) {
			for _, np := range nps {
				rng := rand.New(rand.NewSource(
					int64(reg.Op)<<20 | int64(reg.Algo)<<12 | int64(np)))
				for trial := 0; trial < 3; trial++ {
					var nodes []int
					if reg.Algo == AlgoTwoLevel {
						nodes = confNodes(rng, np)
					}
					confTrial(t, reg, np, nodes, rng)
				}
			}
		})
	}
}

// TestConformanceStripedPairs re-runs the conformance sweep for every
// striped-capable (op, algo) pair with a two-rail striping injected into the
// builders' Args, asserting exact equality against the same straight-line
// references. The rail hints are dropped by the fabric, so any divergence
// would mean the striped compile path altered the data movement itself.
func TestConformanceStripedPairs(t *testing.T) {
	confStripe = Striping{Width: 2, Rails: []RailInfo{
		{Name: "ib", LatencyNS: 1200, BytesPerSec: 1.25e9},
		{Name: "mx", LatencyNS: 2000, BytesPerSec: 1.15e9},
	}}
	// The default payload ladder tops out far below stripeMinBytes; the
	// striped sweep needs payloads whose sends actually carry the -width
	// stamp (9000 B > 8 KiB directly, 2048 float64s = 16 KiB encoded).
	oldLens := confLens
	confLens = []int{513, 2048, 9000, 40000}
	defer func() { confStripe, confLens = Striping{}, oldLens }()

	covered := 0
	nps := []int{1, 2, 4, 5, 8}
	for _, reg := range Registrations() {
		if !Striped(reg.Op, reg.Algo) {
			continue
		}
		covered++
		reg := reg
		t.Run(fmt.Sprintf("%s/%s", reg.Op, reg.Algo), func(t *testing.T) {
			for _, np := range nps {
				rng := rand.New(rand.NewSource(
					1<<40 | int64(reg.Op)<<20 | int64(reg.Algo)<<12 | int64(np)))
				for trial := 0; trial < 3; trial++ {
					var nodes []int
					if reg.Algo == AlgoTwoLevel {
						nodes = confNodes(rng, np)
					}
					confTrial(t, reg, np, nodes, rng)
				}
			}
		})
	}
	if covered == 0 {
		t.Fatal("no striped-capable (op, algo) pairs registered")
	}
}
