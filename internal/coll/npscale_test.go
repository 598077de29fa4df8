package coll

// NP-scale checks: the conformance harness's randomized sweep stops at a
// dozen ranks, where an O(NP) term per rank hides comfortably. These tests
// push representative algorithms to NP ∈ {128, 1024} — correctness spot
// checks against the straight-line references — and pin the budget that
// makes NP=4096 points affordable: per-rank schedule memory and compile
// time of the log-depth algorithms must scale sublinearly in NP.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// npScaleRegs names one representative algorithm per op family for the
// large-NP spot checks. The quadratic-reference families (allgather,
// alltoall — the reference sends one message per rank pair) stop at 128;
// the rest also run at 1024. Only log-depth algorithms and the rooted
// linear fans (whose total message count is O(NP)) qualify: forcing a ring
// at NP=1024 is O(NP²) simulation work the selector would never schedule.
var npScaleRegs = []struct {
	reg   Registration
	maxNP int
}{
	{Registration{OpBarrier, AlgoDissemination}, 1024},
	{Registration{OpBcast, AlgoBinomial}, 1024},
	{Registration{OpReduce, AlgoBinomial}, 1024},
	{Registration{OpAllreduce, AlgoRecDoubling}, 1024},
	{Registration{OpGather, AlgoLinear}, 1024},
	{Registration{OpScatter, AlgoLinear}, 1024},
	{Registration{OpAllgather, AlgoBruck}, 128},
	{Registration{OpAllgatherv, AlgoBruck}, 128},
	{Registration{OpAlltoall, AlgoPairwise}, 128},
	{Registration{OpAlltoallv, AlgoPairwise}, 128},
	{Registration{OpReduceScatter, AlgoRecHalving}, 128},
	// Hierarchical variants on a ragged random node map: the two-level
	// builders see uneven per-node populations at scale.
	{Registration{OpBcast, AlgoTwoLevel}, 128},
	{Registration{OpAllreduce, AlgoTwoLevel}, 128},
	{Registration{OpBarrier, AlgoTwoLevel}, 128},
}

// TestConformanceNPScale runs each representative (op, algo) at NP=128 and
// — where the reference cost allows — NP=1024, inputs randomized the same
// way the main sweep's are.
func TestConformanceNPScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-NP conformance spot checks skipped in -short")
	}
	for _, c := range npScaleRegs {
		c := c
		t.Run(fmt.Sprintf("%s/%s", c.reg.Op, c.reg.Algo), func(t *testing.T) {
			for _, np := range []int{128, 1024} {
				if np > c.maxNP {
					continue
				}
				rng := rand.New(rand.NewSource(
					int64(c.reg.Op)<<20 | int64(c.reg.Algo)<<12 | int64(np)))
				var nodes []int
				if c.reg.Algo == AlgoTwoLevel {
					nodes = confNodes(rng, np)
				}
				confTrial(t, c.reg, np, nodes, rng)
			}
		})
	}
}

// TestConformanceNPScaleSparseCounts: a sparse reduce-scatter at NP=1024 —
// 16 of 1024 ranks own a nonzero segment, the count vector is almost all
// zeros — against the straight-line reference. This is the "sparse
// schedule" shape the vector collectives see on irregular decompositions,
// at a rank count where any per-rank O(NP) blowup in the halving windows
// would be visible.
func TestConformanceNPScaleSparseCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("large-NP conformance spot checks skipped in -short")
	}
	const np = 1024
	reg := Registration{OpReduceScatter, AlgoRecHalving}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, np)
	total := 0
	for i := 0; i < 16; i++ {
		r := rng.Intn(np)
		counts[r] = 1 + rng.Intn(8)
	}
	for _, n := range counts {
		total += n
	}
	op := OpSum
	xs := make([][]float64, np)
	for r := range xs {
		xs[r] = confF64s(rng, total)
	}
	recvs := make([][]float64, np)
	label := fmt.Sprintf("%s/%s/np%d/sparse", reg.Op, reg.Algo, np)
	a := confExec(t, label, reg, np,
		func(rank int) Args {
			recvs[rank] = make([]float64, counts[rank])
			return Args{X: cpf(xs[rank]), RecvF64: recvs[rank],
				RCounts: counts, Op: op}
		},
		func(rank int) rankOut { return rankOut{X: [][]float64{recvs[rank]}} })
	ref := runConf(t, np, func(p *peer) rankOut {
		recv := make([]float64, counts[p.rank])
		refReduceScatter(p, cpf(xs[p.rank]), recv, counts, op)
		return rankOut{X: [][]float64{recv}}
	})
	confCompare(t, label, a, ref)
}

// budgetAlgos are the log-depth algorithms whose compile cost the NP=4096
// benchmark points rely on; a rank of a binomial tree or a recursive-
// doubling exchange touches O(log NP) peers, and its schedule must cost
// that — in primitives, in bytes and in compile time.
var budgetAlgos = []Registration{
	{OpBcast, AlgoBinomial},
	{OpAllreduce, AlgoRecDoubling},
	{OpBarrier, AlgoDissemination},
}

// budgetArgs builds minimal valid args for one budget compile.
func budgetArgs(op OpKind, rank, np int) Args {
	a := Args{Rank: rank, Size: np}
	switch op {
	case OpBcast:
		a.Data = make([]byte, 64)
	case OpAllreduce:
		a.X = make([]float64, 8)
		a.Op = OpSum
	}
	return a
}

// measureCompile compiles rank np/3's schedule iters times and reports the
// per-compile primitive count, allocated bytes and wall time.
func measureCompile(reg Registration, np, iters int) (prims int, bytesPer float64, perCompile time.Duration) {
	key := Key{Op: reg.Op, Algo: reg.Algo}
	a := budgetArgs(reg.Op, np/3, np)
	s := Build(key, a)
	for _, rd := range s.Rounds {
		prims += len(rd.Comm) + len(rd.Local)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		Build(key, a)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return prims, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters),
		elapsed / time.Duration(iters)
}

// TestScheduleBudgetSublinear pins the NP-scaling budget: quadrupling NP
// (1024 → 4096) may grow a log-depth rank schedule by at most the log
// factor, with slack — nowhere near the 4× a hidden O(NP) term would cost.
// Primitive counts are deterministic and bounded tightly; allocated bytes
// are bounded at 2× (log₂ 4096 / log₂ 1024 = 1.2), compile time at 3×. Host
// timers share the machine with the rest of the suite and a µs-scale reading
// can be off by several times, always upwards, so each side's compile time is
// its minimum over interleaved rounds.
func TestScheduleBudgetSublinear(t *testing.T) {
	const loNP, hiNP, iters = 1024, 4096, 200
	for _, reg := range budgetAlgos {
		reg := reg
		t.Run(fmt.Sprintf("%s/%s", reg.Op, reg.Algo), func(t *testing.T) {
			loPrims, loBytes, _ := measureCompile(reg, loNP, iters)
			hiPrims, hiBytes, _ := measureCompile(reg, hiNP, iters)
			if hiPrims > 2*loPrims {
				t.Errorf("schedule primitives grew %d -> %d from NP=%d to NP=%d; log-depth allows at most 2x",
					loPrims, hiPrims, loNP, hiNP)
			}
			if hiBytes > 2*loBytes+512 {
				t.Errorf("compile allocated %.0fB/rank at NP=%d vs %.0fB at NP=%d; growth is super-logarithmic",
					hiBytes, hiNP, loBytes, loNP)
			}
			// Compile time: linear scaling would be ≥ 4×; assert < 3×.
			loT, hiT := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for round := 0; round < 7; round++ {
				if _, _, lo := measureCompile(reg, loNP, iters); lo < loT {
					loT = lo
				}
				if _, _, hi := measureCompile(reg, hiNP, iters); hi < hiT {
					hiT = hi
				}
			}
			if float64(hiT) >= 3*float64(loT)+float64(2*time.Microsecond) {
				t.Errorf("compile time %v at NP=%d vs %v at NP=%d: scaling ~linearly in NP",
					hiT, hiNP, loT, loNP)
			}
		})
	}
}
