package coll

import (
	"fmt"
	"math"
	"testing"
)

// execSched runs rank-specific schedules over the in-memory fabric.
func execSched(t *testing.T, n int, build func(rank int) *Schedule, tag int32) {
	t.Helper()
	runAll(t, n, func(p *peer) {
		ExecBlocking(p, build(p.Rank()), tag, nil)
	})
}

// checkRoundShape asserts the blocking-executor deadlock-freedom invariant:
// a round that mixes sends and receives holds exactly one of each (it
// becomes a SendRecvT); multi-transfer rounds are send-only or recv-only.
// It also asserts that floats stay typed end to end: a transfer names its
// payload as bytes or as a float vector, never both, and a reduction folds a
// float vector of its accumulator's length — no builder stages a reduce
// input (or anything else a local prim reads) as wire bytes to decode. The
// conformance sweep runs every registered pair through here.
func checkRoundShape(t *testing.T, s *Schedule, label string) {
	t.Helper()
	for ri, rd := range s.Rounds {
		sends, recvs := 0, 0
		for _, pr := range rd.Comm {
			switch pr.Kind {
			case PrimSend:
				sends++
			case PrimRecv:
				recvs++
			default:
				t.Fatalf("%s round %d: local prim in Comm", label, ri)
			}
			if pr.Buf != nil && pr.AccF64 != nil {
				t.Fatalf("%s round %d: transfer with both a byte and a float payload", label, ri)
			}
		}
		if sends > 0 && recvs > 0 && (sends != 1 || recvs != 1) {
			t.Fatalf("%s round %d: mixed round with %d sends, %d recvs", label, ri, sends, recvs)
		}
		for _, pr := range rd.Local {
			switch pr.Kind {
			case PrimCopy:
				if pr.AccF64 != nil || pr.SrcF64 != nil {
					t.Fatalf("%s round %d: byte copy with float operands", label, ri)
				}
			case PrimReduce, PrimCopyF64:
				if pr.Buf != nil || pr.Dst != nil || len(pr.SrcF64) != len(pr.AccF64) {
					t.Fatalf("%s round %d: float prim kind %d reads %d bytes / %d floats into %d floats",
						label, ri, pr.Kind, len(pr.Buf), len(pr.SrcF64), len(pr.AccF64))
				}
				if pr.Kind == PrimReduce && (pr.Op == nil || pr.fold != foldOf(pr.Op)) {
					t.Fatalf("%s round %d: reduce with operator %p dispatched as %d", label, ri, pr.Op, pr.fold)
				}
			default:
				t.Fatalf("%s round %d: prim kind %d in Local", label, ri, pr.Kind)
			}
		}
	}
}

func TestScheduleRoundShapes(t *testing.T) {
	x := make([]float64, 4)
	data := make([]byte, 64)
	blocks := func(n int) [][]byte {
		b := make([][]byte, n)
		for i := range b {
			b[i] = make([]byte, 8)
		}
		return b
	}
	for _, n := range testNPs {
		nodes := make([]int, n)
		for r := range nodes {
			nodes[r] = r % 2 // two nodes
		}
		for rank := 0; rank < n; rank++ {
			checkRoundShape(t, BuildBarrier(rank, n), fmt.Sprintf("barrier/np%d/r%d", n, rank))
			checkRoundShape(t, BuildBcast(rank, n, 0, data), fmt.Sprintf("bcast/np%d/r%d", n, rank))
			checkRoundShape(t, BuildReduce(rank, n, 0, x, OpSum), fmt.Sprintf("reduce/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAllreduce(rank, n, x, OpSum), fmt.Sprintf("allreduce/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAllgather(rank, n, data[:8], blocks(n)), fmt.Sprintf("allgather/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAlltoall(rank, n, blocks(n), blocks(n)), fmt.Sprintf("alltoall/np%d/r%d", n, rank))
			checkRoundShape(t, BuildGather(rank, n, 0, data[:8], blocks(n)), fmt.Sprintf("gather/np%d/r%d", n, rank))
			checkRoundShape(t, BuildBarrierTwoLevel(rank, nodes), fmt.Sprintf("barrier2l/np%d/r%d", n, rank))
			checkRoundShape(t, BuildBcastTwoLevelStriped(rank, nodes, 0, data, Striping{}), fmt.Sprintf("bcast2l/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAllreduceTwoLevelStriped(rank, nodes, x, OpSum, Striping{}), fmt.Sprintf("allreduce2l/np%d/r%d", n, rank))
		}
	}
}

// placements to exercise the two-level builders: ranks over 2 and 3 nodes,
// balanced and skewed.
func testPlacements(n int) [][]int {
	var ps [][]int
	rr2 := make([]int, n)
	blk2 := make([]int, n)
	skew := make([]int, n)
	for r := 0; r < n; r++ {
		rr2[r] = r % 2
		blk2[r] = r * 2 / n
		if r == 0 {
			skew[r] = 0
		} else {
			skew[r] = 1 + r%2
		}
	}
	ps = append(ps, rr2, blk2)
	if n >= 3 {
		ps = append(ps, skew)
	}
	return ps
}

func TestTwoLevelBarrierFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			nodes := nodes
			t.Run(fmt.Sprintf("np%d/p%d", n, pi), func(t *testing.T) {
				execSched(t, n, func(rank int) *Schedule {
					return BuildBarrierTwoLevel(rank, nodes)
				}, 10)
			})
		}
	}
}

func TestTwoLevelBcastFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			for root := 0; root < n; root += 3 {
				nodes, root := nodes, root
				t.Run(fmt.Sprintf("np%d/p%d/root%d", n, pi, root), func(t *testing.T) {
					bufs := make([][]byte, n)
					for r := range bufs {
						bufs[r] = make([]byte, 24)
						if r == root {
							for i := range bufs[r] {
								bufs[r][i] = byte(i ^ root)
							}
						}
					}
					execSched(t, n, func(rank int) *Schedule {
						return BuildBcastTwoLevelStriped(rank, nodes, root, bufs[rank], Striping{})
					}, 11)
					for r := range bufs {
						for i := range bufs[r] {
							if bufs[r][i] != byte(i^root) {
								t.Fatalf("rank %d byte %d = %d", r, i, bufs[r][i])
							}
						}
					}
				})
			}
		}
	}
}

func TestTwoLevelAllreduceFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			nodes := nodes
			t.Run(fmt.Sprintf("np%d/p%d", n, pi), func(t *testing.T) {
				const m = 9
				vecs := make([][]float64, n)
				for r := range vecs {
					vecs[r] = make([]float64, m)
					for i := range vecs[r] {
						vecs[r][i] = float64(r*10 + i)
					}
				}
				execSched(t, n, func(rank int) *Schedule {
					return BuildAllreduceTwoLevelStriped(rank, nodes, vecs[rank], OpSum, Striping{})
				}, 12)
				for i := 0; i < m; i++ {
					want := 0.0
					for r := 0; r < n; r++ {
						want += float64(r*10 + i)
					}
					for r := 0; r < n; r++ {
						if math.Abs(vecs[r][i]-want) > 1e-9 {
							t.Fatalf("rank %d elem %d = %g, want %g", r, i, vecs[r][i], want)
						}
					}
				}
			})
		}
	}
}

// TestFlatBuildersMatchLegacySequence pins the executor's call decomposition:
// single-send+single-recv rounds must become SendRecvT exchanges so the
// blocking path keeps the historical deadlock-free pairwise pattern.
func TestFlatBuildersMatchLegacySequence(t *testing.T) {
	s := BuildBarrier(0, 8)
	if len(s.Rounds) != 3 {
		t.Fatalf("np8 barrier rounds = %d, want 3", len(s.Rounds))
	}
	for ri, rd := range s.Rounds {
		if len(rd.Comm) != 2 {
			t.Fatalf("barrier round %d has %d prims", ri, len(rd.Comm))
		}
	}
	x := make([]float64, 2)
	s = BuildAllreduce(3, 6, x, OpSum) // non-power-of-two: pre/main/post
	if len(s.Rounds) < 3 {
		t.Fatalf("np6 allreduce rounds = %d, want >= 3", len(s.Rounds))
	}
}
