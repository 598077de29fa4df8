package coll

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// randCountMatrix derives a deterministic n×n count matrix from seed with
// plenty of zero blocks and occasional heavy skew — the layouts the vector
// builders must survive.
func randCountMatrix(seed int64, n, maxC int) [][]int {
	st := uint64(seed)*2862933555777941757 + 3037000493
	next := func() int {
		st = st*6364136223846793005 + 1442695040888963407
		return int(st >> 33)
	}
	m := make([][]int, n)
	for s := range m {
		m[s] = make([]int, n)
		for d := range m[s] {
			switch next() % 4 {
			case 0:
				m[s][d] = 0
			case 1:
				m[s][d] = next()%maxC + maxC*4 // heavy block
			default:
				m[s][d] = next() % (maxC + 1)
			}
		}
	}
	return m
}

// cell is the deterministic payload byte at position i of the s→d block.
func cell(s, d, i int) byte { return byte(s*31 + d*7 + i*3 + 1) }

func fillBlock(b []byte, s, d int) {
	for i := range b {
		b[i] = cell(s, d, i)
	}
}

func checkBlock(t *testing.T, b []byte, s, d int, label string) {
	t.Helper()
	for i := range b {
		if b[i] != cell(s, d, i) {
			t.Fatalf("%s: block %d->%d byte %d = %d, want %d", label, s, d, i, b[i], cell(s, d, i))
		}
	}
}

func TestAlltoallvMatchesReference(t *testing.T) {
	for _, n := range testNPs {
		for _, xor := range []bool{true, false} {
			for seed := int64(0); seed < 3; seed++ {
				n, xor, seed := n, xor, seed
				t.Run(fmt.Sprintf("np%d/xor%v/seed%d", n, xor, seed), func(t *testing.T) {
					m := randCountMatrix(seed, n, 9)
					send := make([][][]byte, n)
					recv := make([][][]byte, n)
					for r := 0; r < n; r++ {
						send[r] = make([][]byte, n)
						recv[r] = make([][]byte, n)
						for d := 0; d < n; d++ {
							send[r][d] = make([]byte, m[r][d])
							fillBlock(send[r][d], r, d)
							recv[r][d] = make([]byte, m[d][r])
						}
					}
					execSched(t, n, func(rank int) *Schedule {
						return BuildAlltoallv(rank, n, send[rank], recv[rank], xor)
					}, 30)
					for r := 0; r < n; r++ {
						for s := 0; s < n; s++ {
							checkBlock(t, recv[r][s], s, r, "alltoallv")
						}
					}
				})
			}
		}
	}
}

func TestAlltoallvExtremeDistributions(t *testing.T) {
	const n = 8
	mk := func(f func(s, d int) int) [][]int {
		m := make([][]int, n)
		for s := range m {
			m[s] = make([]int, n)
			for d := range m[s] {
				m[s][d] = f(s, d)
			}
		}
		return m
	}
	cases := map[string][][]int{
		"all-zero":    mk(func(s, d int) int { return 0 }),
		"to-rank0":    mk(func(s, d int) int { return 13 * boolInt(d == 0) }),
		"from-rank3":  mk(func(s, d int) int { return 17 * boolInt(s == 3) }),
		"single-pair": mk(func(s, d int) int { return 64 * boolInt(s == 1 && d == 6) }),
	}
	for name, m := range cases {
		m := m
		t.Run(name, func(t *testing.T) {
			send := make([][][]byte, n)
			recv := make([][][]byte, n)
			for r := 0; r < n; r++ {
				send[r] = make([][]byte, n)
				recv[r] = make([][]byte, n)
				for d := 0; d < n; d++ {
					send[r][d] = make([]byte, m[r][d])
					fillBlock(send[r][d], r, d)
					recv[r][d] = make([]byte, m[d][r])
				}
			}
			execSched(t, n, func(rank int) *Schedule {
				return BuildAlltoallv(rank, n, send[rank], recv[rank], true)
			}, 31)
			for r := 0; r < n; r++ {
				for s := 0; s < n; s++ {
					checkBlock(t, recv[r][s], s, r, name)
				}
			}
		})
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Property: alltoallv over random zero-heavy matrices routes every block,
// in both partner orderings.
func TestPropertyAlltoallvRoutesAllBlocks(t *testing.T) {
	f := func(npRaw uint8, seed int64) bool {
		n := int(npRaw%10) + 1
		m := randCountMatrix(seed, n, 6)
		send := make([][][]byte, n)
		recv := make([][][]byte, n)
		for r := 0; r < n; r++ {
			send[r] = make([][]byte, n)
			recv[r] = make([][]byte, n)
			for d := 0; d < n; d++ {
				send[r][d] = make([]byte, m[r][d])
				fillBlock(send[r][d], r, d)
				recv[r][d] = make([]byte, m[d][r])
			}
		}
		ok := true
		runAll(t, n, func(p *peer) {
			ExecBlocking(p, BuildAlltoallv(p.Rank(), n, send[p.Rank()], recv[p.Rank()], seed%2 == 0), 32, nil)
		})
		for r := 0; r < n && ok; r++ {
			for s := 0; s < n && ok; s++ {
				want := make([]byte, m[s][r])
				fillBlock(want, s, r)
				ok = bytes.Equal(recv[r][s], want)
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllgathervIrregularAllAlgos(t *testing.T) {
	for _, n := range testNPs {
		for seed := int64(0); seed < 2; seed++ {
			counts := randCountMatrix(seed, n, 11)[0] // one global vector
			algos := map[string]func(rank int, mine []byte, out [][]byte) *Schedule{
				"ring": func(rank int, mine []byte, out [][]byte) *Schedule {
					return BuildAllgather(rank, n, mine, out)
				},
				"bruck": func(rank int, mine []byte, out [][]byte) *Schedule {
					return BuildAllgatherBruck(rank, n, mine, out)
				},
			}
			for _, nodes := range testPlacements(n) {
				nodes := nodes
				algos[fmt.Sprintf("two-level/%v", nodes[:min(len(nodes), 4)])] =
					func(rank int, mine []byte, out [][]byte) *Schedule {
						return BuildAllgatherTwoLevel(rank, nodes, mine, out)
					}
			}
			for name, build := range algos {
				name, build := name, build
				t.Run(fmt.Sprintf("np%d/seed%d/%s", n, seed, name), func(t *testing.T) {
					mines := make([][]byte, n)
					outs := make([][][]byte, n)
					for r := 0; r < n; r++ {
						mines[r] = make([]byte, counts[r])
						fillBlock(mines[r], r, r)
						outs[r] = make([][]byte, n)
						for j := 0; j < n; j++ {
							outs[r][j] = make([]byte, counts[j])
						}
					}
					execSched(t, n, func(rank int) *Schedule {
						return build(rank, mines[rank], outs[rank])
					}, 33)
					for r := 0; r < n; r++ {
						for j := 0; j < n; j++ {
							checkBlock(t, outs[r][j], j, j, name)
						}
					}
				})
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestReduceScatterMatchesSerialSum(t *testing.T) {
	for _, n := range testNPs {
		for seed := int64(0); seed < 3; seed++ {
			counts := randCountMatrix(seed, n, 7)[0]
			total := 0
			for _, c := range counts {
				total += c
			}
			for _, algo := range []string{"halving", "pairwise"} {
				algo := algo
				t.Run(fmt.Sprintf("np%d/seed%d/%s", n, seed, algo), func(t *testing.T) {
					xs := make([][]float64, n)
					recvs := make([][]float64, n)
					for r := 0; r < n; r++ {
						xs[r] = make([]float64, total)
						for i := range xs[r] {
							xs[r][i] = float64(r*1000 + i)
						}
						recvs[r] = make([]float64, counts[r])
					}
					execSched(t, n, func(rank int) *Schedule {
						if algo == "halving" {
							return BuildReduceScatterHalving(rank, n, xs[rank], recvs[rank], counts, OpSum)
						}
						return BuildReduceScatterPairwise(rank, n, xs[rank], recvs[rank], counts, OpSum)
					}, 34)
					off := 0
					for r := 0; r < n; r++ {
						for i := 0; i < counts[r]; i++ {
							want := 0.0
							for s := 0; s < n; s++ {
								want += float64(s*1000 + off + i)
							}
							if math.Abs(recvs[r][i]-want) > 1e-9 {
								t.Fatalf("rank %d elem %d = %g, want %g", r, i, recvs[r][i], want)
							}
						}
						off += counts[r]
					}
				})
			}
		}
	}
}

func TestGathervScattervIrregular(t *testing.T) {
	for _, n := range testNPs {
		counts := randCountMatrix(5, n, 9)[0]
		for root := 0; root < n; root += 3 {
			n, root := n, root
			t.Run(fmt.Sprintf("np%d/root%d", n, root), func(t *testing.T) {
				// Gatherv: every rank's block lands at root.
				mines := make([][]byte, n)
				out := make([][]byte, n)
				for r := 0; r < n; r++ {
					mines[r] = make([]byte, counts[r])
					fillBlock(mines[r], r, root)
					out[r] = make([]byte, counts[r])
				}
				execSched(t, n, func(rank int) *Schedule {
					if rank == root {
						return BuildGather(rank, n, root, mines[rank], out)
					}
					return BuildGather(rank, n, root, mines[rank], nil)
				}, 35)
				for r := 0; r < n; r++ {
					checkBlock(t, out[r], r, root, "gatherv")
				}

				// Scatterv: root's block r lands in rank r's buf.
				blocks := make([][]byte, n)
				bufs := make([][]byte, n)
				for r := 0; r < n; r++ {
					blocks[r] = make([]byte, counts[r])
					fillBlock(blocks[r], root, r)
					bufs[r] = make([]byte, counts[r])
				}
				execSched(t, n, func(rank int) *Schedule {
					if rank == root {
						return BuildScatter(rank, n, root, blocks, bufs[rank])
					}
					return BuildScatter(rank, n, root, nil, bufs[rank])
				}, 36)
				for r := 0; r < n; r++ {
					checkBlock(t, bufs[r], root, r, "scatterv")
				}
			})
		}
	}
}

func TestVectorRoundShapes(t *testing.T) {
	for _, n := range testNPs {
		m := randCountMatrix(7, n, 8)
		counts := m[0]
		total := 0
		for _, c := range counts {
			total += c
		}
		x := make([]float64, total)
		for rank := 0; rank < n; rank++ {
			send := make([][]byte, n)
			recv := make([][]byte, n)
			for d := 0; d < n; d++ {
				send[d] = make([]byte, m[rank][d])
				recv[d] = make([]byte, m[d][rank])
			}
			rcv := make([]float64, counts[rank])
			checkRoundShape(t, BuildAlltoallv(rank, n, send, recv, true),
				fmt.Sprintf("alltoallv-xor/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAlltoallv(rank, n, send, recv, false),
				fmt.Sprintf("alltoallv-rot/np%d/r%d", n, rank))
			checkRoundShape(t, BuildReduceScatterHalving(rank, n, x, rcv, counts, OpSum),
				fmt.Sprintf("rs-halving/np%d/r%d", n, rank))
			checkRoundShape(t, BuildReduceScatterPairwise(rank, n, x, rcv, counts, OpSum),
				fmt.Sprintf("rs-pairwise/np%d/r%d", n, rank))
		}
	}
}

func TestRabBoundariesPartition(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8, 16, 32} {
		for _, n := range []int{0, 1, 5, 16, 33, 1000} {
			win := rabBoundaries(size, n)
			if len(win) != size+1 || win[0] != 0 || win[size] != n {
				t.Fatalf("size=%d n=%d: bad boundary array %v", size, n, win)
			}
			for r := 0; r < size; r++ {
				lo, hi := rabWindow(r, size, n)
				if win[r] != lo || win[r+1] != hi {
					t.Fatalf("size=%d n=%d rank=%d: win [%d,%d) != rabWindow [%d,%d)",
						size, n, r, win[r], win[r+1], lo, hi)
				}
				if win[r] > win[r+1] {
					t.Fatalf("size=%d n=%d: descending boundary at %d: %v", size, n, r, win)
				}
			}
		}
	}
}

func TestBlocksHelper(t *testing.T) {
	buf := make([]byte, 20)
	for i := range buf {
		buf[i] = byte(i)
	}
	packed := Blocks(buf, []int{3, 0, 5}, nil)
	if !bytes.Equal(packed[0], buf[0:3]) || len(packed[1]) != 0 || !bytes.Equal(packed[2], buf[3:8]) {
		t.Fatalf("packed views wrong: %v", packed)
	}
	gapped := Blocks(buf, []int{2, 4}, []int{10, 2})
	if !bytes.Equal(gapped[0], buf[10:12]) || !bytes.Equal(gapped[1], buf[2:6]) {
		t.Fatalf("displaced views wrong: %v", gapped)
	}
	// Views must be capacity-limited to their block.
	if cap(gapped[0]) != 2 {
		t.Fatalf("view capacity %d leaks past the block", cap(gapped[0]))
	}
}

// TestKeyForForcedTwoLevelWithoutNodes: forcing a two-level algorithm on a
// communicator with no node map must fall back to a flat algorithm (the
// re-selection strips Force), not hand the two-level builder a nil map.
func TestKeyForForcedTwoLevelWithoutNodes(t *testing.T) {
	tun := &Tuning{Force: map[OpKind]Algo{
		OpAllgatherv: AlgoTwoLevel,
		OpBcast:      AlgoTwoLevel,
	}}
	out := make([][]byte, 4)
	for i := range out {
		out[i] = make([]byte, 8)
	}
	a := Args{Rank: 0, Size: 4, Mine: out[0], Out: out, RCounts: []int{8, 8, 8, 8}}
	key := KeyFor(tun, OpAllgatherv, a, true) // no Nodes
	if key.Algo == AlgoTwoLevel {
		t.Fatalf("forced two-level without a node map selected %s", key.Algo)
	}
	if s := Build(key, a); s == nil || len(s.Rounds) == 0 {
		t.Fatal("fallback schedule did not build")
	}
	b := Args{Rank: 1, Size: 4, Data: make([]byte, 16)}
	if key := KeyFor(tun, OpBcast, b, false); key.Algo == AlgoTwoLevel {
		t.Fatalf("forced two-level bcast without a node map selected %s", key.Algo)
	}
}
