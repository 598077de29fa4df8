package mpi

import (
	"fmt"
	"testing"

	"repro/internal/topo"
	"repro/internal/vtime"
)

// TestReductionSurvivesLateReads is the adversarial case for sending float
// payloads as the vector's own memory. The network transports read a
// sender's buffer when the packet arrives, long after the send completed at
// NIC drain — here every rail's latency is raised to 200 µs to stretch that
// gap — so a rank that refills x and re-enters the same cached reduction the
// instant the previous one returns overwrites whatever is still in flight by
// reference. Ranks do exactly that for 50 iterations, blocking and
// nonblocking, over eager- and rendezvous-sized vectors, on a placement
// that mixes shared-memory and network peers, flat and two-level, on every
// stack preset; every element of every result must equal the serial sum.
// Forcing Comm.SendCopies to true makes this test fail on its first
// iterations: the private image toward network peers is what it pins.
func TestReductionSurvivesLateReads(t *testing.T) {
	const np, iters = 6, 50
	placement := topo.Placement{0, 0, 1, 1, 0, 1}
	tri := float64(np * (np + 1) / 2)
	for _, stack := range allStacks() {
		for _, twoLevel := range []bool{false, true} {
			stack := stack
			for i := range stack.Rails {
				stack.Rails[i].Latency = 200 * vtime.Microsecond
			}
			t.Run(fmt.Sprintf("%s/twolevel=%v", stack.Name, twoLevel), func(t *testing.T) {
				cfg := xeonCfg(np, stack)
				cfg.Placement = placement
				cfg.TwoLevelColl = twoLevel
				_, err := Run(cfg, func(c *Comm) {
					me := c.Rank()
					counts := []int{700, 0, 1300, 64, 5000, 1128}
					small, large := make([]float64, 96), make([]float64, 8192) // 768 B eager, 64 KiB rendezvous
					recv := make([]float64, counts[me])
					fill := func(x []float64, it int) {
						for i := range x {
							x[i] = float64((me+1)*(1+i%5) + it%7)
						}
					}
					check := func(what string, x []float64, off, it int) {
						for i, got := range x {
							if want := tri*float64(1+(off+i)%5) + float64(np*(it%7)); got != want {
								t.Errorf("rank %d iter %d %s[%d] = %v, want %v", me, it, what, i, got, want)
								return
							}
						}
					}
					off := 0
					for _, n := range counts[:me] {
						off += n
					}
					for it := 0; it < iters && !t.Failed(); it++ {
						fill(small, it)
						c.AllreduceF64(small, OpSum)
						check("small", small, 0, it)

						fill(large, it)
						q := c.IallreduceF64(large, OpSum)
						c.Wait(q)
						check("large", large, 0, it)

						fill(large, it+3)
						c.ReduceScatterF64(large, recv, counts, OpSum)
						check("scattered", recv, off, it+3)

						fill(large, it+1)
						c.AllreduceF64(large, OpSum)
						check("large again", large, 0, it+1)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
