package mpi

import (
	"fmt"
	"testing"

	"repro/internal/topo"
	"repro/internal/vtime"
)

// TestReductionSurvivesLateReads is the adversarial case for sending float
// payloads as the vector's own memory. A network send completes at NIC
// drain, long before the packet arrives — here every rail's latency is
// raised to 200 µs to stretch that gap — so a rank that refills x and
// re-enters the same cached reduction the instant the previous one returns
// overwrites the sender's memory while its payload is still in flight.
// Ranks do exactly that for 50 iterations, blocking and nonblocking, over
// eager- and rendezvous-sized vectors, on a placement that mixes
// shared-memory and network peers, flat and two-level, on every stack
// preset; every element of every result must equal the serial sum. Every
// transport must have copied the payload by the time its send completes: an
// eager one into a bounce buffer, a rendezvous chunk into the receive buffer
// at its drain (TestSendBufferReusableOnReturn pins the same for
// point-to-point).
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
					for it := 0; it < iters; it++ {
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

// TestSendBufferReusableOnReturn is the point-to-point form of the late-read
// case: MPI lets a sender reuse its buffer as soon as a blocking send (or
// the Wait of a nonblocking one) returns, and a network send returns at NIC
// drain, 200 µs of rail latency before its packet arrives here. The sender
// overwrites its buffer the moment each call returns, and the receiver
// checks every byte — for an eager message, one above every stack's
// rendezvous threshold and one striped over two rails (rail hint -2; a
// single-rail stack ignores it), sent by Send, Isend+Wait and Sendrecv, to a
// receiver that posted before the message arrived and to one that posts
// long after (the unexpected path), on every stack preset.
func TestSendBufferReusableOnReturn(t *testing.T) {
	type xfer struct {
		name string
		n    int
		rail int
	}
	xfers := []xfer{{"eager", 1000, 0}, {"rendezvous", 300 << 10, 0}, {"striped", 100 << 10, -2}}
	modes := []string{"Send", "Isend+Wait", "Sendrecv"}
	const iters, scribble = 2, 0xee
	for _, stack := range allStacks() {
		stack := stack
		for i := range stack.Rails {
			stack.Rails[i].Latency = 200 * vtime.Microsecond
		}
		t.Run(stack.Name, func(t *testing.T) {
			cfg := xeonCfg(2, stack)
			cfg.Placement = topo.Placement{0, 1}
			_, err := Run(cfg, func(c *Comm) {
				me, peer := c.Rank(), 1-c.Rank()
				fill := func(b []byte, from, tag int) {
					for i := range b {
						b[i] = byte(from*101 + tag*7 + i*13 + i>>8)
					}
				}
				tag := 0
				for _, x := range xfers {
					sbuf, rbuf, want := make([]byte, x.n), make([]byte, x.n), make([]byte, x.n)
					// On the collective context the backends carry a rail
					// hint; a hint of 0 takes the user calls.
					send := func(mode string) {
						switch {
						case x.rail == 0 && mode == "Send":
							c.Send(peer, tag, sbuf)
						case x.rail == 0:
							c.Wait(c.Isend(peer, tag, sbuf))
						case mode == "Send":
							c.SendRailT(peer, int32(tag), sbuf, x.rail)
						default:
							c.finishT(c.p.IsendRail(c.proc, c.world(peer), int32(tag), c.collCtx, sbuf, x.rail))
						}
					}
					irecv := func() (wait func()) {
						if x.rail == 0 {
							q := c.Irecv(peer, tag, rbuf)
							return func() { c.Wait(q) }
						}
						r := c.p.Irecv(c.proc, c.world(peer), int32(tag), c.collCtx, rbuf)
						return func() { c.finishT(r) }
					}
					check := func(what string, from int) {
						fill(want, from, tag)
						if i := firstDiff(rbuf, want); i >= 0 {
							t.Errorf("%s %s: rank %d got byte %d = %#x, want %#x", x.name, what, me, i, rbuf[i], want[i])
						}
					}
					// A failure does not stop the ranks: both run every case,
					// so that one rank's early exit cannot hang the other.
					for _, mode := range modes {
						for _, late := range []bool{false, true} {
							for it := 0; it < iters; it++ {
								tag++
								what := fmt.Sprintf("%s late=%v iter %d", mode, late, it)
								clear(rbuf)
								fill(sbuf, me, tag)
								if mode == "Sendrecv" {
									if late && me == 1 {
										c.Compute(5e-3)
									}
									if x.rail == 0 {
										c.Sendrecv(peer, tag, sbuf, peer, tag, rbuf)
									} else {
										c.SendRecvRailT(peer, sbuf, peer, rbuf, int32(tag), x.rail)
									}
									fill(sbuf, scribble, 0)
									check(what, peer)
									continue
								}
								sender := it % 2
								switch {
								case me == sender && late:
									send(mode)
									fill(sbuf, scribble, 0)
								case me == sender:
									c.Recv(peer, 1<<20+tag, nil) // the receive is posted
									send(mode)
									fill(sbuf, scribble, 0)
								case late:
									c.Compute(5e-3)
									irecv()()
									check(what, peer)
								default:
									wait := irecv()
									c.Send(peer, 1<<20+tag, nil)
									wait()
									check(what, peer)
								}
							}
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

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
