package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// TestRequestLifecycle pins MPI's request lifecycle on every stack preset,
// with the free lists on and off: the call that completes a request keeps
// its status and frees the CH3 request behind it, and the handle stays
// readable. A second Wait on a receive returns the same status, Test after
// Wait reports true, Wait on WaitAny's winner returns the status WaitAny
// did, a request passed twice to one WaitAll is freed once, and Done stays
// true. Then 1000 windows of Isends and Irecvs toward a shared-memory peer
// and a network peer, completed by WaitAll, Wait, WaitAny and Test in turn,
// check every payload: a recycled CH3 request that still served an earlier
// transfer would land a message in the wrong buffer.
func TestRequestLifecycle(t *testing.T) {
	const np, windows, slots = 3, 1000, 2
	// Rank 0 shares a node with rank 1 and reaches rank 2 over the network.
	placement := topo.Placement{0, 0, 1}
	sizes := []int{0, 8, 700, 3000, 20 << 10, 40 << 10}
	// A message's payload is a window of a random pattern, at an offset
	// that its sender, receiver, window and slot pick.
	rng := rand.New(rand.NewSource(1))
	pattern := make([]byte, 4096+sizes[len(sizes)-1])
	rng.Read(pattern)
	payload := func(src, dst, w, s, n int) []byte {
		off := (src*101 + dst*37 + w*13 + s*7) % 4096
		return pattern[off : off+n]
	}
	for _, stack := range allStacks() {
		for _, noPooling := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/nopooling=%v", stack.Name, noPooling), func(t *testing.T) {
				cfg := xeonCfg(np, stack)
				cfg.Placement = placement
				cfg.NoPooling = noPooling
				_, err := Run(cfg, func(c *Comm) {
					me := c.Rank()
					fail := func(format string, args ...any) {
						t.Errorf("rank %d: "+format, append([]any{me}, args...)...)
					}
					// The single-request cases, rank 0 receiving from each peer.
					if me == 0 {
						for _, peer := range []int{1, 2} {
							buf := make([]byte, 64)
							q := c.Irecv(peer, 1, buf)
							st := c.Wait(q)
							if want := (Status{Source: peer, Tag: 1, Len: 5}); st != want {
								fail("Wait: status %+v, want %+v", st, want)
							}
							if again := c.Wait(q); again != st {
								fail("second Wait: status %+v, want %+v", again, st)
							}
							if !c.Test(q) || !q.Done() {
								fail("Test or Done after Wait: false")
							}
							if again := c.Wait(q); again != st {
								fail("Wait after Test: status %+v, want %+v", again, st)
							}

							qs := []*Request{c.Irecv(peer, 2, buf), c.Irecv(peer, 3, buf[32:])}
							i, st := c.WaitAny(qs...)
							if i < 0 || st.Source != peer || st.Tag != 2+i || st.Len != 3 {
								fail("WaitAny: index %d status %+v", i, st)
							} else if again := c.Wait(qs[i]); again != st {
								fail("Wait on WaitAny's winner: status %+v, want %+v", again, st)
							}
							c.WaitAll(qs[0], qs[1], qs[0])
							for k, q := range qs {
								if st := c.Wait(q); !q.Done() || st.Tag != 2+k || st.Len != 3 {
									fail("WaitAll with a repeat: request %d status %+v, done %v", k, st, q.Done())
								}
							}
						}
					} else {
						c.Send(0, 1, []byte("hello"))
						c.Send(0, 2, []byte("abc"))
						c.Send(0, 3, []byte("def"))
					}

					// The windows: every rank sends slots messages to each
					// other rank and receives as many from each.
					var peers []int
					for r := 0; r < np; r++ {
						if r != me {
							peers = append(peers, r)
						}
					}
					// The buffers are reused window after window, so a
					// transfer that lands late or twice overwrites a checked
					// payload.
					maxLen := sizes[len(sizes)-1]
					out := make([][]byte, len(peers)*slots)
					in := make([][]byte, len(peers)*slots)
					for i := range out {
						out[i], in[i] = make([]byte, maxLen), make([]byte, maxLen)
					}
					qs := make([]*Request, 0, 2*len(out))
					for w := 0; w < windows; w++ {
						qs = qs[:0]
						for k, peer := range peers {
							for s := 0; s < slots; s++ {
								n := sizes[(w+s+me+peer)%len(sizes)]
								i := k*slots + s
								clear(in[i])
								qs = append(qs, c.Irecv(peer, s, in[i][:n]))
							}
						}
						for k, peer := range peers {
							for s := 0; s < slots; s++ {
								n := sizes[(w+s+me+peer)%len(sizes)]
								i := k*slots + s
								copy(out[i], payload(me, peer, w, s, n))
								qs = append(qs, c.Isend(peer, s, out[i][:n]))
							}
						}
						switch w % 5 {
						case 0, 1:
							c.WaitAll(qs...)
						case 2:
							for _, q := range qs {
								c.Wait(q)
							}
						case 3:
							pending := append([]*Request(nil), qs...)
							for len(pending) > 0 {
								i, _ := c.WaitAny(pending...)
								pending = append(pending[:i], pending[i+1:]...)
							}
						case 4:
							for _, q := range qs {
								for !c.Test(q) {
									c.Compute(1e-6)
								}
							}
						}
						for _, q := range qs {
							if !q.Done() || !c.Test(q) {
								fail("window %d: a request is not done after its wait", w)
							}
						}
						for k, peer := range peers {
							for s := 0; s < slots; s++ {
								got := in[k*slots+s][:sizes[(w+s+me+peer)%len(sizes)]]
								want := payload(peer, me, w, s, len(got))
								if !bytes.Equal(got, want) {
									i := firstDiff(got, want)
									fail("window %d slot %d from %d: byte %d = %#x, want %#x", w, s, peer, i, got[i], want[i])
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
}
