package nmad

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/marcel"
	"repro/internal/pioman"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// env wires two (or more) cores over a simulated network with per-process
// pioman managers in polling mode, mirroring how the MPICH2 module drives
// NewMadeleine.
type env struct {
	e     *vtime.Engine
	net   *simnet.Network
	cores []*Core
	mgrs  []*pioman.Manager
}

func ibRail() simnet.RailParams {
	return simnet.RailParams{
		Name: "ib", Latency: 1200, BytesPerSec: 1.25e9,
		PerMsgHost: 200, ChunkBytes: 64 << 10, PerChunkHost: 300, RecvPerMsgHost: 150,
	}
}

func mxRail() simnet.RailParams {
	return simnet.RailParams{
		Name: "mx", Latency: 2000, BytesPerSec: 1.15e9,
		PerMsgHost: 250, ChunkBytes: 32 << 10, PerChunkHost: 350, RecvPerMsgHost: 180,
	}
}

// newEnv builds n processes, one per node, fully connected.
func newEnv(t *testing.T, n int, strat StrategyKind, railParams ...simnet.RailParams) *env {
	t.Helper()
	if len(railParams) == 0 {
		railParams = []simnet.RailParams{ibRail()}
	}
	e := vtime.NewEngine()
	net, err := simnet.New(e, n, railParams...)
	if err != nil {
		t.Fatal(err)
	}
	ev := &env{e: e, net: net}
	bufs := new(bufpool.Pool) // one store per world, as mpi.Run shares it
	for i := 0; i < n; i++ {
		node := marcel.NewNode(e, fmt.Sprintf("n%d", i), 8)
		mgr := pioman.New(e, node, fmt.Sprintf("p%d", i), pioman.Config{})
		core := New(e, i, i, Options{
			Strategy: strat,
			Rails:    net.Rails(),
			PostTask: func(cost vtime.Duration, run func()) {
				mgr.PostTask(pioman.Task{Cost: cost, Run: run})
			},
			Notify: mgr.Notify,
			Bufs:   bufs,
		})
		mgr.Register(core, pioman.ClassNet)
		ev.cores = append(ev.cores, core)
		ev.mgrs = append(ev.mgrs, mgr)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				ev.cores[i].Connect(ev.cores[j])
			}
		}
	}
	return ev
}

// run spawns fn(rank) as the app thread of each rank and drives to drain.
func (ev *env) run(t *testing.T, fn func(rank int, p *vtime.Proc)) {
	t.Helper()
	for i := range ev.cores {
		i := i
		ev.e.Spawn(fmt.Sprintf("app%d", i), func(p *vtime.Proc) { fn(i, p) })
	}
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func (ev *env) wait(rank int, p *vtime.Proc, r *Request) {
	ev.mgrs[rank].WaitUntil(p, r.Done)
}

func TestEagerSendRecv(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	msg := []byte("hello, newmadeleine")
	got := make([]byte, 64)
	var st Status
	ev.run(t, func(rank int, p *vtime.Proc) {
		switch rank {
		case 0:
			r := ev.cores[0].ISend(ev.cores[0].Gate(1), 7, msg)
			ev.wait(0, p, r)
		case 1:
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 7, ^uint64(0), got)
			ev.wait(1, p, r)
			st = r.Status()
		}
	})
	if !bytes.Equal(got[:st.Len], msg) {
		t.Fatalf("payload = %q", got[:st.Len])
	}
	if st.Peer != 0 || st.Tag != 7 || st.Truncated {
		t.Fatalf("status = %+v", st)
	}
}

func TestEagerLatencyComponents(t *testing.T) {
	// One-way 0-ish byte latency must include wire latency plus submission
	// and receive handling; verify it is in the right ballpark and that a
	// bigger message takes longer.
	for _, size := range []int{1, 4096} {
		ev := newEnv(t, 2, StratDefault)
		var arrived vtime.Time
		msg := make([]byte, size)
		got := make([]byte, size)
		ev.run(t, func(rank int, p *vtime.Proc) {
			if rank == 0 {
				r := ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg)
				ev.wait(0, p, r)
			} else {
				r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), got)
				ev.wait(1, p, r)
				arrived = p.Now()
			}
		})
		min := ibRail().Latency
		if vtime.Duration(arrived) <= min {
			t.Fatalf("size %d: arrival %d <= wire latency %d", size, arrived, min)
		}
		if vtime.Duration(arrived) > 100*vtime.Microsecond {
			t.Fatalf("size %d: arrival %d implausibly late", size, arrived)
		}
	}
}

func TestUnexpectedMessageBufferedAndDelivered(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	msg := []byte("early bird")
	got := make([]byte, 32)
	var st Status
	ev.run(t, func(rank int, p *vtime.Proc) {
		switch rank {
		case 0:
			r := ev.cores[0].ISend(ev.cores[0].Gate(1), 3, msg)
			ev.wait(0, p, r)
		case 1:
			// Let the message arrive unexpected first.
			p.Sleep(50 * vtime.Microsecond)
			ev.mgrs[1].Progress(p)
			if ev.cores[1].UnexpectedCount() != 1 {
				t.Errorf("unexpected count = %d, want 1", ev.cores[1].UnexpectedCount())
			}
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 3, ^uint64(0), got)
			ev.wait(1, p, r)
			st = r.Status()
		}
	})
	if !bytes.Equal(got[:st.Len], msg) {
		t.Fatalf("payload = %q", got[:st.Len])
	}
	if ev.cores[1].UnexpectedCount() != 0 {
		t.Fatal("unexpected store not drained")
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	msg := make([]byte, 256<<10) // > 32K threshold
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	got := make([]byte, len(msg))
	ev.run(t, func(rank int, p *vtime.Proc) {
		switch rank {
		case 0:
			r := ev.cores[0].ISend(ev.cores[0].Gate(1), 9, msg)
			ev.wait(0, p, r)
		case 1:
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 9, ^uint64(0), got)
			ev.wait(1, p, r)
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("rendezvous payload corrupted")
	}
	if ev.cores[1].RdvStarted != 1 {
		t.Fatalf("RdvStarted = %d, want 1", ev.cores[1].RdvStarted)
	}
}

func TestRendezvousUnexpectedRTS(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	msg := make([]byte, 100<<10)
	for i := range msg {
		msg[i] = byte(i)
	}
	got := make([]byte, len(msg))
	ev.run(t, func(rank int, p *vtime.Proc) {
		switch rank {
		case 0:
			r := ev.cores[0].ISend(ev.cores[0].Gate(1), 5, msg)
			ev.wait(0, p, r)
		case 1:
			p.Sleep(100 * vtime.Microsecond) // RTS arrives unexpected
			ev.mgrs[1].Progress(p)
			if _, ok := ev.cores[1].IProbe(5, ^uint64(0)); !ok {
				t.Error("IProbe should see the unexpected RTS")
			}
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 5, ^uint64(0), got)
			ev.wait(1, p, r)
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("late-posted rendezvous corrupted")
	}
}

func TestTruncationEager(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	msg := []byte("0123456789")
	got := make([]byte, 4)
	var st Status
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg))
		} else {
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), got)
			ev.wait(1, p, r)
			st = r.Status()
		}
	})
	if !st.Truncated || st.Len != 4 || string(got) != "0123" {
		t.Fatalf("status %+v payload %q", st, got)
	}
}

func TestTagMatchingSelectsCorrectMessage(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	bufA := make([]byte, 8)
	bufB := make([]byte, 8)
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.cores[0].ISend(ev.cores[0].Gate(1), 100, []byte("tag100"))
			r := ev.cores[0].ISend(ev.cores[0].Gate(1), 200, []byte("tag200"))
			ev.wait(0, p, r)
		} else {
			// Post tag 200 first: must not receive the tag-100 message.
			rB := ev.cores[1].IRecv(ev.cores[1].Gate(0), 200, ^uint64(0), bufB)
			rA := ev.cores[1].IRecv(ev.cores[1].Gate(0), 100, ^uint64(0), bufA)
			ev.wait(1, p, rB)
			ev.wait(1, p, rA)
		}
	})
	if string(bufA[:6]) != "tag100" || string(bufB[:6]) != "tag200" {
		t.Fatalf("bufA=%q bufB=%q", bufA, bufB)
	}
}

func TestTagMaskMatching(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	buf := make([]byte, 8)
	var st Status
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 0xAB42, []byte("masked")))
		} else {
			// Match only the high byte: any tag 0xABxx is accepted.
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 0xAB00, 0xFF00, buf)
			ev.wait(1, p, r)
			st = r.Status()
		}
	})
	if st.Tag != 0xAB42 || string(buf[:6]) != "masked" {
		t.Fatalf("status %+v buf %q", st, buf)
	}
}

func TestAnyGateRecv(t *testing.T) {
	ev := newEnv(t, 3, StratDefault)
	buf := make([]byte, 16)
	var st Status
	ev.run(t, func(rank int, p *vtime.Proc) {
		switch rank {
		case 2:
			r := ev.cores[2].IRecv(nil, 4, ^uint64(0), buf)
			ev.wait(2, p, r)
			st = r.Status()
		case 1:
			p.Sleep(10 * vtime.Microsecond)
			ev.wait(1, p, ev.cores[1].ISend(ev.cores[1].Gate(2), 4, []byte("from-1")))
		}
	})
	if st.Peer != 1 || string(buf[:6]) != "from-1" {
		t.Fatalf("status %+v buf %q", st, buf)
	}
}

func TestIProbeDoesNotConsume(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 8, []byte("probe me")))
		} else {
			p.Sleep(50 * vtime.Microsecond)
			ev.mgrs[1].Progress(p)
			g, ok := ev.cores[1].IProbe(8, ^uint64(0))
			if !ok || g.PeerRank != 0 {
				t.Errorf("probe = (%v,%v)", g, ok)
			}
			// Probe again: still there.
			if _, ok := ev.cores[1].IProbe(8, ^uint64(0)); !ok {
				t.Error("second probe failed: probe consumed the message")
			}
			buf := make([]byte, 16)
			r := ev.cores[1].IRecv(g, 8, ^uint64(0), buf)
			ev.wait(1, p, r)
			if _, ok := ev.cores[1].IProbe(8, ^uint64(0)); ok {
				t.Error("probe matched after message consumed")
			}
		}
	})
}

func TestFIFOOrderingSameTag(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	const n = 20
	var got []byte
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			var last *Request
			for i := 0; i < n; i++ {
				last = ev.cores[0].ISend(ev.cores[0].Gate(1), 1, []byte{byte(i)})
			}
			ev.wait(0, p, last)
		} else {
			for i := 0; i < n; i++ {
				buf := make([]byte, 1)
				r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), buf)
				ev.wait(1, p, r)
				got = append(got, buf[0])
			}
		}
	})
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestAggregationUnderBusyNIC(t *testing.T) {
	ev := newEnv(t, 2, StratAggreg)
	const n = 16
	msg := make([]byte, 2048)
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			var last *Request
			for i := 0; i < n; i++ {
				last = ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg)
			}
			ev.wait(0, p, last)
		} else {
			for i := 0; i < n; i++ {
				buf := make([]byte, 2048)
				r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), buf)
				ev.wait(1, p, r)
			}
		}
	})
	if ev.cores[0].PwsSent >= n {
		t.Fatalf("aggregation sent %d pws for %d messages (no aggregation happened)",
			ev.cores[0].PwsSent, n)
	}
	if ev.cores[0].Aggregated == 0 {
		t.Fatal("no entries were aggregated")
	}
}

func TestDefaultStrategyDoesNotAggregate(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	const n = 8
	msg := make([]byte, 2048)
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			var last *Request
			for i := 0; i < n; i++ {
				last = ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg)
			}
			ev.wait(0, p, last)
		} else {
			for i := 0; i < n; i++ {
				buf := make([]byte, 2048)
				ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), buf))
			}
		}
	})
	if ev.cores[0].PwsSent != n {
		t.Fatalf("default strategy sent %d pws, want %d", ev.cores[0].PwsSent, n)
	}
}

func TestMultirailSplitLargeMessage(t *testing.T) {
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	msg := make([]byte, 4<<20)
	for i := range msg {
		msg[i] = byte(i >> 8)
	}
	got := make([]byte, len(msg))
	var done vtime.Time
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 2, msg))
		} else {
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 2, ^uint64(0), got)
			ev.wait(1, p, r)
			done = p.Now()
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("split payload corrupted")
	}
	// Both rails must have carried payload.
	ib, mx := ev.net.Rail(0), ev.net.Rail(1)
	if ib.BytesSent < 1<<20 || mx.BytesSent < 1<<20 {
		t.Fatalf("split unbalanced: ib=%d mx=%d", ib.BytesSent, mx.BytesSent)
	}
	// Aggregate bandwidth: the transfer must beat the best single rail.
	single := ibRail().EstimateXfer(len(msg))
	if vtime.Duration(done) >= single {
		t.Fatalf("multirail %v not faster than single-rail estimate %v", done, single)
	}
}

func TestSplitSmallMessageUsesFastestRailOnly(t *testing.T) {
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	msg := make([]byte, 1024) // eager: below rdv threshold
	got := make([]byte, 1024)
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg))
		} else {
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), got))
		}
	})
	if ev.net.Rail(1).Packets != 0 {
		t.Fatalf("small message used the slow rail (%d packets)", ev.net.Rail(1).Packets)
	}
}

func TestNoCancellationRequestStaysPending(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	buf := make([]byte, 8)
	var req *Request
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 1 {
			req = ev.cores[1].IRecv(ev.cores[1].Gate(0), 42, ^uint64(0), buf)
			p.Sleep(vtime.Millisecond)
		}
	})
	if req.Done() {
		t.Fatal("unmatched request completed spontaneously")
	}
	if ev.cores[1].PostedRecvs() != 1 {
		t.Fatalf("posted recvs = %d, want 1 (no cancellation support)", ev.cores[1].PostedRecvs())
	}
}

func TestOnCompleteCallback(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	fired := 0
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 1, []byte("cb")))
		} else {
			buf := make([]byte, 4)
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), buf)
			r.OnComplete = func(rr *Request) {
				if rr != r {
					t.Error("callback got wrong request")
				}
				fired++
			}
			ev.wait(1, p, r)
		}
	})
	if fired != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", fired)
	}
}

func TestZeroByteMessage(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	var st Status
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 1, nil))
		} else {
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), nil)
			ev.wait(1, p, r)
			st = r.Status()
		}
	})
	if st.Len != 0 || st.Truncated {
		t.Fatalf("status = %+v", st)
	}
}

// Property: waterfill conserves bytes and never produces negative shares.
func TestPropertySplitConservation(t *testing.T) {
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	strat := stratSplit{}
	f := func(szRaw uint32) bool {
		size := int(szRaw%(64<<20)) + 1
		shares := strat.SplitRdv(ev.cores[0], size)
		total := 0
		lastEnd := 0
		for _, s := range shares {
			if s.Len <= 0 || s.Offset != lastEnd {
				return false
			}
			if s.Rail < 0 || s.Rail >= 2 {
				return false
			}
			total += s.Len
			lastEnd = s.Offset + s.Len
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the split ratio approaches the bandwidth ratio for huge
// messages on rails with equal latency.
func TestSplitRatioTracksBandwidth(t *testing.T) {
	fast := ibRail()
	slow := ibRail()
	slow.Name = "slow"
	slow.BytesPerSec = fast.BytesPerSec / 3
	ev := newEnv(t, 2, StratSplitBalance, fast, slow)
	shares := stratSplit{}.SplitRdv(ev.cores[0], 64<<20)
	if len(shares) != 2 {
		t.Fatalf("want 2 shares, got %v", shares)
	}
	ratio := float64(shares[0].Len) / float64(shares[1].Len)
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("split ratio %.2f, want ~3.0", ratio)
	}
}

// Property: FIFO ordering holds for any message size mix on one tag.
func TestPropertyOrderingMixedSizes(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 12 {
			return true
		}
		sizes := make([]int, len(sizesRaw))
		for i, s := range sizesRaw {
			sizes[i] = int(s)*17 + 1 // 1 .. ~1.1MB, crosses rdv threshold
		}
		ev := newEnv(&testing.T{}, 2, StratAggreg)
		ok := true
		for i := range ev.cores {
			i := i
			ev.e.Spawn(fmt.Sprintf("app%d", i), func(p *vtime.Proc) {
				if i == 0 {
					var last *Request
					for k, sz := range sizes {
						msg := make([]byte, sz)
						for j := range msg {
							msg[j] = byte(k)
						}
						last = ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg)
					}
					ev.wait(0, p, last)
				} else {
					for k, sz := range sizes {
						buf := make([]byte, sz)
						r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), buf)
						ev.wait(1, p, r)
						if r.Status().Len != sz || (sz > 0 && buf[0] != byte(k)) {
							ok = false
						}
					}
				}
			})
		}
		if err := ev.e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FIFO send completion is scoped per (gate, tag): a send on another tag must
// complete independently of an in-flight rendezvous, otherwise legal MPI
// patterns like Isend(large) -> Barrier -> Recv deadlock (the barrier's
// eager traffic would wait on a rendezvous whose matching receive only gets
// posted after the barrier).
func TestSendCompletionIndependentAcrossTags(t *testing.T) {
	ev := newEnv(t, 2, StratAggreg)
	big := make([]byte, 100<<10) // rendezvous
	got := make([]byte, len(big))
	smallFirst := false
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			bigReq := ev.cores[0].ISend(ev.cores[0].Gate(1), 1, big)
			// Same gate, different tag: must complete while the rdv is
			// still waiting for its CTS (the peer posts that receive last).
			small := ev.cores[0].ISend(ev.cores[0].Gate(1), 2, []byte("ping"))
			ev.wait(0, p, small)
			smallFirst = !bigReq.Done()
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 3, []byte("go")))
			ev.wait(0, p, bigReq)
		} else {
			buf := make([]byte, 8)
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 2, ^uint64(0), buf))
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 3, ^uint64(0), buf))
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), got))
		}
	})
	if !bytes.Equal(got, big) {
		t.Fatal("rendezvous payload corrupted")
	}
	if !smallFirst {
		t.Fatal("small send on tag 2 should complete before the tag-1 rendezvous")
	}
}

// A rendezvous message received into a zero-length buffer must complete on
// BOTH sides: the receive as fully truncated, and the send via a zero-grant
// CTS (previously the CTS was skipped and the sender hung forever).
func TestRendezvousZeroBufferRecvCompletesSender(t *testing.T) {
	ev := newEnv(t, 2, StratAggreg)
	big := make([]byte, 200<<10)
	var st Status
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 4, big))
			// The same tag must not stay gated behind the zero-grant pack.
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 4, []byte("after")))
		} else {
			r := ev.cores[1].IRecv(ev.cores[1].Gate(0), 4, ^uint64(0), nil)
			ev.wait(1, p, r)
			st = r.Status()
			buf := make([]byte, 8)
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 4, ^uint64(0), buf))
		}
	})
	if !st.Truncated || st.Len != 0 {
		t.Fatalf("zero-buffer rdv status = %+v", st)
	}
}

func TestStrategyNames(t *testing.T) {
	for k, want := range map[StrategyKind]string{
		StratDefault: "default", StratAggreg: "aggreg", StratSplitBalance: "split_balance",
	} {
		if newStrategy(k).Name() != want || k.String() != want {
			t.Errorf("strategy %d name mismatch", k)
		}
	}
}

func TestConnectIsIdempotentAndSelfPanics(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	g1 := ev.cores[0].Gate(1)
	g2 := ev.cores[0].Connect(ev.cores[1])
	if g1 != g2 {
		t.Fatal("Connect not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self-connect must panic")
		}
	}()
	ev.cores[0].Connect(ev.cores[0])
}
