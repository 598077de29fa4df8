package nmad

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simnet"
	"repro/internal/vtime"
)

func TestStaticSplitEqualShares(t *testing.T) {
	ev := newEnv(t, 2, StratSplitStatic, ibRail(), mxRail())
	shares := stratSplitStatic{}.SplitRdv(ev.cores[0], 1<<20)
	if len(shares) != 2 {
		t.Fatalf("want 2 shares, got %v", shares)
	}
	if shares[0].Len != shares[1].Len && shares[0].Len != shares[1].Len-1 {
		// 1MB/2 exactly; allow remainder on last rail.
		if shares[0].Len+shares[1].Len != 1<<20 {
			t.Fatalf("static split not conserving: %v", shares)
		}
	}
	diff := shares[0].Len - shares[1].Len
	if diff < -1 || diff > 1 {
		t.Fatalf("static split not 50/50: %v", shares)
	}
}

func TestStaticSplitSmallFallsBack(t *testing.T) {
	ev := newEnv(t, 2, StratSplitStatic, ibRail(), mxRail())
	shares := stratSplitStatic{}.SplitRdv(ev.cores[0], 6000) // < 2*MinSplit
	if len(shares) != 1 {
		t.Fatalf("small payload must use one rail: %v", shares)
	}
}

func TestStaticSplitTransferCorrect(t *testing.T) {
	ev := newEnv(t, 2, StratSplitStatic, ibRail(), mxRail())
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i >> 4)
	}
	got := make([]byte, len(msg))
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 3, msg))
		} else {
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 3, ^uint64(0), got))
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("static split corrupted payload")
	}
	// Both rails carried close to half the bytes.
	ib, mx := ev.net.Rail(0).BytesSent, ev.net.Rail(1).BytesSent
	if ib < 400<<10 || mx < 400<<10 {
		t.Fatalf("static split unbalanced: ib=%d mx=%d", ib, mx)
	}
}

func TestAdaptiveBeatsStaticOnAsymmetricRails(t *testing.T) {
	slow := mxRail()
	slow.BytesPerSec /= 3
	measure := func(strat StrategyKind) vtime.Time {
		ev := newEnv(t, 2, strat, ibRail(), slow)
		msg := make([]byte, 8<<20)
		var done vtime.Time
		ev.run(t, func(rank int, p *vtime.Proc) {
			if rank == 0 {
				ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg))
			} else {
				ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), make([]byte, len(msg))))
				done = p.Now()
			}
		})
		return done
	}
	adaptive := measure(StratSplitBalance)
	static := measure(StratSplitStatic)
	if adaptive >= static {
		t.Fatalf("adaptive (%d) should beat static 50/50 (%d) on asymmetric rails",
			adaptive, static)
	}
}

func TestThreeRailWaterfill(t *testing.T) {
	third := mxRail()
	third.Name = "mx2"
	third.BytesPerSec *= 0.5
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail(), third)
	shares := stratSplit{}.SplitRdv(ev.cores[0], 32<<20)
	if len(shares) != 3 {
		t.Fatalf("want 3 shares for a huge payload, got %v", shares)
	}
	total := 0
	for _, s := range shares {
		total += s.Len
	}
	if total != 32<<20 {
		t.Fatalf("conservation broken: %d", total)
	}
	// The fastest rail (ib) must carry the most, the slowest the least.
	if !(shares[0].Len > shares[1].Len && shares[1].Len > shares[2].Len) {
		t.Fatalf("shares not ordered by rail speed: %v", shares)
	}
}

func TestWaterfillSingleActiveRail(t *testing.T) {
	// With one active rail the analytic solve degenerates: the whole payload
	// lands on it, regardless of its latency or bandwidth.
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	for _, size := range []int{1, 4096, 1 << 20} {
		shares := waterfill(ev.cores[0], []int{1}, size)
		if len(shares) != 1 || shares[0] != size {
			t.Fatalf("single-rail waterfill(%d) = %v, want [%d]", size, shares, size)
		}
	}
}

func TestMinSplitDropsToOneRail(t *testing.T) {
	// A payload whose slower-rail share falls below MinSplit must collapse
	// onto a single rail — the drop loop keeps exactly one share covering
	// the whole payload.
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	ev.cores[0].opt.MinSplit = 1 << 20 // every secondary share is too small
	shares := stratSplit{}.SplitRdv(ev.cores[0], 256<<10)
	if len(shares) != 1 {
		t.Fatalf("want 1 share after MinSplit drop, got %v", shares)
	}
	if shares[0].Offset != 0 || shares[0].Len != 256<<10 {
		t.Fatalf("surviving share must cover the payload: %v", shares)
	}
	if shares[0].Rail != ev.cores[0].bestRail(256<<10) {
		t.Fatalf("surviving share on rail %d, want the best rail", shares[0].Rail)
	}
}

func TestWaterfillEqualLatencyRails(t *testing.T) {
	// Equal-latency rails exercise the sorted-insert tie path: with L equal,
	// the shares are exactly proportional to bandwidth and conservation
	// holds to the byte.
	fast := ibRail()
	fast.Latency = 1500
	fast.BytesPerSec = 2e9
	slow := mxRail()
	slow.Latency = 1500
	slow.BytesPerSec = 1e9
	ev := newEnv(t, 2, StratSplitBalance, fast, slow)
	const size = 3 << 20
	shares := stratSplit{}.SplitRdv(ev.cores[0], size)
	if len(shares) != 2 {
		t.Fatalf("want 2 shares, got %v", shares)
	}
	total := 0
	for _, s := range shares {
		total += s.Len
	}
	if total != size {
		t.Fatalf("conservation broken: %d != %d", total, size)
	}
	// 2:1 bandwidth ratio → 2:1 shares (± rounding absorbed by the fastest).
	if d := shares[0].Len - 2*shares[1].Len; d < -2 || d > 2 {
		t.Fatalf("equal-latency shares not bandwidth-proportional: %v", shares)
	}
}

func TestISendRailPinsEagerPack(t *testing.T) {
	// An eager pack pinned to the slower rail must ride it even though the
	// strategy would pick the faster one.
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	msg := make([]byte, 4<<10)
	got := make([]byte, len(msg))
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISendRail(ev.cores[0].Gate(1), 3, msg, 2))
		} else {
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 3, ^uint64(0), got))
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("pinned eager send corrupted payload")
	}
	if ev.net.Rail(1).Packets == 0 {
		t.Fatal("pinned pack never touched rail 1")
	}
	if ev.net.Rail(0).BytesSent > int64(len(msg)/2) {
		t.Fatalf("pinned pack leaked onto rail 0: %d bytes", ev.net.Rail(0).BytesSent)
	}
}

func TestISendRailPinsRdvWhole(t *testing.T) {
	// A pinned rendezvous payload must stay whole on its rail instead of
	// being split by the balance strategy (only control traffic may ride
	// the other rail).
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i)
	}
	got := make([]byte, len(msg))
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISendRail(ev.cores[0].Gate(1), 3, msg, 2))
		} else {
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 3, ^uint64(0), got))
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("pinned rendezvous corrupted payload")
	}
	if mx := ev.net.Rail(1).BytesSent; mx < int64(len(msg)) {
		t.Fatalf("pinned rail carried %d bytes, want >= %d", mx, len(msg))
	}
	if ib := ev.net.Rail(0).BytesSent; ib > 4<<10 {
		t.Fatalf("payload leaked onto unpinned rail: %d bytes", ib)
	}
}

func TestISendRailOutOfRangeFallsBack(t *testing.T) {
	// Hints beyond the rail count degrade to strategy placement rather than
	// panicking or dropping traffic.
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	msg := []byte("fallback")
	got := make([]byte, len(msg))
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			ev.wait(0, p, ev.cores[0].ISendRail(ev.cores[0].Gate(1), 3, msg, 9))
		} else {
			ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 3, ^uint64(0), got))
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("out-of-range hint corrupted payload")
	}
}

func TestSplitPreviewMatchesStrategy(t *testing.T) {
	ev := newEnv(t, 2, StratSplitBalance, ibRail(), mxRail())
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		want := stratSplit{}.SplitRdv(ev.cores[0], size)
		got := SplitPreview(StratSplitBalance, ev.net.Rails(), 0, size)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("SplitPreview(%d) = %v, strategy says %v", size, got, want)
		}
	}
}

// TestSplitReusesCoreScratch: repeated splits on one core give what a fresh
// core gives (every strategy, sizes that keep one rail and that use both),
// allocate nothing once the scratch has grown, and SplitPreview's result is
// the caller's — a later preview does not overwrite it.
func TestSplitReusesCoreScratch(t *testing.T) {
	sizes := []int{1, 5 << 10, 64 << 10, 1 << 20, 3 << 10, 8 << 20}
	for _, kind := range []StrategyKind{StratDefault, StratAggreg, StratSplitBalance, StratSplitStatic} {
		ev := newEnv(t, 2, kind, ibRail(), mxRail())
		c := ev.cores[0]
		for _, size := range sizes {
			want := SplitPreview(kind, ev.net.Rails(), 0, size)
			if got := c.strat.SplitRdv(c, size); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v: split of %d on a used core = %v, on a fresh one %v", kind, size, got, want)
			}
		}
		if n := testing.AllocsPerRun(10, func() {
			for _, size := range sizes {
				c.strat.SplitRdv(c, size)
			}
		}); n != 0 {
			t.Errorf("%v: a split allocates %.1f objects on a warm core", kind, n/float64(len(sizes)))
		}
	}
	a := SplitPreview(StratSplitBalance, newEnv(t, 2, StratSplitBalance, ibRail(), mxRail()).net.Rails(), 0, 1<<20)
	before := fmt.Sprint(a)
	SplitPreview(StratSplitBalance, newEnv(t, 2, StratSplitBalance, ibRail(), mxRail()).net.Rails(), 0, 8<<20)
	if fmt.Sprint(a) != before {
		t.Fatal("a later SplitPreview overwrote an earlier result")
	}
}

func TestAggregationRespectsCap(t *testing.T) {
	ev := newEnv(t, 2, StratAggreg)
	core := ev.cores[0]
	// Queue many packs while the NIC is busy, then verify no emitted packet
	// wrapper exceeds AggregMax payload (+headers).
	const n = 64
	msgSize := 4 << 10
	ev.run(t, func(rank int, p *vtime.Proc) {
		if rank == 0 {
			var last *Request
			for i := 0; i < n; i++ {
				last = core.ISend(core.Gate(1), 1, make([]byte, msgSize))
			}
			ev.wait(0, p, last)
		} else {
			for i := 0; i < n; i++ {
				ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), make([]byte, msgSize)))
			}
		}
	})
	if core.PwsSent >= n {
		t.Fatalf("no aggregation: %d pws for %d messages", core.PwsSent, n)
	}
	// Each aggregated pw holds at most AggregMax/msgSize entries (8).
	maxEntries := core.opt.AggregMax/msgSize + 1
	if avg := float64(core.EntriesSent) / float64(core.PwsSent); avg > float64(maxEntries) {
		t.Fatalf("average %f entries per pw exceeds cap %d", avg, maxEntries)
	}
}

func TestSampleTableMatchesEstimate(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	rail := ev.net.Rail(0)
	for _, pt := range rail.SampleTable() {
		if pt.Xfer != rail.Params.EstimateXfer(pt.Size) {
			t.Fatalf("sampling table inconsistent at %d", pt.Size)
		}
	}
}

func TestOweChargesAtNextPoll(t *testing.T) {
	ev := newEnv(t, 2, StratDefault)
	core := ev.cores[0]
	core.Owe(12345)
	n, cost := core.Poll()
	if n == 0 || cost < 12345 {
		t.Fatalf("owed cost not charged: n=%d cost=%d", n, cost)
	}
	core.Owe(-5) // negative owed is ignored
	if core.owed != 0 {
		t.Fatal("negative Owe must be ignored")
	}
}

func TestGateAccessors(t *testing.T) {
	ev := newEnv(t, 3, StratDefault)
	g := ev.cores[0].Gate(2)
	if g == nil || g.PeerRank != 2 {
		t.Fatalf("gate = %+v", g)
	}
	if ev.cores[0].Gate(99) != nil {
		t.Fatal("unknown gate should be nil")
	}
	if ev.cores[0].Rank() != 0 || ev.cores[0].Strategy() != "default" {
		t.Fatal("accessors wrong")
	}
}

func TestEntryKindStrings(t *testing.T) {
	for k, want := range map[EntryKind]string{
		EntryEager: "eager", EntryRTS: "rts", EntryCTS: "cts", EntryData: "data",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q", k, k.String())
		}
	}
	if EntryKind(99).String() == "" {
		t.Error("unknown kind must still format")
	}
}

func TestPacketWireSize(t *testing.T) {
	pw := &Packet{Entries: []Entry{
		{Kind: EntryEager, Data: make([]byte, 100)},
		{Kind: EntryRTS},
	}}
	want := pwHeaderBytes + entryHeaderBytes + 100 + entryHeaderBytes
	if pw.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", pw.WireSize(), want)
	}
}

func TestUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newStrategy(StrategyKind(42))
}

func TestMissingPostTaskPanics(t *testing.T) {
	e := vtime.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing PostTask")
		}
	}()
	New(e, 0, 0, Options{Rails: []*simnet.Rail{}})
}

// Benchmark the nmad fast path: eager pingpong in virtual time, measuring
// wall-clock simulation throughput.
func BenchmarkEagerPingPongSimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := &testing.T{}
		ev := newEnv(t, 2, StratAggreg)
		msg := make([]byte, 64)
		ev.run(t, func(rank int, p *vtime.Proc) {
			buf := make([]byte, 64)
			for k := 0; k < 50; k++ {
				if rank == 0 {
					ev.wait(0, p, ev.cores[0].ISend(ev.cores[0].Gate(1), 1, msg))
					ev.wait(0, p, ev.cores[0].IRecv(ev.cores[0].Gate(1), 1, ^uint64(0), buf))
				} else {
					ev.wait(1, p, ev.cores[1].IRecv(ev.cores[1].Gate(0), 1, ^uint64(0), buf))
					ev.wait(1, p, ev.cores[1].ISend(ev.cores[1].Gate(0), 1, msg))
				}
			}
		})
	}
	b.ReportMetric(float64(100*b.N), "msgs")
}

func ExamplePacket_WireSize() {
	pw := &Packet{From: 0, To: 1, Entries: []Entry{{Kind: EntryEager, Data: []byte("hi")}}}
	fmt.Println(pw.WireSize())
	// Output: 50
}
