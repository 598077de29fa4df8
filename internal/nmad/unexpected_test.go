package nmad

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/vtime"
)

// TestUnexpectedStoreLifecycle floods a core with messages it has posted no
// receive for — eager ones of several sizes, an empty one, one it will
// truncate, and a rendezvous that buffers only its RTS — probes without
// consuming, drains newest first and repeats: payloads intact (under -race a
// buffer handed back too early is poisoned), each stored payload the
// sender's bounce buffer taken over (one buffer per message, not two), every
// buffer back in the store after each drain, and the second flood served
// from what the first returned. The collector is off, so nothing empties the
// store's weak classes (above 4 KiB) in between; under -race a sync.Pool
// drops a random share of what it is handed, so there the 30 KiB message
// may allocate again.
func TestUnexpectedStoreLifecycle(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ev := newEnv(t, 2, StratAggreg)
	pool := ev.cores[1].opt.Bufs
	if ev.cores[0].opt.Bufs != pool {
		t.Fatal("the cores of one world share no store")
	}
	sizes := []int{10, 3000, 0, 300, 30 << 10, 64, 100 << 10, 10, 3000}
	const truncTag, truncTo, rdvTag, weak = 3, 100, 6, 1 // weak: payloads above 4 KiB
	payload := func(round, tag, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(round*31 + tag*7 + i)
		}
		return b
	}
	const ack = 1000
	var missesAfterFirst, getsBefore int64
	ev.run(t, func(rank int, p *vtime.Proc) {
		c, peer := ev.cores[rank], ev.cores[rank].Gate(1-rank)
		for round := 0; round < 2; round++ {
			if rank == 0 {
				getsBefore = pool.Gets
				var rs []*Request
				for tag, n := range sizes {
					rs = append(rs, c.ISend(peer, uint64(tag), payload(round, tag, n)))
				}
				for _, r := range rs {
					ev.wait(0, p, r)
				}
				ev.wait(0, p, c.IRecv(peer, ack, ^uint64(0), nil))
				continue
			}
			for c.UnexpectedCount() < len(sizes) {
				p.Sleep(vtime.Microsecond)
				ev.mgrs[1].Progress(p)
			}
			buffered := int64(len(sizes) - 2) // neither the empty message nor the RTS holds a buffer
			if out := pool.Gets - pool.Puts; out != buffered {
				t.Errorf("round %d: %d buffers out for %d buffered payloads", round, out, buffered)
			}
			if gets := pool.Gets - getsBefore; gets != buffered {
				t.Errorf("round %d: %d buffers taken for %d buffered payloads, want the bounce buffers only", round, gets, buffered)
			}
			if _, ok := c.IProbe(uint64(truncTag), ^uint64(0)); !ok || pool.Gets-pool.Puts != buffered {
				t.Errorf("round %d: probe missed the message or consumed it", round)
			}
			for tag := len(sizes) - 1; tag >= 0; tag-- {
				want := payload(round, tag, sizes[tag])
				buf := make([]byte, len(want))
				if tag == truncTag {
					buf = buf[:truncTo]
				}
				r := c.IRecv(peer, uint64(tag), ^uint64(0), buf)
				if r.Done() != (tag != rdvTag) {
					t.Fatalf("round %d tag %d: done at IRecv = %v", round, tag, r.Done())
				}
				ev.wait(1, p, r)
				if st := r.Status(); st.Len != len(buf) || st.Truncated != (tag == truncTag) || !bytes.Equal(buf, want[:len(buf)]) {
					t.Errorf("round %d tag %d: status %+v or payload wrong", round, tag, st)
				}
			}
			if pool.Gets != pool.Puts || c.UnexpectedCount() != 0 {
				t.Errorf("round %d drained: %d gets, %d puts, %d still stored", round, pool.Gets, pool.Puts, c.UnexpectedCount())
			}
			if round == 0 {
				missesAfterFirst = pool.Misses
			}
			ev.wait(1, p, c.ISend(peer, ack, nil))
		}
	})
	if got := pool.Misses - missesAfterFirst; got > weak || (!bufpool.PoisonOnPut && got != 0) {
		t.Errorf("second flood allocated %d buffers, want none (at most %d under -race)", got, weak)
	}
	if got := pool.Retained(); got == 0 || got > bufpool.Budget {
		t.Errorf("store retains %d bytes, budget %d", got, bufpool.Budget)
	}
}
