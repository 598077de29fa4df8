package ch3

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nemesis"
	"repro/internal/shmq"
	"repro/internal/vtime"
)

// TestUnexpectedStoreLifecycle floods a receiver with messages it has not
// posted receives for — single-cell, multi-fragment, zero-length, one it
// will truncate — lets them all land in the unexpected queue, drains them
// newest first, and then takes a message it claims while only part of it has
// arrived (fed cell by cell, so the claim finds it mid-assembly). Every
// payload must come out intact (under -race a buffer handed back too early
// is poisoned), every buffer taken from the store must be back in it, and a
// second flood must be served from what the first returned. The collector
// is off, so nothing empties the store's weak classes (above 4 KiB) in
// between; under -race a sync.Pool drops a random share of what it is
// handed, so there the three 5000-byte payloads may allocate again.
func TestUnexpectedStoreLifecycle(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const weak = 3 // payloads above 4 KiB after the first flood
	pool := new(bufpool.Pool)
	e, ps := node2(t, nemesis.Options{CellPayload: 1024, NumCells: 64}, Config{Bufs: pool})
	sizes := []int{100, 5000, 0, 300, 1024, 1025, 40, 3000, 100, 5000, 7, 2047}
	const truncTag, truncTo = 3, 100 // the 300-byte message lands in 100 bytes
	payload := func(round, tag, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(round*31 + tag*7 + i)
		}
		return b
	}
	partial := payload(9, 99, 5000)

	var missesAfterFirst int64
	spawn2(t, e,
		func(p *vtime.Proc) {
			for round := 0; round < 2; round++ {
				var rs []*Request
				for tag, n := range sizes {
					rs = append(rs, ps[0].Isend(p, 1, int32(tag), 0, payload(round, tag, n)))
				}
				waitAll(p, ps[0], rs)
				ps[0].Wait(p, ps[0].Irecv(p, 1, 1000, 0, nil)) // receiver drained
			}
		},
		func(p *vtime.Proc) {
			for round := 0; round < 2; round++ {
				for ps[1].UnexpectedQLen() < len(sizes) || len(ps[1].asm) > 0 {
					p.Sleep(vtime.Microsecond)
					ps[1].Mgr.Progress(p)
				}
				if out := pool.Gets - pool.Puts; out != int64(len(sizes)-1) { // the empty message takes none
					t.Errorf("round %d: %d buffers out for %d buffered payloads", round, out, len(sizes)-1)
				}
				for tag := len(sizes) - 1; tag >= 0; tag-- {
					want := payload(round, tag, sizes[tag])
					buf := make([]byte, len(want))
					if tag == truncTag {
						buf = buf[:truncTo]
					}
					r := ps[1].Irecv(p, 0, int32(tag), 0, buf)
					if !r.Done() {
						t.Fatalf("round %d tag %d: buffered message not consumed at Irecv", round, tag)
					}
					if r.Stat.Len != len(buf) || r.Stat.Truncated != (tag == truncTag) || !bytes.Equal(buf, want[:len(buf)]) {
						t.Errorf("round %d tag %d: status %+v or payload wrong", round, tag, r.Stat)
					}
				}
				if pool.Gets != pool.Puts || ps[1].UnexpectedQLen() != 0 {
					t.Errorf("round %d drained: %d gets, %d puts, %d still queued", round, pool.Gets, pool.Puts, ps[1].UnexpectedQLen())
				}
				if round == 0 {
					missesAfterFirst = pool.Misses
				}
				ps[1].Wait(p, ps[1].Isend(p, 0, 1000, 0, nil))
			}
			// Claimed while partial: two of five cells are in the store when
			// the receive posts; it takes the prefix over and the rest lands
			// in its buffer directly.
			cell := func(off int) {
				end := min(off+1024, len(partial))
				ps[1].HandleArrival(shmq.Header{Type: shmq.CellData, Src: 0, Tag: 99, SeqNo: 1 << 20,
					MsgLen: int64(len(partial)), Offset: int64(off)}, partial[off:end], shmOrigin{})
			}
			cell(0)
			cell(1024)
			buf := make([]byte, len(partial))
			r := ps[1].Irecv(p, 0, 99, 0, buf)
			if r.Done() || pool.Gets != pool.Puts {
				t.Errorf("claim: done=%v, %d gets, %d puts", r.Done(), pool.Gets, pool.Puts)
			}
			for off := 2048; off < len(partial); off += 1024 {
				cell(off)
			}
			if !r.Done() || !bytes.Equal(buf, partial) {
				t.Errorf("claimed partial assembly: done=%v, payload intact=%v", r.Done(), bytes.Equal(buf, partial))
			}
		})
	if got := pool.Misses - missesAfterFirst; got > weak || (!bufpool.PoisonOnPut && got != 0) {
		t.Errorf("second flood and the claim allocated %d buffers, want none (at most %d under -race)", got, weak)
	}
	if got := pool.Retained(); got == 0 || got > bufpool.Budget {
		t.Errorf("store retains %d bytes, budget %d", got, bufpool.Budget)
	}
}
