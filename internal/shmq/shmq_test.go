package shmq

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
)

func TestEnqueueDequeueFIFO(t *testing.T) {
	q := &Queue{}
	cells := make([]*Cell, 10)
	for i := range cells {
		cells[i] = &Cell{buf: make([]byte, 0, 16)}
		cells[i].Hdr.SeqNo = uint32(i)
		q.Enqueue(cells[i])
	}
	for i := range cells {
		c := q.Dequeue()
		if c == nil {
			t.Fatalf("premature empty at %d", i)
		}
		if c.Hdr.SeqNo != uint32(i) {
			t.Fatalf("got seq %d, want %d", c.Hdr.SeqNo, i)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestEmpty(t *testing.T) {
	q := &Queue{}
	if !q.Empty() {
		t.Fatal("new queue not empty")
	}
	c := &Cell{buf: make([]byte, 0, 8)}
	q.Enqueue(c)
	if q.Empty() {
		t.Fatal("queue with one cell reported empty")
	}
	q.Dequeue()
	if !q.Empty() {
		t.Fatal("drained queue not empty")
	}
}

func TestInterleavedEnqueueDequeue(t *testing.T) {
	q := &Queue{}
	mk := func(i int) *Cell {
		c := &Cell{buf: make([]byte, 0, 8)}
		c.Hdr.SeqNo = uint32(i)
		return c
	}
	q.Enqueue(mk(0))
	q.Enqueue(mk(1))
	if got := q.Dequeue().Hdr.SeqNo; got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
	q.Enqueue(mk(2))
	if got := q.Dequeue().Hdr.SeqNo; got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	if got := q.Dequeue().Hdr.SeqNo; got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	if q.Dequeue() != nil {
		t.Fatal("expected empty")
	}
}

// TestConcurrentProducers runs many producers against a single consumer with
// the race detector able to observe the real atomics. Every cell must arrive
// exactly once and in FIFO order per producer.
func TestConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	q := &Queue{}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				c := &Cell{buf: make([]byte, 0, 8)}
				c.Hdr.Src = int32(p)
				c.Hdr.SeqNo = uint32(i)
				q.Enqueue(c)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	lastSeq := make(map[int32]int64)
	for p := int32(0); p < producers; p++ {
		lastSeq[p] = -1
	}
	received := 0
	drained := false
	for received < producers*perProducer {
		c := q.Dequeue()
		if c == nil {
			if drained {
				t.Fatalf("queue empty after producers done, received %d", received)
			}
			select {
			case <-done:
				drained = true
			default:
			}
			continue
		}
		drained = false
		if c.Hdr.SeqNo != uint32(lastSeq[c.Hdr.Src]+1) {
			t.Fatalf("producer %d: got seq %d after %d", c.Hdr.Src, c.Hdr.SeqNo, lastSeq[c.Hdr.Src])
		}
		lastSeq[c.Hdr.Src]++
		received++
	}
}

func TestPoolLifecycle(t *testing.T) {
	p, err := NewPool(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCells() != 4 || p.CellSize() != 64 {
		t.Fatalf("pool meta wrong: %d x %d", p.NumCells(), p.CellSize())
	}
	var got []*Cell
	for i := 0; i < 4; i++ {
		c := p.GetFree()
		if c == nil {
			t.Fatalf("free queue exhausted at %d", i)
		}
		got = append(got, c)
	}
	if p.GetFree() != nil {
		t.Fatal("free queue should be exhausted")
	}
	for _, c := range got {
		p.Release(c)
	}
	if p.GetFree() == nil {
		t.Fatal("released cells not reusable")
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, 64); err == nil {
		t.Fatal("expected error for 0 cells")
	}
	if _, err := NewPool(4, 0); err == nil {
		t.Fatal("expected error for 0-byte cells")
	}
}

func TestCellPayload(t *testing.T) {
	p, err := NewPool(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := p.GetFree()
	c.SetPayload([]byte("hello"))
	if string(c.Payload()) != "hello" {
		t.Fatalf("payload = %q", c.Payload())
	}
	if c.Capacity() != 16 {
		t.Fatalf("capacity = %d, want 16", c.Capacity())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized payload must panic")
		}
	}()
	c.SetPayload(make([]byte, 17))
}

func TestReleaseClearsCell(t *testing.T) {
	p, _ := NewPool(1, 16)
	c := p.GetFree()
	c.SetPayload([]byte("x"))
	c.Hdr.Tag = 42
	p.Release(c)
	c2 := p.GetFree()
	if c2.Hdr.Tag != 0 || len(c2.Payload()) != 0 {
		t.Fatal("released cell not cleared")
	}
}

func TestCellsDoNotAlias(t *testing.T) {
	p, _ := NewPool(2, 8)
	a := p.GetFree()
	b := p.GetFree()
	a.SetPayload([]byte("aaaaaaaa"))
	b.SetPayload([]byte("bbbbbbbb"))
	if string(a.Payload()) != "aaaaaaaa" {
		t.Fatal("cell buffers alias")
	}
}

// TestCellStoreLifecycle: a cell holds a payload buffer only while it is
// full. After the traffic drains, every buffer lent is back, no free cell
// holds one, and the store keeps no more buffers than were ever full at once
// nor than the pool has cells. Under -race a buffer given back is poisoned,
// so a payload read after its release shows. The concurrent variant
// releases from several receiver goroutines into the one sender pool, as
// Nemesis receivers do.
func TestCellStoreLifecycle(t *testing.T) {
	const numCells, cellSize = 16, 1 << 10
	fill := func(b []byte, seed int) {
		for i := range b {
			b[i] = byte(seed*31 + i)
		}
	}
	sizeOf := func(i int) int { return []int{1, 64, 65, 200, 700, cellSize}[i%6] }
	drained := func(t *testing.T, p *Pool, peak int) {
		st := &p.store
		if st.gets != st.puts {
			t.Fatalf("%d buffers lent, %d given back", st.gets, st.puts)
		}
		free := 0
		for c := p.GetFree(); c != nil; c = p.GetFree() {
			if c.buf != nil {
				t.Fatal("a free cell holds a payload buffer")
			}
			free++
		}
		if free != numCells {
			t.Fatalf("%d free cells after the drain, want %d", free, numCells)
		}
		if st.kept > peak || st.kept > numCells {
			t.Fatalf("store keeps %d buffers, peak full %d, %d cells", st.kept, peak, numCells)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		p, _ := NewPool(numCells, cellSize)
		var full []*Cell
		peak, seq := 0, 0
		release := func() {
			c := full[0]
			full = full[1:]
			want := make([]byte, len(c.Payload()))
			fill(want, int(c.Hdr.SeqNo))
			if !bytes.Equal(c.Payload(), want) {
				t.Fatalf("cell %d payload corrupted", c.Hdr.SeqNo)
			}
			kept := c.Payload()
			p.Release(c)
			if bufpool.PoisonOnPut && len(kept) > 0 && kept[0] != 0xdb {
				t.Fatal("a buffer given back was not poisoned")
			}
		}
		// Bursts of growing depth, each drained before the next. Every
		// burst draws the same sequence of sizes, so the deepest one is
		// every class's high-water mark, and what the store keeps is
		// bounded by that burst's depth.
		for depth := 1; depth < numCells; depth += 5 {
			for i := 0; i < depth; i++ {
				c := p.GetFree()
				if c == nil {
					t.Fatal("free queue exhausted")
				}
				msg := make([]byte, sizeOf(i))
				fill(msg, seq)
				c.Hdr.SeqNo = uint32(seq)
				c.SetPayload(msg)
				full = append(full, c)
				seq++
			}
			peak = max(peak, len(full))
			for len(full) > 0 {
				release()
			}
		}
		misses := p.store.misses
		// A repeat of the deepest burst is served from what the store kept.
		for i := 0; i < peak; i++ {
			c := p.GetFree()
			c.SetPayload(make([]byte, sizeOf(i)))
			full = append(full, c)
		}
		for _, c := range full {
			p.Release(c)
		}
		full = nil
		if got := p.store.misses - misses; got != 0 {
			t.Fatalf("a repeated burst allocated %d buffers", got)
		}
		drained(t, p, peak)
	})

	// At the limit a larger buffer displaces a smaller one, and a class
	// with none free borrows a larger one: bursts that alternate between
	// filling every cell with small payloads and with large ones settle
	// after one round instead of allocating the large ones every time.
	t.Run("shifting sizes", func(t *testing.T) {
		p, _ := NewPool(numCells, cellSize)
		burst := func(n int) {
			var full []*Cell
			for c := p.GetFree(); c != nil; c = p.GetFree() {
				c.SetPayload(make([]byte, n))
				full = append(full, c)
			}
			for _, c := range full {
				p.Release(c)
			}
		}
		burst(100)
		burst(cellSize)
		misses := p.store.misses
		for round := 0; round < 3; round++ {
			burst(100)
			burst(cellSize)
		}
		if got := p.store.misses - misses; got != 0 {
			t.Fatalf("alternating bursts allocated %d buffers after the first round", got)
		}
		drained(t, p, numCells)
	})

	t.Run("concurrent", func(t *testing.T) {
		const receivers, perReceiver = 4, 500
		p, _ := NewPool(numCells, cellSize)
		queues := make([]*Queue, receivers)
		var wg sync.WaitGroup
		corrupted := make([]int, receivers)
		for r := range queues {
			queues[r] = &Queue{}
			wg.Add(1)
			go func(r int, q *Queue) {
				defer wg.Done()
				for got := 0; got < perReceiver; {
					c := q.Dequeue()
					if c == nil {
						runtime.Gosched()
						continue
					}
					want := make([]byte, len(c.Payload()))
					fill(want, int(c.Hdr.SeqNo))
					if !bytes.Equal(c.Payload(), want) {
						corrupted[r]++
					}
					p.Release(c)
					got++
				}
			}(r, queues[r])
		}
		for seq := 0; seq < receivers*perReceiver; {
			c := p.GetFree()
			if c == nil {
				runtime.Gosched() // every cell is out: wait for a receiver to release one
				continue
			}
			msg := make([]byte, sizeOf(seq))
			fill(msg, seq)
			c.Hdr.SeqNo = uint32(seq)
			c.SetPayload(msg)
			queues[seq%receivers].Enqueue(c)
			seq++
		}
		wg.Wait()
		for r, n := range corrupted {
			if n > 0 {
				t.Fatalf("receiver %d got %d corrupted payloads", r, n)
			}
		}
		drained(t, p, numCells)
	})
}

// Property: any interleaving of enqueue/dequeue operations driven by a
// script behaves like a FIFO queue.
func TestPropertyQueueIsFIFO(t *testing.T) {
	f := func(script []bool) bool {
		q := &Queue{}
		var model []uint32
		next := uint32(0)
		for _, enq := range script {
			if enq {
				c := &Cell{buf: make([]byte, 0, 4)}
				c.Hdr.SeqNo = next
				model = append(model, next)
				next++
				q.Enqueue(c)
			} else {
				c := q.Dequeue()
				if len(model) == 0 {
					if c != nil {
						return false
					}
					continue
				}
				if c == nil || c.Hdr.SeqNo != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		// Drain and compare the remainder.
		for _, want := range model {
			c := q.Dequeue()
			if c == nil || c.Hdr.SeqNo != want {
				return false
			}
		}
		return q.Dequeue() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a pool never hands out more cells than it owns and recycling
// preserves the total.
func TestPropertyPoolConservation(t *testing.T) {
	f := func(ops []bool) bool {
		p, err := NewPool(8, 8)
		if err != nil {
			return false
		}
		var held []*Cell
		for _, get := range ops {
			if get {
				c := p.GetFree()
				if c != nil {
					held = append(held, c)
				} else if len(held) != 8 {
					return false // exhausted early
				}
			} else if len(held) > 0 {
				p.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		// Drain everything: held + free must total 8.
		n := len(held)
		for {
			c := p.GetFree()
			if c == nil {
				break
			}
			n++
		}
		return n == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	q := &Queue{}
	c := &Cell{buf: make([]byte, 0, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(c)
		q.Dequeue()
	}
}
