// Package bufpool holds the simulator's recycled stores. A Pool holds the
// payload buffers the transports copy messages into; a world shares one
// across its ranks. A network send copies an eager payload into a Pool
// buffer before it completes — the bounce copy of §2.1.3 — so the sender may
// reuse its memory as soon as the send returns, and the buffer goes back
// once the receiver has handled the packet. The CH3 unexpected queue and
// NewMadeleine's unexpected list keep an eager payload that arrived before
// its receive in a Pool buffer (NewMadeleine takes the sender's bounce
// buffer over instead of copying it again), track it in a record from a
// Records list, and hand both back once the matching receive has copied the
// payload out. List is the free list behind the transports' recycled
// requests, packet wrappers, jobs and in-flight records, and ClassOf the
// size classes that shared-memory cells borrow their payloads in.
package bufpool

import (
	"math/bits"
	"slices"
	"sync"
)

// Buffer capacities step four times per octave — 64, 80, 96, 112, 128, 160 …
// up to maxSize, the largest eager payload either transport buffers — so a
// buffer wastes under a quarter of itself. A Pool keeps two tiers of them.
// Classes up to strongMax are held strongly: each keeps at most perClass
// buffers, what a burst hands back beyond that is left to the collector, and
// their retention is bounded by Budget bytes however deep the burst was. The
// larger classes are held weakly, in a sync.Pool each, which the collector
// may empty: a burst of large eager messages is recycled while it lasts, and
// an idle world retains none of it. Small classes stay strong because a
// sync.Pool rebuilds its per-P store after every collection, an allocation
// the steady small-message paths cannot afford.
const (
	minSize    = 1 << minBits
	strongMax  = 1 << strongBits
	maxSize    = 1 << maxBits
	minBits    = 6
	strongBits = 12
	maxBits    = 16
	nStrong    = 1 + 4*(strongBits-minBits)
	nClasses   = 1 + 4*(maxBits-minBits)
	perClass   = 16
	// Budget sums every strong class: the steps of the octave ending at 2^t
	// are (5+6+7+8)/8 of it.
	Budget = perClass * (minSize + 26*(2*strongMax-2*minSize)/8)
)

// Pool is a size-classed store of byte buffers: a LIFO free list per strong
// class, a sync.Pool per weak one. The zero value is ready to use; a Pool
// must not be copied after first use. One simulated process runs at a time,
// so a world shares one Pool without locking.
type Pool struct {
	free [nStrong][][]byte
	weak [nClasses - nStrong]sync.Pool // of *holder
	// holders recycles the records a weak class keeps its buffers in, so
	// that handing a buffer back allocates nothing.
	holders List[holder]

	// Gets, Puts and Misses count buffers handed out, handed back and
	// allocated (zero-length requests count as none of them).
	Gets, Puts, Misses int64
}

// holder carries a buffer through a sync.Pool, which boxes what it holds: a
// pointer boxes for free, a slice header would not.
type holder struct{ b []byte }

// ClassOf returns the index and capacity of the smallest class holding n
// bytes (n > 0). The classes go on past maxSize in the same quarter-octave
// steps, for stores of larger buffers; a Pool keeps classes up to maxSize.
func ClassOf(n int) (idx, size int) {
	if n <= minSize {
		return 0, minSize
	}
	t := bits.Len(uint(n - 1)) // n lies in (2^(t-1), 2^t], which steps by 2^(t-3)
	m := (n-1)>>(t-3) + 1      // 5..8 steps
	return 1 + 4*(t-minBits-1) + m - 5, m << (t - 3)
}

// Get returns a buffer of length n with unspecified contents.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	p.Gets++
	if n > maxSize {
		p.Misses++
		return make([]byte, n)
	}
	idx, size := ClassOf(n)
	if idx < nStrong {
		list := &p.free[idx]
		if last := len(*list) - 1; last >= 0 {
			b := (*list)[last]
			(*list)[last] = nil
			*list = (*list)[:last]
			return b[:n]
		}
	} else if h, _ := p.weak[idx-nStrong].Get().(*holder); h != nil {
		b := h.b
		h.b = nil
		p.holders.Put(h)
		return b[:n]
	}
	p.Misses++
	return make([]byte, n, size)
}

// Put hands back a buffer obtained from Get; the caller must not touch it
// afterwards.
func (p *Pool) Put(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	p.Puts++
	if c > maxSize {
		return
	}
	idx, size := ClassOf(c)
	if size != c {
		return // not a capacity Get hands out
	}
	if idx < nStrong {
		if list := &p.free[idx]; len(*list) < perClass {
			Poison(b)
			*list = append(*list, b[:0])
		}
		return // else the class is full
	}
	Poison(b)
	h := p.holders.Get()
	if h == nil {
		p.holders.Made()
		h = new(holder)
	}
	h.b = b[:0]
	p.weak[idx-nStrong].Put(h)
}

// Poison overwrites all of b's capacity when PoisonOnPut is set, so that a
// read through a buffer already handed back shows.
func Poison(b []byte) {
	if PoisonOnPut {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xdb
		}
	}
}

// Retained returns the bytes of capacity the strong classes hold for reuse;
// what the weak classes hold is the collector's to keep or take.
func (p *Pool) Retained() int {
	n := 0
	for _, list := range p.free {
		for _, b := range list {
			n += cap(b)
		}
	}
	return n
}

// maxRecords bounds a Records list, and the slots a List reserves: a burst's
// peak is left to the collector (or to append), a steady trickle recycles.
const maxRecords = 64

// Records is a bounded LIFO free list of *T bookkeeping records. The zero
// value is ready to use.
type Records[T any] struct{ list List[T] }

// Get returns a zeroed record.
func (r *Records[T]) Get() *T {
	if v := r.list.Get(); v != nil {
		return v
	}
	r.list.Made()
	return new(T)
}

// Put zeroes v and keeps it for reuse; the caller must not touch it
// afterwards.
func (r *Records[T]) Put(v *T) {
	var zero T
	*v = zero
	if r.list.Len() < maxRecords {
		r.list.Put(v)
	}
}

// List is an unbounded LIFO free list of *T, for objects whose owner makes
// one on a miss and keeps every one handed back. Made reserves a slot for
// each of the first maxRecords objects made, so while no more than that are
// in use Put never grows the list: a release allocates nothing, in whatever
// order the objects come back. The reservation stops there because an
// object need not come back — a request its caller never releases is
// collected — and reserving for every object ever made would grow the list
// without end. The zero value is ready to use.
type List[T any] struct {
	free []*T
	made int
}

// Get pops the most recently put object, or returns nil when none is free;
// the caller then makes one and reports it with Made.
func (l *List[T]) Get() *T {
	last := len(l.free) - 1
	if last < 0 {
		return nil
	}
	v := l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	return v
}

// Made counts an object the caller made after Get returned nil and, for
// the first maxRecords, reserves the slot it will come back to.
func (l *List[T]) Made() {
	if l.made == maxRecords {
		return
	}
	if l.made++; cap(l.free) < l.made {
		l.free = slices.Grow(l.free, l.made-len(l.free))
	}
}

// Put hands v back for reuse; the caller must not touch it afterwards.
func (l *List[T]) Put(v *T) { l.free = append(l.free, v) }

// Len returns the number of objects free for reuse.
func (l *List[T]) Len() int { return len(l.free) }
