// Package bufpool holds the simulator's recycled stores. A Pool is the
// store behind unexpected messages: the CH3 unexpected queue and
// NewMadeleine's unexpected list copy an eager payload that arrived before
// its receive into a buffer from a Pool, track it in a record from a
// Records list, and hand both back once the matching receive has copied the
// payload out. That lifecycle is receiver-local — nothing a sender reads
// ever lives there. List is the free list behind the transports' recycled
// requests, packet wrappers, jobs and in-flight records, and ClassOf the
// size classes that shared-memory cells borrow their payloads in.
package bufpool

import (
	"math/bits"
	"slices"
)

// Buffer capacities step four times per octave — 64, 80, 96, 112, 128, 160 …
// up to maxSize, the largest eager payload either transport buffers — so a
// buffer wastes under a quarter of itself, and a class keeps at most
// perClass of them; what a burst hands back beyond that is left to the
// collector. Retention is therefore bounded by Budget bytes however deep
// the burst was, and a class costs in proportion to its buffer size: a flood
// of small messages retains little, a few large ones are all kept.
const (
	minSize  = 1 << minBits
	maxSize  = 1 << maxBits
	minBits  = 6
	maxBits  = 16
	nClasses = 1 + 4*(maxBits-minBits)
	perClass = 16
	// Budget sums every class: the steps of the octave ending at 2^t are
	// (5+6+7+8)/8 of it.
	Budget = perClass * (minSize + 26*(2*maxSize-2*minSize)/8)
)

// Pool is a size-classed LIFO free list of byte buffers. The zero value is
// ready to use. One simulated process runs at a time, so a world shares one
// Pool without locking.
type Pool struct {
	free [nClasses][][]byte

	// Gets, Puts and Misses count buffers handed out, handed back and
	// allocated (zero-length requests count as none of them).
	Gets, Puts, Misses int64
}

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
	list := &p.free[idx]
	if last := len(*list) - 1; last >= 0 {
		b := (*list)[last]
		(*list)[last] = nil
		*list = (*list)[:last]
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
	list := &p.free[idx]
	if size != c || len(*list) == perClass {
		return // not a capacity Get hands out, or the class is full
	}
	Poison(b)
	*list = append(*list, b[:0])
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

// Retained returns the bytes of capacity currently held for reuse.
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
