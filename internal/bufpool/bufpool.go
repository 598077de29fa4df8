// Package bufpool is the recycled store behind unexpected messages: the CH3
// unexpected queue and NewMadeleine's unexpected list copy an eager payload
// that arrived before its receive into a buffer from a Pool, track it in a
// record from a Records list, and hand both back once the matching receive
// has copied the payload out. The lifecycle is receiver-local — nothing a
// sender reads ever lives here.
package bufpool

import "math/bits"

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

// classOf returns the index and capacity of the smallest class holding n
// bytes (0 < n <= maxSize).
func classOf(n int) (idx, size int) {
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
	idx, size := classOf(n)
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
	idx, size := classOf(c)
	list := &p.free[idx]
	if size != c || len(*list) == perClass {
		return // not a capacity Get hands out, or the class is full
	}
	if poisonOnPut {
		b = b[:c]
		for i := range b {
			b[i] = 0xdb
		}
	}
	*list = append(*list, b[:0])
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

// maxRecords bounds a Records list: a burst's peak is left to the collector,
// a steady trickle recycles.
const maxRecords = 64

// Records is a bounded LIFO free list of *T bookkeeping records. The zero
// value is ready to use.
type Records[T any] struct{ free []*T }

// Get returns a zeroed record.
func (r *Records[T]) Get() *T {
	last := len(r.free) - 1
	if last < 0 {
		return new(T)
	}
	v := r.free[last]
	r.free[last] = nil
	r.free = r.free[:last]
	return v
}

// Put zeroes v and keeps it for reuse; the caller must not touch it
// afterwards.
func (r *Records[T]) Put(v *T) {
	var zero T
	*v = zero
	if len(r.free) < maxRecords {
		r.free = append(r.free, v)
	}
}
