package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/coll"
	"repro/internal/vtime"
)

// Datatype describes the memory layout of a message element, supporting the
// non-contiguous user datatypes the paper lists as future work ("we think
// that NewMadeleine's optimization schemes might improve performance for
// non-contiguous user datatypes", §5). This implementation packs and unpacks
// through a contiguous staging buffer — the classic MPICH2 approach — and
// charges the packing copies to the caller.
type Datatype interface {
	// Size is the number of payload bytes one element carries.
	Size() int
	// Extent is the span of one element in user memory.
	Extent() int
	// Pack gathers one element from user memory into wire form.
	Pack(dst, user []byte)
	// Unpack scatters one element from wire form into user memory.
	Unpack(user, src []byte)
	// Name describes the type.
	Name() string
}

// Contig is n contiguous bytes.
type Contig struct{ N int }

func (t Contig) Size() int               { return t.N }
func (t Contig) Extent() int             { return t.N }
func (t Contig) Pack(dst, user []byte)   { copy(dst, user[:t.N]) }
func (t Contig) Unpack(user, src []byte) { copy(user, src[:t.N]) }
func (t Contig) Name() string            { return fmt.Sprintf("contig(%d)", t.N) }

// Vector is the strided MPI_Type_vector layout: Count blocks of BlockLen
// bytes separated by Stride bytes in user memory.
type Vector struct {
	Count    int
	BlockLen int
	Stride   int
}

// Validate reports whether the vector layout is well formed.
func (t Vector) Validate() error {
	if t.Count <= 0 || t.BlockLen <= 0 || t.Stride < t.BlockLen {
		return fmt.Errorf("mpi: invalid vector datatype %+v", t)
	}
	return nil
}

func (t Vector) Size() int   { return t.Count * t.BlockLen }
func (t Vector) Extent() int { return (t.Count-1)*t.Stride + t.BlockLen }

func (t Vector) Pack(dst, user []byte) {
	for i := 0; i < t.Count; i++ {
		copy(dst[i*t.BlockLen:(i+1)*t.BlockLen], user[i*t.Stride:])
	}
}

func (t Vector) Unpack(user, src []byte) {
	for i := 0; i < t.Count; i++ {
		copy(user[i*t.Stride:i*t.Stride+t.BlockLen], src[i*t.BlockLen:])
	}
}

func (t Vector) Name() string {
	return fmt.Sprintf("vector(%dx%d/%d)", t.Count, t.BlockLen, t.Stride)
}

// packCost models the staging copy.
func (c *Comm) packCost(n int) {
	bw := c.p.ShmMemBW()
	if n <= 0 || bw <= 0 {
		return
	}
	c.proc.Sleep(vtime.Duration(float64(n) / bw * 1e9))
}

// SendD sends `count` elements of datatype dt taken from user memory. The
// elements are packed into a contiguous wire buffer first (cost charged).
func (c *Comm) SendD(dst, tag int, user []byte, dt Datatype, count int) {
	wire := c.packD(user, dt, count)
	c.Send(dst, tag, wire)
}

// RecvD receives `count` elements of datatype dt into user memory. It
// returns the receive status (Len counts wire bytes).
func (c *Comm) RecvD(src, tag int, user []byte, dt Datatype, count int) Status {
	wire := make([]byte, dt.Size()*count)
	st := c.Recv(src, tag, wire)
	c.unpackD(user, wire[:st.Len], dt)
	return st
}

func (c *Comm) packD(user []byte, dt Datatype, count int) []byte {
	size, extent := dt.Size(), dt.Extent()
	wire := make([]byte, size*count)
	for i := 0; i < count; i++ {
		dt.Pack(wire[i*size:(i+1)*size], user[i*extent:])
	}
	c.packCost(size * count)
	return wire
}

func (c *Comm) unpackD(user, wire []byte, dt Datatype) {
	size, extent := dt.Size(), dt.Extent()
	n := len(wire) / size
	for i := 0; i < n; i++ {
		dt.Unpack(user[i*extent:], wire[i*size:(i+1)*size])
	}
	c.packCost(len(wire))
}

// AlltoallvBytes exchanges variable-size blocks: send[r] goes to rank r and
// recv[s] (pre-sized by the caller) receives from rank s. It is the
// block-view form of Alltoallv and compiles through the same schedule
// engine: per-rank pairwise rounds with zero-length blocks elided, cached
// and rebound per communicator like every other collective. Send blocks may
// alias each other (sched compiles schedules over aliased views outside
// the cache, whose positional rebinding cannot tell overlapping regions
// apart); aliased receive blocks panic. This is the primitive the IS
// kernel needs.
func (c *Comm) AlltoallvBytes(send, recv [][]byte) {
	a := c.alltoallvBytesArgs("AlltoallvBytes", send, recv)
	s, release := c.schedViews(coll.OpAlltoallv, a)
	coll.ExecBlocking(c, s, tagAlltoallv, nil)
	release()
}

// IalltoallvBytes starts a nonblocking block-view alltoallv.
func (c *Comm) IalltoallvBytes(send, recv [][]byte) *Request {
	a := c.alltoallvBytesArgs("IalltoallvBytes", send, recv)
	return c.nbcStartViews(coll.OpAlltoallv, a)
}

func (c *Comm) alltoallvBytesArgs(op string, send, recv [][]byte) coll.Args {
	c.checkAlltoall(op, send, recv)
	if c.blocksAlias(recv) {
		panic(fmt.Sprintf("mpi: %s: overlapping recv blocks", op))
	}
	return coll.Args{Send: send, Recv: recv}
}

// memSpan is one block's address range.
type memSpan struct{ lo, hi uintptr }

// blocksAlias reports whether any two nonzero blocks of the lists overlap
// in memory.
func (c *Comm) blocksAlias(lists ...[][]byte) bool {
	cc := c.ensureCache()
	spans := cc.spans[:0]
	for _, blocks := range lists {
		for _, b := range blocks {
			if len(b) > 0 {
				p := uintptr(unsafe.Pointer(&b[0]))
				spans = append(spans, memSpan{p, p + uintptr(len(b))})
			}
		}
	}
	cc.spans = spans
	// With nonzero spans sorted by start, pairwise-adjacent disjointness
	// implies global disjointness.
	slices.SortFunc(spans, func(a, b memSpan) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return true
		}
	}
	return false
}
