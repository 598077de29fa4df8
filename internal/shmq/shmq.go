// Package shmq implements the lock-free shared-memory queues at the heart of
// the Nemesis communication channel (§2.1.1 of the paper).
//
// Nemesis moves intra-node messages through fixed-size message cells that
// live in shared memory. Each process owns two multi-producer single-consumer
// queues: a *free queue* holding empty cells and a *receive queue* into which
// any sender may enqueue filled cells. Enqueue is lock-free (an atomic swap
// on the tail pointer); dequeue is performed only by the owning process. The
// receiver polls a single receive queue regardless of the number of peers,
// which is what makes the design scalable and MPI_ANY_SOURCE-friendly.
//
// This package is real concurrent code (sync/atomic) and is exercised by the
// race-enabled tests; the simulation layers use it with deterministic,
// single-threaded call sequences plus a virtual-time cost model.
package shmq

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
)

// CellType discriminates what a filled cell carries.
type CellType uint8

const (
	// CellData is an in-band eager message fragment.
	CellData CellType = iota
	// CellRTS is a CH3 rendezvous request-to-send control message.
	CellRTS
	// CellCTS is a CH3 rendezvous clear-to-send control message.
	CellCTS
	// CellRdvData is a rendezvous payload fragment, routed by ReqID rather
	// than matched by tag.
	CellRdvData
)

// Header describes the message (fragment) held in a cell. Field layout
// mirrors the MPICH2 packet header that travels in each Nemesis cell.
type Header struct {
	Type   CellType
	Src    int32 // sending rank
	Tag    int32
	Ctx    int32 // communicator context id
	SeqNo  uint32
	MsgLen int64 // total message length (may span multiple cells)
	Offset int64 // offset of this fragment within the message
	// ReqID carries an opaque request handle in RTS/CTS control cells so
	// the peer can address its reply.
	ReqID uint64
}

// Cell is one fixed-size shared-memory message cell. It holds payload
// memory only while it is full: SetPayload borrows a buffer of at least
// the fragment's size class from the owning pool's store, and Pool.Release
// gives it back. A simulated job of thousands of ranks would otherwise keep
// a buffer behind every cell it ever filled, when at most a handful of them
// are full at once. The *capacity* stays fixed — flow control and
// fragmentation behave exactly as if the memory were preallocated.
type Cell struct {
	next atomic.Pointer[Cell]
	Hdr  Header
	pool *Pool  // owner, whose store lends the payload buffer
	buf  []byte // the borrowed buffer while full; len tracks the valid fragment bytes
}

// Payload returns the valid bytes of the fragment.
func (c *Cell) Payload() []byte { return c.buf }

// SetPayload copies p into the cell. It panics if p exceeds the capacity;
// callers fragment messages across cells (as Nemesis does) before filling.
func (c *Cell) SetPayload(p []byte) {
	if len(p) > c.pool.cellSize {
		panic(fmt.Sprintf("shmq: payload %d exceeds cell capacity %d", len(p), c.pool.cellSize))
	}
	c.pool.store.put(c.buf)
	c.buf = c.pool.store.get(len(p))
	copy(c.buf, p)
}

// Capacity returns the fixed payload capacity of the cell.
func (c *Cell) Capacity() int { return c.pool.cellSize }

// Queue is a lock-free multi-producer single-consumer queue of cells,
// implementing the MPICH2/Nemesis enqueue/dequeue algorithm: enqueue swaps
// the tail atomically and links the predecessor; dequeue (owner only)
// resolves the race against an in-flight enqueue with a tail CAS.
type Queue struct {
	head atomic.Pointer[Cell]
	tail atomic.Pointer[Cell]
}

// Enqueue appends c. Safe for concurrent use by any number of producers.
func (q *Queue) Enqueue(c *Cell) {
	c.next.Store(nil)
	prev := q.tail.Swap(c)
	if prev == nil {
		q.head.Store(c)
	} else {
		prev.next.Store(c)
	}
}

// Dequeue removes and returns the oldest cell, or nil if the queue is
// (observably) empty. Only the owning consumer may call Dequeue.
func (q *Queue) Dequeue() *Cell {
	c := q.head.Load()
	if c == nil {
		return nil
	}
	if next := c.next.Load(); next != nil {
		q.head.Store(next)
	} else {
		q.head.Store(nil)
		if !q.tail.CompareAndSwap(c, nil) {
			// A producer swapped the tail but has not linked c.next yet;
			// wait for the link to appear (it is one store away).
			next := c.next.Load()
			for next == nil {
				runtime.Gosched()
				next = c.next.Load()
			}
			q.head.Store(next)
		}
	}
	c.next.Store(nil)
	return c
}

// Empty reports whether the queue appears empty to the consumer. A false
// negative is impossible for cells enqueued before the call from the same
// goroutine; concurrent in-flight enqueues may or may not be visible, which
// is the same guarantee polling has on real shared memory.
func (q *Queue) Empty() bool { return q.head.Load() == nil }

// Pool is a process's pair of queues plus its cell storage: the free queue
// seeded with every cell, and the receive queue into which peers enqueue.
type Pool struct {
	Free *Queue
	Recv *Queue

	numCells int
	cellSize int
	store    store
}

// NewPool allocates numCells cells of payload capacity cellSize bytes and
// seeds the free queue with all of them.
func NewPool(numCells, cellSize int) (*Pool, error) {
	if numCells <= 0 || cellSize <= 0 {
		return nil, fmt.Errorf("shmq: invalid pool %d cells x %d bytes", numCells, cellSize)
	}
	p := &Pool{Free: &Queue{}, Recv: &Queue{}, numCells: numCells, cellSize: cellSize}
	top, _ := bufpool.ClassOf(cellSize)
	p.store.limit, p.store.nclasses = numCells, top+1
	for i := 0; i < numCells; i++ {
		p.Free.Enqueue(&Cell{pool: p})
	}
	return p, nil
}

// NumCells returns the number of cells the pool was created with.
func (p *Pool) NumCells() int { return p.numCells }

// CellSize returns the payload capacity of each cell.
func (p *Pool) CellSize() int { return p.cellSize }

// GetFree dequeues a free cell (nil if the free queue is exhausted, in which
// case the sender must poll and retry, exactly like Nemesis flow control).
func (p *Pool) GetFree() *Cell { return p.Free.Dequeue() }

// Release returns a consumed cell to the free queue and its payload buffer
// to the pool's store.
func (p *Pool) Release(c *Cell) {
	p.store.put(c.buf)
	c.buf = nil
	c.Hdr = Header{}
	p.Free.Enqueue(c)
}

// store lends cell payload buffers in bufpool's size classes. It keeps
// every buffer handed back, up to limit (the pool's cell count) in all —
// never more than cells that each kept their own buffer would hold. A class
// with none free lends the smallest larger one it keeps, and at the limit a
// larger buffer handed back displaces the smallest kept, so the kept set
// settles on what the pool's peaks of full cells need, as cells that each
// grew their own buffer would, instead of churning when the mix of sizes
// shifts. A class's free list is given room for each buffer of its size as
// it is made, so a put never grows it.
//
// Receivers release cells into the sender's pool, from their own goroutines
// in the concurrent tests, so a mutex guards the store; the simulator runs
// one proc at a time and never contends it.
type store struct {
	mu       sync.Mutex
	classes  []cellClass // made on first get
	nclasses int         // up to the class of the cell size
	kept     int         // buffers held in the free lists
	limit    int

	gets, puts, misses int64
}

type cellClass struct {
	free [][]byte
	live int // buffers of this class out or kept
}

// get returns a buffer of length n (nil for n == 0).
func (st *store) get(n int) []byte {
	if n == 0 {
		return nil
	}
	idx, size := bufpool.ClassOf(n)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gets++
	if st.classes == nil {
		st.classes = make([]cellClass, st.nclasses)
	}
	for i := idx; i < len(st.classes); i++ {
		if b := st.classes[i].pop(); b != nil {
			st.kept--
			return b[:n]
		}
	}
	st.misses++
	cl := &st.classes[idx]
	cl.live++
	cl.free = slices.Grow(cl.free, cl.live)
	return make([]byte, n, size)
}

// put takes back a buffer from get; the caller must not touch it afterwards.
func (st *store) put(b []byte) {
	if b == nil {
		return
	}
	idx, _ := bufpool.ClassOf(cap(b))
	st.mu.Lock()
	defer st.mu.Unlock()
	st.puts++
	if st.kept == st.limit {
		small := 0
		for len(st.classes[small].free) == 0 {
			small++
		}
		if small >= idx {
			st.classes[idx].live--
			return
		}
		st.classes[small].pop()
		st.classes[small].live--
		st.kept--
	}
	bufpool.Poison(b)
	cl := &st.classes[idx]
	cl.free = append(cl.free, b[:0])
	st.kept++
}

// pop removes and returns the class's most recently kept buffer, or nil.
func (cl *cellClass) pop() []byte {
	last := len(cl.free) - 1
	if last < 0 {
		return nil
	}
	b := cl.free[last]
	cl.free[last] = nil
	cl.free = cl.free[:last]
	return b
}
