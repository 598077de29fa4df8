// Package nemesis implements the Nemesis communication channel's intra-node
// layer (§2.1.1): per-process free/receive queues of fixed-size shared-memory
// cells with a virtual-time cost model layered over the real lock-free
// queues of package shmq.
//
// Message payloads genuinely move through cells (fragmented when larger than
// one cell), senders genuinely block when the free queue drains (Nemesis
// flow control), and receivers genuinely poll a single receive queue for all
// local peers. Costs charged: queue operations, cache-line visibility delay,
// and memory-bandwidth-limited copies in and out of cells — the copies whose
// avoidance for *network* messages motivates the paper's CH3 bypass (§2.1.3).
package nemesis

import (
	"fmt"

	"repro/internal/shmq"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Options is the shared-memory cost/shape model.
type Options struct {
	// NumCells and CellPayload size each process's cell pool.
	NumCells    int
	CellPayload int
	// MemBW is the node's copy bandwidth in bytes/sec.
	MemBW float64
	// EnqueueCost / DequeueCost are per queue operation.
	EnqueueCost vtime.Duration
	DequeueCost vtime.Duration
	// Visibility is the cache-coherence delay before an enqueued cell is
	// seen by the peer's poll.
	Visibility vtime.Duration
	// Rec, when set, records cell-queue trace events.
	Rec *trace.Recorder
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.NumCells == 0 {
		o.NumCells = 64
	}
	if o.CellPayload == 0 {
		o.CellPayload = 32 << 10
	}
	if o.MemBW == 0 {
		o.MemBW = 4e9
	}
	if o.EnqueueCost == 0 {
		o.EnqueueCost = 25
	}
	if o.DequeueCost == 0 {
		o.DequeueCost = 25
	}
	if o.Visibility == 0 {
		o.Visibility = 100
	}
	return o
}

// Handler consumes one arrived cell's header and payload (CH3 matching and
// user-buffer copies happen there); it returns the extra host cost incurred.
type Handler func(hdr shmq.Header, payload []byte) vtime.Duration

// Endpoint is one process's attachment to the node's shared memory.
type Endpoint struct {
	e    *vtime.Engine
	rank int
	opt  Options

	pool  *shmq.Pool
	peers map[int]*Endpoint

	handler Handler
	notify  func()
	// visible is the engine event senders schedule for each cell they
	// enqueue here: it calls whatever notify is installed when it fires.
	// Bound once, so a fragment builds no closure.
	visible func()

	// Stats.
	CellsSent int64
	CellsRecv int64
	SendStall int64 // times a sender found its free queue empty
}

// NewEndpoint creates the endpoint for rank with its cell pool.
func NewEndpoint(e *vtime.Engine, rank int, opt Options) (*Endpoint, error) {
	opt = opt.withDefaults()
	pool, err := shmq.NewPool(opt.NumCells, opt.CellPayload)
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{
		e: e, rank: rank, opt: opt, pool: pool,
		peers:  map[int]*Endpoint{},
		notify: func() {},
	}
	ep.visible = func() { ep.notify() }
	return ep, nil
}

// Rank returns the owning rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Options returns the active cost model.
func (ep *Endpoint) Options() Options { return ep.opt }

// ConnectLocal registers a same-node peer (both directions must be
// connected by the caller).
func (ep *Endpoint) ConnectLocal(peer *Endpoint) {
	if peer.rank == ep.rank {
		panic("nemesis: connecting endpoint to itself")
	}
	ep.peers[peer.rank] = peer
}

// SetHandler installs the arrival consumer (the CH3 layer).
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

// SetNotify installs the arrival notification hook. This is the mailbox
// mechanism of §3.3.2: instead of Nemesis busy-polling, the notification
// tells PIOMan that the receive-queue "counter" moved.
func (ep *Endpoint) SetNotify(n func()) { ep.notify = n }

// MaxFragment returns the largest payload one cell carries.
func (ep *Endpoint) MaxFragment() int { return ep.opt.CellPayload }

// TrySendFragment copies one fragment (len(frag) <= CellPayload) into a free
// cell and enqueues it on dst's receive queue. It returns the host cost to
// charge to the caller and whether a cell was available; on false the caller
// must make progress (so the receiver can recycle cells) and retry — this is
// Nemesis flow control.
func (ep *Endpoint) TrySendFragment(dst int, hdr shmq.Header, frag []byte) (vtime.Duration, bool) {
	peer, ok := ep.peers[dst]
	if !ok {
		panic(fmt.Sprintf("nemesis[%d]: no local peer %d", ep.rank, dst))
	}
	cell := ep.pool.GetFree()
	if cell == nil {
		ep.SendStall++
		return 0, false
	}
	hdr.Src = int32(ep.rank)
	cell.Hdr = hdr
	cell.SetPayload(frag)
	peer.pool.Recv.Enqueue(cell)
	ep.CellsSent++
	ep.opt.Rec.Instant("nemesis", "cell-send",
		trace.Int64("dst", int64(dst)), trace.Int64("bytes", int64(len(frag))))
	cost := ep.opt.EnqueueCost + ep.opt.DequeueCost + copyCost(len(frag), ep.opt.MemBW)
	ep.e.After(ep.opt.Visibility, peer.visible)
	return cost, true
}

// SourceName implements pioman.Source.
func (ep *Endpoint) SourceName() string { return fmt.Sprintf("shm[%d]", ep.rank) }

// Poll implements pioman.Source: it drains the receive queue, hands each
// cell to the handler and recycles the cell to its owner's free queue.
func (ep *Endpoint) Poll() (int, vtime.Duration) {
	events := 0
	var cost vtime.Duration
	for {
		cell := ep.pool.Recv.Dequeue()
		if cell == nil {
			break
		}
		events++
		ep.CellsRecv++
		cost += ep.opt.DequeueCost
		if ep.handler == nil {
			panic(fmt.Sprintf("nemesis[%d]: cell arrived with no handler", ep.rank))
		}
		cost += ep.handler(cell.Hdr, cell.Payload())
		owner := ep.peers[int(cell.Hdr.Src)]
		if owner == nil {
			panic(fmt.Sprintf("nemesis[%d]: cell from unknown peer %d", ep.rank, cell.Hdr.Src))
		}
		owner.pool.Release(cell)
		cost += ep.opt.EnqueueCost
		// Releasing a cell may unblock a stalled sender.
		owner.notify()
	}
	if events > 0 {
		ep.opt.Rec.Instant("nemesis", "cells-drained",
			trace.Int64("cells", int64(events)))
	}
	return events, cost
}

// FreeCells reports how many cells remain in this endpoint's free queue
// (a test and diagnostic helper). The lock-free queue cannot be walked
// without dequeuing, so it drains the queue and refills it in the same
// order; that is safe because only the owner dequeues from Free.
func (ep *Endpoint) FreeCells() int {
	var cells []*shmq.Cell
	for {
		c := ep.pool.GetFree()
		if c == nil {
			break
		}
		cells = append(cells, c)
	}
	for _, c := range cells {
		ep.pool.Free.Enqueue(c)
	}
	return len(cells)
}

func copyCost(n int, bw float64) vtime.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / bw * 1e9)
}
