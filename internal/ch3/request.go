// Package ch3 implements the MPICH2 CH3 device layer: request objects, the
// posted-receive and unexpected queues that form "the core of the message
// passing management in MPICH2" (§3.1.1), the CH3 eager and rendezvous
// protocols used over shared memory (and over generic network modules), and
// the per-connection virtual-connection (VC) structure whose send functions
// can be overridden per destination — the hook the paper uses to bypass
// Nemesis and call NewMadeleine directly (§3.1.2).
package ch3

import (
	"fmt"

	"repro/internal/vtime"
)

// Wildcards for receive matching.
const (
	AnySource int32 = -1
	AnyTag    int32 = -1
)

// Status describes a completed receive.
type Status struct {
	Source    int32
	Tag       int32
	Len       int
	Truncated bool
}

type reqKind uint8

const (
	sendReq reqKind = iota
	recvReq
)

// Request is a CH3/ADI3 communication request. Each MPI operation is managed
// through one; receive requests are queued on the posted receive queue. The
// pairing with a NewMadeleine request when the direct module is in use
// (§3.1.1) is held on that side, in nmad.Request.User. A request belongs to
// the caller of Isend/Irecv until it hands it back with Process.Release,
// which has MPI_Request_free's meaning; requests are then recycled.
type Request struct {
	p    *Process
	kind reqKind
	done bool

	// released marks a request its owner handed back with Process.Release
	// while it was still in flight: Complete recycles it once its callbacks
	// have run.
	released bool
	// tracked mirrors the request on the in-flight gauge; cleared (and the
	// gauge decremented) at completion.
	tracked bool

	// qseq is the monotone enqueue stamp the bucketed matching queues order
	// candidates by (see queues.go).
	qseq uint64

	// Stat is valid once Done for receive requests.
	Stat Status

	// Matching triple (receive side); src/tag may be wildcards.
	src, tag, ctx int32
	buf           []byte

	// Send side.
	dst  int32
	data []byte
	seq  uint32

	// Rail is the multirail placement hint of a send request: 0 lets the
	// backend's strategy place the transfer (the default), k > 0 pins it to
	// rail k-1. The collective engine's stripe assignments ride this;
	// shared-memory traffic and single-rail backends ignore it.
	Rail int

	// Rendezvous bookkeeping (CH3-level protocol: shm and packet backends).
	cookie    uint64
	remaining int

	onComplete []func()
	// doneFn caches the Done method value across recycling (see DoneFunc).
	doneFn func() bool
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// DoneFunc returns Done as a predicate for the progress manager's waits. It
// is bound once per request object and survives recycling, so a blocking
// wait on a recycled request builds no method value.
func (r *Request) DoneFunc() func() bool {
	if r.doneFn == nil {
		r.doneFn = r.Done
	}
	return r.doneFn
}

// IsRecv reports whether r is a receive request.
func (r *Request) IsRecv() bool { return r.kind == recvReq }

// Buffer returns the receive buffer (backends fill it).
func (r *Request) Buffer() []byte { return r.buf }

// Data returns the send payload.
func (r *Request) Data() []byte { return r.data }

// Dest returns the destination rank of a send request.
func (r *Request) Dest() int { return int(r.dst) }

// MatchTriple returns (ctx, src, tag) of a receive request.
func (r *Request) MatchTriple() (ctx, src, tag int32) { return r.ctx, r.src, r.tag }

// AddCallback registers f to run when the request completes. If the request
// is already complete, f runs immediately. Callbacks must be registered
// before the request is released.
func (r *Request) AddCallback(f func()) {
	if r.done {
		f()
		return
	}
	r.onComplete = append(r.onComplete, f)
}

// Complete marks the request done and fires callbacks. Exposed for backends.
// A request its owner already released (see Process.Release) goes back to
// the free list once its callbacks have run; no backend touches a request
// after Complete, so recycling here is safe.
func (r *Request) Complete() {
	if r.done {
		panic("ch3: double completion")
	}
	r.done = true
	if r.tracked {
		r.tracked = false
		r.p.inFlight.Dec()
	}
	for i, f := range r.onComplete {
		r.onComplete[i] = nil
		f()
	}
	r.onComplete = r.onComplete[:0]
	if r.released {
		r.p.putReq(r)
	}
}

// SetRecvStatus records the receive outcome. Exposed for backends.
func (r *Request) SetRecvStatus(src, tag int32, n int, truncated bool) {
	r.Stat = Status{Source: src, Tag: tag, Len: n, Truncated: truncated}
}

// NewRecvRequest builds a detached receive request with the given matching
// triple (used by backends and tests that need a request outside the normal
// Irecv path).
func NewRecvRequest(src int, tag, ctx int32, buf []byte) *Request {
	return &Request{kind: recvReq, src: int32(src), tag: tag, ctx: ctx, buf: buf}
}

func (r *Request) String() string {
	k := "send"
	if r.kind == recvReq {
		k = "recv"
	}
	return fmt.Sprintf("req{%s ctx=%d src=%d dst=%d tag=%d done=%v}",
		k, r.ctx, r.src, r.dst, r.tag, r.done)
}

// matches reports whether an arrival (ctx, src, tag) satisfies receive r.
func (r *Request) matches(ctx, src, tag int32) bool {
	if r.ctx != ctx {
		return false
	}
	if r.src != AnySource && r.src != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}

// uqEntry is one unexpected message held by the CH3 layer (shared-memory or
// packet-backend arrivals; direct-module network arrivals stay in
// NewMadeleine's own buffers).
type uqEntry struct {
	ctx, src, tag int32
	qseq          uint64 // monotone enqueue stamp (bucketed-queue ordering)
	msgLen        int
	data          []byte // eager payload (fully assembled)
	pendingFrags  int    // >0 while multi-fragment assembly continues
	isRTS         bool
	rtsCookie     uint64 // sender request id for the CTS reply
	org           Origin
	key           asmKey // assembly key while fragments are pending
}

// NetBackend abstracts the inter-node communication engine behind CH3: the
// paper's direct-NewMadeleine module, a generic Nemesis network module, or
// the modeled baseline stacks (MVAPICH2 / Open MPI).
type NetBackend interface {
	Name() string
	// CentralMatching reports whether network arrivals are matched by the
	// CH3 posted/unexpected queues (true for packet-style modules) or by
	// the library's own tag matching (false for the direct module).
	CentralMatching() bool
	// Isend transmits req.Data() to remote rank req.Dest().
	Isend(proc *vtime.Proc, req *Request)
	// PostRecv registers a receive from a known remote source (direct
	// matching modules only; central-matching backends may no-op).
	PostRecv(req *Request)
	// PostRecvAny registers the network half of an ANY_SOURCE receive.
	PostRecvAny(req *Request)
	// ShmMatchedAny informs the backend that an ANY_SOURCE request was
	// satisfied by the shared-memory path (§3.2.2).
	ShmMatchedAny(req *Request)
	// Progress runs backend-specific polling (e.g. ANY_SOURCE probing);
	// it returns events handled and their cost.
	Progress() (int, vtime.Duration)
}
