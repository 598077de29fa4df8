// Package nmad implements the NewMadeleine communication library (§2.2):
// a message-passing engine that, unlike latency-obsessed libraries, keeps a
// window of pending packets per destination and applies optimization
// strategies (aggregation, multirail distribution) over the accumulated
// communication requests when the network is busy.
//
// The public surface mirrors the nm_sr ("send/receive") interface the paper
// quotes — nm_sr_isend / nm_sr_irecv plus completion queries — with internal
// tag matching, an internal eager/rendezvous protocol, native multirail
// support with sampling-derived split ratios, and *no request cancellation*
// (a posted request must eventually be matched, which is what forces the
// ANY_SOURCE design of §3.2 in the MPICH2 module).
package nmad

import (
	"fmt"

	"repro/internal/vtime"
)

// EntryKind discriminates the entries multiplexed inside a packet wrapper.
type EntryKind uint8

const (
	// EntryEager carries a complete small message in-band.
	EntryEager EntryKind = iota
	// EntryRTS announces a large message (rendezvous request-to-send).
	EntryRTS
	// EntryCTS grants a rendezvous (clear-to-send), sender-bound.
	EntryCTS
	// EntryData carries one chunk of rendezvous payload.
	EntryData
)

func (k EntryKind) String() string {
	switch k {
	case EntryEager:
		return "eager"
	case EntryRTS:
		return "rts"
	case EntryCTS:
		return "cts"
	case EntryData:
		return "data"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Wire-format overheads (bytes) charged for headers on the simulated wire.
const (
	pwHeaderBytes    = 24 // per packet wrapper
	entryHeaderBytes = 24 // per multiplexed entry
)

// Entry is one logical unit inside a packet wrapper.
type Entry struct {
	Kind EntryKind
	// landed marks a rendezvous data chunk already copied into the
	// receiver's buffer at its send's NIC drain (Packet.land).
	landed bool
	Seq    uint32
	Tag    uint64
	// MsgLen is the total message length (RTS announces it; eager carries
	// len(Data) == MsgLen).
	MsgLen int
	// PackID identifies the sender-side pack for RTS/CTS routing.
	PackID uint64
	// RecvID identifies the receiver-side request for CTS/Data routing.
	RecvID uint64
	// Offset is the chunk offset for EntryData.
	Offset int
	Data   []byte
}

func (en Entry) wireSize() int { return entryHeaderBytes + len(en.Data) }

// Packet is a packet wrapper: one wire transmission possibly aggregating
// several entries bound for the same gate (destination process).
//
// Wrappers built by a Core are pooled: besides the wire content they carry
// the state of their own submission (rail, packs to finish when the NIC
// drains) and the two callbacks of that submission, bound once when the
// wrapper is first allocated — so scheduling, submitting, transferring and
// draining a message builds no closure and no slice. A wrapper returns to its
// sender's free list, entries and packs cleared but their capacity kept, when
// both ends are through with it (see unref).
type Packet struct {
	From, To int // ranks
	Entries  []Entry

	core *Core // sender; nil for a hand-built packet
	gate *Gate
	rail int
	size int // WireSize at submission
	// sends are the eager packs aggregated into the wrapper: they finish when
	// the NIC has drained it onto the wire. Rendezvous packs (RTS entries)
	// are absent — they finish when their data chunks have drained.
	sends []*Request
	// rdv is the pack a rendezvous data chunk belongs to, nil otherwise.
	rdv *Request
	// refs counts the pending events still holding the wrapper: the delivery
	// (released by the receiver's Poll) and, when scheduled, the NIC drain.
	refs int
	// parsed marks a wrapper the receiver's Poll has handled: from then on
	// its payload has been copied out, and a drain lands nothing.
	parsed bool

	transmitFn, drainFn func()
}

// WireSize is the number of bytes the packet occupies on the wire.
func (pw *Packet) WireSize() int {
	s := pwHeaderBytes
	for _, en := range pw.Entries {
		s += en.wireSize()
	}
	return s
}

// Status describes a completed receive.
type Status struct {
	// Peer is the rank the message came from.
	Peer int
	// Tag is the matched tag.
	Tag uint64
	// Len is the number of payload bytes delivered.
	Len int
	// Truncated reports that the message was longer than the posted buffer.
	Truncated bool
}

// reqKind discriminates request flavours.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is an opaque in-flight operation handle (the nmad_request of the
// paper). Requests are allocated internally by ISend/IRecv; they cannot be
// cancelled — once posted, a request must eventually complete (§2.2.1).
type Request struct {
	core *Core

	// State flags, kept together so the struct packs (requests are pooled:
	// their size is live heap while they wait on a free list).
	kind reqKind
	done bool
	// rdv marks a send that goes through the rendezvous protocol.
	rdv bool
	// finished marks a send whose protocol work is done; actual completion
	// is deferred until every earlier send on the same gate has finished
	// (FIFO completion order, enforced by Core.finishSend).
	finished bool
	// anyGate marks a receive posted on no particular gate (any source).
	anyGate bool
	// released marks a request sitting on its core's free list.
	released bool

	// Send side.
	gate *Gate
	tag  uint64
	data []byte
	seq  uint32
	id   uint64
	// pin, when non-zero, pins this pack to rail pin-1 instead of letting
	// the strategy place it (the collective engine's stripe assignments ride
	// this; see Core.ISendRail).
	pin int
	// next links the posted-but-uncompleted sends of one (gate, tag) stream
	// in submission order (Gate.sendFifo).
	next *Request
	// chunks counts the rendezvous data chunks not yet drained by the NIC.
	chunks int

	// Recv side.
	mask   uint64
	buf    []byte
	status Status
	// remaining counts the rendezvous payload bytes still to arrive.
	remaining int

	// User is the owner's context, untouched by the library: a completion
	// callback shared by every request of a module reads its per-request
	// state here instead of capturing it in a closure per message.
	User interface{}

	// OnComplete, if set, runs exactly once when the request completes,
	// in progress context. The MPICH2 module uses it to mark the paired
	// CH3 request complete (§3.1.1). Prefer SetOnComplete, which handles
	// requests that completed synchronously (e.g. a receive satisfied from
	// the unexpected store inside IRecv).
	OnComplete func(*Request)
}

// SetOnComplete installs the completion callback; if the request already
// completed it fires immediately.
func (r *Request) SetOnComplete(f func(*Request)) {
	if r.done {
		f(r)
		return
	}
	r.OnComplete = f
}

// Done reports completion.
func (r *Request) Done() bool { return r.done }

// Status returns the receive status; valid once Done() for receive requests.
func (r *Request) Status() Status { return r.status }

// IsRecv reports whether this is a receive request.
func (r *Request) IsRecv() bool { return r.kind == reqRecv }

// Release hands a completed request back to its core for reuse; the caller
// must not touch it afterwards (the library itself never does once complete
// has run). Releasing is optional: an unreleased request is simply collected.
func (r *Request) Release() {
	if !r.done || r.released {
		panic("nmad: Release of an in-flight or already released request")
	}
	c := r.core
	*r = Request{core: c, released: true} // drops the buffer and callback references
	c.opt.Pools.reqs.Put(r)
}

func (r *Request) complete() {
	if r.released {
		panic("nmad: completion of a released request")
	}
	if r.done {
		return
	}
	r.done = true
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
}

// CopyCost models a memory copy of n bytes at the node's copy bandwidth.
func copyCost(n int, memBW float64) vtime.Duration {
	if n <= 0 || memBW <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / memBW * 1e9)
}
