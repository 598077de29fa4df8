package nmad

import (
	"fmt"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Options configures a Core.
type Options struct {
	// Strategy selects the packet scheduling strategy.
	Strategy StrategyKind
	// RdvThreshold is the eager/rendezvous switch point in bytes.
	RdvThreshold int
	// AggregMax caps the payload of an aggregated packet wrapper.
	AggregMax int
	// MinSplit is the smallest rendezvous chunk worth placing on an extra
	// rail; below it the split strategy falls back to the fastest rail.
	MinSplit int
	// Rails are the network rails this process can use, in rail-id order.
	Rails []*simnet.Rail
	// MemBW is the node's memory copy bandwidth (bytes/sec) for eager and
	// unexpected-message copies.
	MemBW float64
	// PwParseCost is the host cost to parse one arrived packet wrapper.
	PwParseCost vtime.Duration
	// MatchCost is the host cost of one tag-matching step.
	MatchCost vtime.Duration
	// Peer resolves a rank to its Core so gates can be established lazily
	// on first traffic. With NP in the thousands, eagerly connecting every
	// pair costs O(NP²) gates while a log-depth collective touches O(log NP)
	// peers per rank; the resolver makes connection cost follow actual
	// communication. Nil means gates must be pre-wired with Connect.
	Peer func(rank int) *Core
	// PostTask defers host work (submission) to the progress engine.
	PostTask func(cost vtime.Duration, run func())
	// Notify signals the progress engine that events are pending.
	Notify func()
	// Rec, when set, records library trace events (eager vs rendezvous
	// submission, packet-wrapper activity, entry handling).
	Rec *trace.Recorder
	// Bufs is the store eager payloads are copied into on the send side,
	// and that an eager payload arrived unexpected waits in; a world shares
	// one across its ranks. Nil gives the core one of its own.
	Bufs *bufpool.Pool
	// Pools holds the free requests and packet wrappers; a world shares one
	// across its ranks. Nil gives the core one of its own.
	Pools *Pools
}

// Pools holds the free lists of released requests and packet wrappers.
// They fill only from what traffic releases: nothing is made ahead of use. A
// wrapper is held until its receiver parses it, so the rank that leads an
// exchange can need one more wrapper or request than it has released, while
// the rank behind it holds a spare — shared across a world, the spare serves
// the leader instead of a new allocation. One simulated process runs at a
// time, so sharing needs no lock.
type Pools struct {
	reqs bufpool.List[Request]
	pws  bufpool.List[Packet]
}

// withDefaults fills zero fields with the library defaults.
func (o Options) withDefaults() Options {
	if o.RdvThreshold == 0 {
		o.RdvThreshold = 32 << 10
	}
	if o.AggregMax == 0 {
		o.AggregMax = 32 << 10
	}
	if o.MinSplit == 0 {
		o.MinSplit = 4 << 10
	}
	if o.MemBW == 0 {
		o.MemBW = 4e9
	}
	if o.PwParseCost == 0 {
		o.PwParseCost = 100
	}
	if o.MatchCost == 0 {
		o.MatchCost = 40
	}
	if o.PostTask == nil {
		panic("nmad: Options.PostTask is required")
	}
	if o.Notify == nil {
		o.Notify = func() {}
	}
	if o.Bufs == nil {
		o.Bufs = new(bufpool.Pool)
	}
	if o.Pools == nil {
		o.Pools = new(Pools)
	}
	return o
}

// Gate is a connection to one peer process (§2.2: strategies operate on the
// set of messages sharing the same destination, i.e. per gate).
type Gate struct {
	owner    *Core
	peer     *Core
	PeerRank int
	peerNode int

	outlist fifo[*Request] // packs awaiting strategy scheduling
	// sendFifo holds posted-but-uncompleted sends per tag, in submission
	// order (the completion-ordering guarantee of finishSend), linked
	// through Request.next.
	sendFifo map[uint64]sendQueue
	nextSeq  uint32
	// kicked mirrors membership in the owner's kicked queue.
	kicked    bool
	idleArmed bool
	idleKick  func() // engine-context re-kick, built at the first armIdleKick
}

// sendQueue is one (gate, tag) stream's list of uncompleted sends.
type sendQueue struct{ head, tail *Request }

// fifo is a queue consumed through a head index, as pioman's task queue is:
// popping zeroes the vacated slot, so no reference outlives its element, and
// a drained queue rewinds onto its backing array — where `q = q[1:]` burns
// capacity and reallocates on every message. A queue that never drains
// compacts once its dead prefix is half of it.
type fifo[T any] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }
func (f *fifo[T]) push(v T) { f.q = append(f.q, v) }
func (f *fifo[T]) front() T { return f.q[f.head] }
func (f *fifo[T]) pop() T {
	var zero T
	v := f.q[f.head]
	f.q[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.q):
		f.q, f.head = f.q[:0], 0
	case f.head >= 32 && 2*f.head >= len(f.q):
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	return v
}

// unexp is an arrived-but-unmatched message (eager payload or RTS).
type unexp struct {
	from   *Gate
	kind   EntryKind // EntryEager or EntryRTS
	tag    uint64
	msgLen int
	data   []byte // eager payload, in a buffer from the store
	packID uint64 // RTS only
}

type inPw struct {
	pw      *Packet
	consume vtime.Duration
}

// Core is one process's NewMadeleine instance.
type Core struct {
	e    *vtime.Engine
	rank int
	node int
	opt  Options

	strat Strategy
	gates map[int]*Gate

	inbox      fifo[inPw]
	posted     []*Request
	unexpected []*unexp

	nextPackID uint64
	nextRecvID uint64
	sendRdv    map[uint64]*Request
	recvRdv    map[uint64]*Request // in-progress rendezvous receptions

	kicked fifo[*Gate]

	// Free list of consumed unexpected records; requests and wrappers come
	// from opt.Pools.
	unexpFree bufpool.Records[unexp]

	split splitScratch

	// Method values handed to the progress engine and the rails, bound once.
	runStrategiesFn func()
	deliverFn       func(simnet.Delivery)

	// owed accumulates costs incurred outside Poll (e.g. matching a posted
	// receive against the unexpected store); the next Poll charges them.
	owed vtime.Duration

	// Stats.
	PwsSent       int64
	PwsRecv       int64
	EntriesSent   int64
	Aggregated    int64 // entries that shared a pw with another entry
	UnexpectedHit int64
	RdvStarted    int64
}

// New creates a Core for the process `rank` living on cluster node `node`.
func New(e *vtime.Engine, rank, node int, opt Options) *Core {
	c := &Core{
		e:       e,
		rank:    rank,
		node:    node,
		opt:     opt.withDefaults(),
		gates:   make(map[int]*Gate),
		sendRdv: make(map[uint64]*Request),
		recvRdv: make(map[uint64]*Request),
	}
	c.strat = newStrategy(c.opt.Strategy)
	c.runStrategiesFn, c.deliverFn = c.runStrategies, c.deliverPw
	return c
}

// Rank returns the process rank this core belongs to.
func (c *Core) Rank() int { return c.rank }

// Strategy returns the active strategy's name.
func (c *Core) Strategy() string { return c.strat.Name() }

// Connect establishes (or returns) the gate toward peer.
func (c *Core) Connect(peer *Core) *Gate {
	if g, ok := c.gates[peer.rank]; ok {
		return g
	}
	if peer == c {
		panic("nmad: connecting a gate to self")
	}
	g := &Gate{owner: c, peer: peer, PeerRank: peer.rank, peerNode: peer.node}
	c.gates[peer.rank] = g
	return g
}

// Gate returns the gate to rank, or nil if not connected. With a Peer
// resolver configured, the first lookup toward a rank establishes the gate
// — the receive side does the same in handleEntry, so neither endpoint
// needs the O(NP²) pre-wiring pass.
func (c *Core) Gate(rank int) *Gate {
	if g, ok := c.gates[rank]; ok {
		return g
	}
	if c.opt.Peer != nil && rank != c.rank {
		if p := c.opt.Peer(rank); p != nil {
			return c.Connect(p)
		}
	}
	return nil
}

// ISend posts a send of data with the given tag toward gate g. Small
// messages take the eager path; messages above RdvThreshold use the internal
// rendezvous protocol. The request is enqueued on the gate's outlist and
// actual submission is decided by the strategy at the next progress point —
// this is the "uncoupled network request submission" of §2.2.
func (c *Core) ISend(g *Gate, tag uint64, data []byte) *Request {
	return c.ISendRail(g, tag, data, 0)
}

// ISendRail is ISend with a rail hint: 0 lets the strategy place the pack
// (the default), k > 0 pins it to rail k-1, and -w < 0 stripes the payload
// across the first min(w, rail count) rails. A pinned eager pack submits on
// its rail, and a pinned rendezvous payload stays whole on that rail instead
// of going through the split strategy (the stripe already distributes
// segments). A striped pack always takes the rendezvous path, whatever its
// size: rendezvous data chunks carry explicit offsets and reassemble
// correctly however the rails reorder them, whereas two eager packs of one
// (gate, tag) stream on different rails could arrive — and match posted
// receives — out of order. The collective engine's rail-striped schedules
// ride the negative form. Out-of-range hints (and stripe widths that clamp
// below two rails) fall back to strategy placement.
func (c *Core) ISendRail(g *Gate, tag uint64, data []byte, rail int) *Request {
	r := c.getReq()
	*r = Request{kind: reqSend, core: c, gate: g, tag: tag, data: data, seq: g.nextSeq}
	if rail > 0 && rail <= len(c.opt.Rails) {
		r.pin = rail
	} else if rail < 0 && len(c.opt.Rails) >= 2 {
		if w := -rail; w >= 2 {
			if w > len(c.opt.Rails) {
				w = len(c.opt.Rails)
			}
			r.pin = -w
		}
	}
	g.nextSeq++
	if len(data) > c.opt.RdvThreshold || r.pin < 0 {
		c.opt.Rec.Instant("proto", "net-rdv",
			trace.Int64("dst", int64(g.PeerRank)), trace.Int64("bytes", int64(len(data))))
		r.rdv = true
		c.nextPackID++
		r.id = c.nextPackID
		c.sendRdv[r.id] = r
	} else {
		c.opt.Rec.Instant("proto", "net-eager",
			trace.Int64("dst", int64(g.PeerRank)), trace.Int64("bytes", int64(len(data))))
	}
	g.outlist.push(r)
	if g.sendFifo == nil {
		g.sendFifo = make(map[uint64]sendQueue)
	}
	q, ok := g.sendFifo[tag]
	if ok {
		q.tail.next = r
	} else {
		q.head = r
	}
	q.tail = r
	g.sendFifo[tag] = q
	c.kick(g)
	return r
}

// getReq returns a released request, or allocates when none is free.
func (c *Core) getReq() *Request {
	if r := c.opt.Pools.reqs.Get(); r != nil {
		return r
	}
	c.opt.Pools.reqs.Made()
	return new(Request)
}

// finishSend marks a send request's protocol work as done and completes
// same-tag sends on the gate in FIFO submission order. Without this, a small
// eager pack submitted after a large rendezvous pack on the same (gate, tag)
// stream would complete at NIC drain while the rendezvous handshake is still
// in flight — the caller could then stop progressing the library (e.g.
// MPI_Wait on the last send of the stream returning), deadlocking the
// earlier transfer. The ordering is scoped per tag: packs on *different*
// tags (e.g. a collective riding a separate context) complete independently,
// since gating them would deadlock legal patterns like Isend(rendezvous)
// followed by a barrier whose completion the peer's matching receive waits
// behind.
func (c *Core) finishSend(r *Request) {
	r.finished = true
	g, tag := r.gate, r.tag
	for {
		q, ok := g.sendFifo[tag]
		if !ok || !q.head.finished {
			return
		}
		h := q.head
		if h.next == nil {
			delete(g.sendFifo, tag)
		} else {
			q.head, h.next = h.next, nil
			g.sendFifo[tag] = q
		}
		// Pop before completing: the callback may post new sends on this
		// tag, re-enter finishSend or release the request.
		h.complete()
	}
}

// IRecv posts a receive. A nil gate means "any gate" (any source); mask
// selects which tag bits participate in matching (all-ones for exact).
// If a matching unexpected message has already arrived it is consumed
// immediately. There is no way to cancel the returned request.
func (c *Core) IRecv(g *Gate, tag, mask uint64, buf []byte) *Request {
	r := c.getReq()
	*r = Request{
		kind: reqRecv, core: c, gate: g, anyGate: g == nil,
		tag: tag & mask, mask: mask, buf: buf,
	}
	for i, u := range c.unexpected {
		if c.matchesUnexp(r, u) {
			// slices.Delete zeroes the vacated tail slot: the copied payload
			// is not retained past its delivery.
			c.unexpected = slices.Delete(c.unexpected, i, i+1)
			c.UnexpectedHit++
			c.consumeUnexpected(r, u)
			return r
		}
	}
	c.posted = append(c.posted, r)
	return r
}

// IProbe checks whether an unexpected message matching (tag, mask) has
// arrived, without consuming it. It returns the gate it arrived on. This is
// the probe primitive the MPICH2 module polls for ANY_SOURCE handling
// (§3.2.2): a NewMadeleine request is only created once a matching message
// is known to sit in NewMadeleine's buffers, so it completes shortly after
// posting and never needs cancellation.
func (c *Core) IProbe(tag, mask uint64) (*Gate, bool) {
	for _, u := range c.unexpected {
		if u.tag&mask == tag&mask {
			return u.from, true
		}
	}
	return nil, false
}

// Owe adds host cost to be charged at the next Poll. Completion callbacks
// (which cannot sleep) use it to account for upper-layer per-message costs,
// e.g. the generic-interface overhead of the MPICH2 module (§4.1.1).
func (c *Core) Owe(d vtime.Duration) {
	if d > 0 {
		c.owed += d
	}
}

// PostedRecvs reports the number of pending posted receive requests.
func (c *Core) PostedRecvs() int { return len(c.posted) }

// UnexpectedCount reports the number of arrived-but-unmatched messages.
func (c *Core) UnexpectedCount() int { return len(c.unexpected) }

func (c *Core) matchesUnexp(r *Request, u *unexp) bool {
	if !r.anyGate && r.gate != u.from {
		return false
	}
	return u.tag&r.mask == r.tag
}

func (c *Core) matchPosted(g *Gate, tag uint64) *Request {
	for i, r := range c.posted {
		if !r.anyGate && r.gate != g {
			continue
		}
		if tag&r.mask == r.tag {
			// The vacated tail slot is zeroed: a stale pointer there would
			// retain the user buffer and alias the request once recycled.
			c.posted = slices.Delete(c.posted, i, i+1)
			return r
		}
	}
	return nil
}

// addUnexpected appends u's contents to the unexpected list in a recycled
// record.
func (c *Core) addUnexpected(u unexp) {
	rec := c.unexpFree.Get()
	*rec = u
	c.unexpected = append(c.unexpected, rec)
}

// releaseUnexp recycles a consumed record and its payload buffer.
func (c *Core) releaseUnexp(u *unexp) {
	c.opt.Bufs.Put(u.data)
	c.unexpFree.Put(u)
}

// consumeUnexpected completes (or advances) r using stored message u, which
// has left the unexpected list and is released once r holds its contents.
func (c *Core) consumeUnexpected(r *Request, u *unexp) {
	defer c.releaseUnexp(u)
	switch u.kind {
	case EntryEager:
		n := copy(r.buf, u.data)
		r.status = Status{Peer: u.from.PeerRank, Tag: u.tag, Len: n, Truncated: n < u.msgLen}
		// The copy-out of a just-buffered message reads cache-hot data; the
		// dominant cost (the copy *into* the unexpected store) was already
		// charged at arrival. This keeps the ANY_SOURCE latency gap
		// constant in message size, as Fig. 4(a) reports.
		c.owed += copyCost(n, c.opt.MemBW) / 8
		r.complete()
	case EntryRTS:
		c.startRdvRecv(r, u.from, u.tag, u.msgLen, u.packID)
	default:
		panic(fmt.Sprintf("nmad: unexpected store holds %v", u.kind))
	}
}

// startRdvRecv registers reception state and sends the CTS.
func (c *Core) startRdvRecv(r *Request, g *Gate, tag uint64, msgLen int, packID uint64) {
	c.nextRecvID++
	id := c.nextRecvID
	n := msgLen
	if n > len(r.buf) {
		n = len(r.buf)
	}
	r.status = Status{Peer: g.PeerRank, Tag: tag, Len: n, Truncated: n < msgLen}
	c.RdvStarted++
	if n == 0 {
		// Zero-byte grant: the receive completes with truncation, but the
		// CTS must still flow so the sender's request can finish (its
		// payload is simply never transmitted).
		r.complete()
		c.sendControl(g, Entry{Kind: EntryCTS, Tag: tag, PackID: packID, RecvID: id, MsgLen: 0})
		return
	}
	r.remaining = n
	c.recvRdv[id] = r
	// CTS travels back over the same gate (it connects us to the sender).
	c.sendControl(g, Entry{Kind: EntryCTS, Tag: tag, PackID: packID, RecvID: id, MsgLen: n})
}

// sendControl submits a single control entry immediately on the
// lowest-latency rail, bypassing the strategy outlist (control plane).
func (c *Core) sendControl(g *Gate, en Entry) {
	pw := c.getPacket(g)
	pw.Entries = append(pw.Entries, en)
	c.submit(pw, c.bestRail(0))
}

// railFor returns the rail a send pack rides: its pin when set, otherwise
// the sampling-driven best rail for its size. A striped pack (pin < 0) only
// ever sends its header-only RTS through here — the data chunks are placed
// by sendRdvData — and that RTS rides the control rail (bestRail(0), the
// same lane CTS replies use) so the RTS stream of one (gate, tag) flow stays
// FIFO whatever the payload sizes, preserving matching order at the peer.
func (c *Core) railFor(r *Request) int {
	if r.pin > 0 {
		return r.pin - 1
	}
	if r.pin < 0 {
		return c.bestRail(0)
	}
	return c.bestRail(len(r.data))
}

// bestRail returns the index of the rail with the lowest estimated transfer
// time for size bytes (the sampling-driven choice of §2.2).
func (c *Core) bestRail(size int) int {
	best, bestT := 0, vtime.Duration(1<<62)
	for i, r := range c.opt.Rails {
		if t := r.Params.EstimateXfer(size); t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// markKicked queues g for a strategy pass; it reports whether g was not
// already queued.
func (c *Core) markKicked(g *Gate) bool {
	if g.kicked {
		return false
	}
	g.kicked = true
	c.kicked.push(g)
	return true
}

// kick marks g as needing strategy attention and defers a scheduling pass
// to the progress engine.
func (c *Core) kick(g *Gate) {
	if c.markKicked(g) {
		c.opt.PostTask(0, c.runStrategiesFn)
	}
}

// kickFromEngine re-arms scheduling from an engine-context event (rail
// turned idle) and notifies the progress engine.
func (c *Core) kickFromEngine(g *Gate) {
	g.idleArmed = false
	c.markKicked(g)
	c.opt.Notify()
}

// runStrategies drains the kicked set. Runs in progress context.
func (c *Core) runStrategies() {
	for c.kicked.len() > 0 {
		g := c.kicked.pop()
		g.kicked = false
		c.strat.Schedule(c, g)
	}
}

// armIdleKick schedules a strategy re-run for when the rail's transmit side
// drains (used by the aggregation strategy to accumulate packets while the
// NIC is busy, §2.2).
func (c *Core) armIdleKick(g *Gate, rail int) {
	if g.idleArmed {
		return
	}
	g.idleArmed = true
	if g.idleKick == nil {
		g.idleKick = func() { c.kickFromEngine(g) }
	}
	c.e.At(c.opt.Rails[rail].TxIdleAt(c.node), g.idleKick)
}

// getPacket returns an empty wrapper toward g, from the free list when a
// released one is there.
func (c *Core) getPacket(g *Gate) *Packet {
	pw := c.opt.Pools.pws.Get()
	if pw == nil {
		c.opt.Pools.pws.Made()
		pw = new(Packet)
		pw.transmitFn, pw.drainFn = pw.transmit, pw.drain
	}
	pw.core, pw.From, pw.To, pw.gate = c, c.rank, g.PeerRank, g
	return pw
}

// unref drops one pending event's hold on a pooled wrapper; the last one
// hands its eager bounce buffers back, clears what the wrapper references
// (payload slices, packs, gate) and returns it to the free list.
func (pw *Packet) unref() {
	if pw.refs--; pw.refs > 0 {
		return
	}
	for i := range pw.Entries {
		if en := &pw.Entries[i]; en.Kind == EntryEager {
			pw.core.opt.Bufs.Put(en.Data)
		}
	}
	clear(pw.Entries)
	clear(pw.sends)
	pw.Entries, pw.sends = pw.Entries[:0], pw.sends[:0]
	pw.gate, pw.rdv, pw.parsed = nil, nil, false
	pw.core.opt.Pools.pws.Put(pw)
}

// submit sends pw over rail railIdx. The host submission cost — eager bounce
// copy, or registration for a rendezvous data chunk — is charged to
// whichever progress context executes the deferred task (application thread
// or PIOMan thread): this is what makes submission offload observable
// (§2.2.3, Fig. 7a).
func (c *Core) submit(pw *Packet, railIdx int) {
	pw.rail, pw.size = railIdx, pw.WireSize()
	p := c.opt.Rails[railIdx].Params
	cost := p.SubmitEager(pw.size)
	if pw.rdv != nil {
		cost = p.SubmitRdv(pw.size, p.RegCache)
	}
	c.opt.PostTask(cost, pw.transmitFn)
}

// transmit is the deferred submission task of a wrapper: it puts the packet
// on the wire and schedules the NIC-drain event its packs complete at.
func (pw *Packet) transmit() {
	c, g := pw.core, pw.gate
	rail := c.opt.Rails[pw.rail]
	c.PwsSent++
	c.EntriesSent += int64(len(pw.Entries))
	if len(pw.Entries) > 1 {
		c.Aggregated += int64(len(pw.Entries))
	}
	if pw.rdv != nil {
		c.opt.Rec.Instant("nmad", "pw-submit-rdv",
			trace.Int64("dst", int64(pw.To)), trace.Int64("rail", int64(pw.rail)),
			trace.Int64("bytes", int64(pw.size)))
	} else {
		c.opt.Rec.Instant("nmad", "pw-submit",
			trace.Int64("dst", int64(pw.To)), trace.Int64("rail", int64(pw.rail)),
			trace.Int64("bytes", int64(pw.size)), trace.Int64("entries", int64(len(pw.Entries))))
	}
	pw.refs = 1
	rail.Transfer(c.node, g.peerNode, pw.size, pw, g.peer.deliverFn)
	// Eager sends complete at *local* completion: when the NIC has drained
	// the packet onto the wire, not at submission. This is what a
	// send-completion event from MX/Verbs signals, and what makes overlap
	// measurable (Fig. 7a). A rendezvous send completes when its last data
	// chunk has drained; control wrappers (RTS-only, CTS) need no event.
	if len(pw.sends) > 0 || pw.rdv != nil {
		pw.refs++
		c.e.At(rail.TxIdleAt(c.node), pw.drainFn)
	}
}

// drain runs in engine context when the NIC has put the wrapper on the wire.
func (pw *Packet) drain() {
	c := pw.core
	if r := pw.rdv; r != nil {
		if !pw.parsed {
			pw.land()
		}
		if r.chunks--; r.chunks == 0 {
			c.finishSend(r)
		}
	}
	for _, s := range pw.sends {
		c.finishSend(s)
	}
	c.opt.Notify()
	pw.unref()
}

// land copies the rendezvous data chunks of a wrapper the receiver has not
// parsed yet straight into the receive buffer, at the drain that completes
// their share of the send: the sender's memory is still valid then and may
// be reused right after. No virtual time moves — the data lands by RDMA at
// no host cost either way — and a receive buffer is undefined until its
// request completes, so writing it before the receiver parses the wrapper is
// allowed. The receiver's handleEntry then does only the bookkeeping.
func (pw *Packet) land() {
	recvRdv := pw.gate.peer.recvRdv
	for i := range pw.Entries {
		en := &pw.Entries[i]
		copy(recvRdv[en.RecvID].buf[en.Offset:], en.Data)
		en.landed = true
	}
}

// deliverPw runs in engine context when a packet wrapper reaches this
// process's NIC.
func (c *Core) deliverPw(d simnet.Delivery) {
	c.inbox.push(inPw{pw: d.Payload.(*Packet), consume: d.ConsumeCost})
	c.opt.Notify()
}

// SourceName implements pioman.Source.
func (c *Core) SourceName() string { return fmt.Sprintf("nmad[%d]", c.rank) }

// Poll implements pioman.Source: it parses arrived packet wrappers, performs
// tag matching, advances the rendezvous state machines and re-runs kicked
// strategies. It returns the number of wrapper-level events handled and the
// host cost incurred.
func (c *Core) Poll() (int, vtime.Duration) {
	events := 0
	cost := c.owed
	c.owed = 0
	c.runStrategies()
	for c.inbox.len() > 0 {
		in := c.inbox.pop()
		events++
		c.PwsRecv++
		c.opt.Rec.Instant("nmad", "pw-recv",
			trace.Int64("src", int64(in.pw.From)),
			trace.Int64("entries", int64(len(in.pw.Entries))))
		cost += in.consume + c.opt.PwParseCost
		in.pw.parsed = true
		for i := range in.pw.Entries {
			cost += c.handleEntry(in.pw, &in.pw.Entries[i])
		}
		in.pw.unref()
	}
	// Completion callbacks run by handleEntry may have accrued more owed
	// cost (e.g. the module's generic-interface overhead); flush it into
	// this poll so a follow-up sweep does not treat it as a fresh event
	// (which would double-charge the progress engine's sync overhead).
	cost += c.owed
	c.owed = 0
	if cost > 0 && events == 0 {
		events = 1 // owed costs must be charged even without new arrivals
	}
	return events, cost
}

// handleEntry dispatches one arrived entry of pw; returns its host cost.
func (c *Core) handleEntry(pw *Packet, en *Entry) vtime.Duration {
	fromRank := pw.From
	g := c.Gate(fromRank)
	if g == nil {
		panic(fmt.Sprintf("nmad[%d]: entry from unconnected rank %d", c.rank, fromRank))
	}
	cost := c.opt.MatchCost
	switch en.Kind {
	case EntryEager:
		if r := c.matchPosted(g, en.Tag); r != nil {
			n := copy(r.buf, en.Data)
			r.status = Status{Peer: fromRank, Tag: en.Tag, Len: n, Truncated: n < en.MsgLen}
			cost += copyCost(n, c.opt.MemBW)
			r.complete()
		} else {
			// Keep the payload in NewMadeleine's buffers; delivered on a
			// later IRecv. The sender's bounce buffer already holds it: take
			// it over when it comes from this core's store, copy it
			// otherwise. Either way the copy into the store is charged.
			data := en.Data
			if pw.core.opt.Bufs == c.opt.Bufs {
				en.Data = nil
			} else {
				data = c.opt.Bufs.Get(len(en.Data))
				copy(data, en.Data)
			}
			c.addUnexpected(unexp{from: g, kind: EntryEager, tag: en.Tag, msgLen: en.MsgLen, data: data})
			cost += copyCost(len(data), c.opt.MemBW)
		}
	case EntryRTS:
		if r := c.matchPosted(g, en.Tag); r != nil {
			c.startRdvRecv(r, g, en.Tag, en.MsgLen, en.PackID)
		} else {
			c.addUnexpected(unexp{from: g, kind: EntryRTS, tag: en.Tag, msgLen: en.MsgLen, packID: en.PackID})
		}
	case EntryCTS:
		r := c.sendRdv[en.PackID]
		if r == nil {
			panic(fmt.Sprintf("nmad[%d]: CTS for unknown pack %d", c.rank, en.PackID))
		}
		delete(c.sendRdv, en.PackID)
		c.sendRdvData(r, en.RecvID, en.MsgLen)
	case EntryData:
		r := c.recvRdv[en.RecvID]
		if r == nil {
			panic(fmt.Sprintf("nmad[%d]: data for unknown recv %d", c.rank, en.RecvID))
		}
		if !en.landed {
			copy(r.buf[en.Offset:], en.Data)
		}
		r.remaining -= len(en.Data)
		if r.remaining <= 0 {
			delete(c.recvRdv, en.RecvID)
			r.complete()
		}
	}
	return cost
}

// sendRdvData splits the granted bytes across rails per the strategy and
// submits the data chunks. grant is the number of bytes the receiver can
// accept (its buffer may be shorter than the message).
func (c *Core) sendRdvData(r *Request, recvID uint64, grant int) {
	if grant == 0 {
		// Zero-byte grant (receiver posted an empty buffer): nothing to
		// transmit, the pack is done.
		c.finishSend(r)
		return
	}
	data := r.data[:grant]
	var shares []Share
	switch {
	case r.pin > 0:
		// Pinned rendezvous payloads bypass the split strategy: the pin
		// names one rail and re-splitting would defeat it.
		shares = c.split.whole(r.pin-1, len(data))
	case r.pin < 0:
		// Striped payloads water-fill over exactly the stripe's rails —
		// the first -pin of the stack — so a schedule-level stripe width
		// is honoured even under strategies that would not split on their
		// own (aggreg keeps eager-sized packs whole) or would split over
		// a different rail set.
		shares = balancedShares(c, c.split.firstRails(-r.pin), len(data))
	default:
		shares = c.strat.SplitRdv(c, len(data))
	}
	r.chunks = len(shares)
	for _, sh := range shares {
		pw := c.getPacket(r.gate)
		pw.rdv = r
		pw.Entries = append(pw.Entries, Entry{Kind: EntryData, Tag: r.tag, RecvID: recvID,
			Offset: sh.Offset, MsgLen: len(data), Data: data[sh.Offset : sh.Offset+sh.Len]})
		c.submit(pw, sh.Rail)
	}
}
