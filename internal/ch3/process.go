package ch3

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/nemesis"
	"repro/internal/pioman"
	"repro/internal/shmq"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Config carries the per-stack CH3 software cost model.
type Config struct {
	// SendSW / RecvSW are the per-operation software overheads of the
	// MPI + ADI3 + CH3 layers, charged at Isend/Irecv time.
	SendSW vtime.Duration
	RecvSW vtime.Duration
	// EagerShmMax is the largest message sent eagerly over shared memory;
	// larger messages use the CH3 rendezvous protocol.
	EagerShmMax int
	// CTSCost is the host cost of emitting a CH3 clear-to-send.
	CTSCost vtime.Duration
	// Rec, when set, records protocol-phase trace events (eager vs
	// rendezvous, RTS/CTS/data legs).
	Rec *trace.Recorder
	// Metrics, when set, registers the request-pool counters and the
	// in-flight-requests gauge under canonical names; nil keeps standalone
	// counters.
	Metrics *trace.Registry
	// Bufs is the store unexpected eager payloads are buffered in, and that
	// packet backends bounce-copy eager network payloads into; a world
	// shares one across its ranks. Nil gives the process one of its own.
	Bufs *bufpool.Pool
	// NoPooling disables this layer's request and shm-job free lists: every
	// operation allocates fresh and Release is a no-op. Virtual-time results
	// are identical either way; the switch exists for neutrality verification.
	// It does not reach the unexpected queue's records and buffers (Bufs).
	NoPooling bool
}

func (c Config) withDefaults() Config {
	if c.EagerShmMax == 0 {
		c.EagerShmMax = 64 << 10
	}
	if c.CTSCost == 0 {
		c.CTSCost = 50
	}
	if c.Bufs == nil {
		c.Bufs = new(bufpool.Pool)
	}
	return c
}

// Origin abstracts the path an arrival took so rendezvous replies travel the
// same way. Implementations: the shared-memory channel (here) and the packet
// backends (internal/core).
type Origin interface {
	OriginName() string
	// SendCTS emits a clear-to-send back to dst; returns host cost.
	SendCTS(p *Process, dst int32, senderCookie, recvCookie uint64, granted int) vtime.Duration
	// SendRdvData transmits req.Data()[:granted] to dst, tagged with the
	// receiver cookie; req completes when the data is fully submitted.
	SendRdvData(p *Process, req *Request, dst int32, recvCookie uint64, granted int)
	// DataCopyCost is the receiver-side cost of landing n rendezvous bytes
	// (memory copy for shm; ~0 for RDMA-capable network backends).
	DataCopyCost(p *Process, n int) vtime.Duration
}

type asmKey struct {
	src int32
	seq uint32
}

// assembly tracks a multi-fragment eager message being reassembled.
type assembly struct {
	req      *Request // non-nil when matched to a posted receive
	uq       *uqEntry // non-nil when unexpected
	received int
	msgLen   int
	bufLimit int // bytes we can actually store (truncation)
	ctx, src int32
	tag      int32
}

// shmJob is a queued shared-memory transmission (eager data, RTS/CTS
// control, or rendezvous data), advanced as free cells permit.
type shmJob struct {
	req     *Request // completed when the job finishes (may be nil)
	dst     int
	hdr     shmq.Header
	data    []byte
	off     int
	control bool // exactly one (possibly empty) cell
	sent    bool // control/empty-data cell emitted
}

// VC is the per-peer virtual connection. SendFn, when non-nil, overrides the
// CH3 send path for this destination — the function-pointer mechanism of
// §3.1.2 through which MPID_Send reaches NewMadeleine directly.
type VC struct {
	Peer     int
	SameNode bool
	SendFn   func(proc *vtime.Proc, req *Request)
}

// peerState is the lazily created per-peer connection state: the virtual
// connection plus the shm sequence counter and job queue toward that peer.
// At NP in the thousands a rank running log-depth collectives touches
// O(log NP) peers, so per-peer state is created on first contact instead of
// as NP-wide dense arrays (which would cost O(NP²) across the run).
type peerState struct {
	vc    VC
	seqTo uint32
	jobs  jobQueue
}

// Process is one rank's CH3/ADI3 state.
type Process struct {
	Rank int
	Size int

	e   *vtime.Engine
	Mgr *pioman.Manager
	cfg Config
	rec *trace.Recorder

	shm     *nemesis.Endpoint
	backend NetBackend

	// peers holds the lazily created per-peer state; sameNode classifies a
	// peer on first contact, remoteSend is the SendFn installed on VCs of
	// off-node peers (the §3.1.2 function-pointer override).
	peers      map[int]*peerState
	sameNode   func(peer int) bool
	remoteSend func(proc *vtime.Proc, req *Request)

	posted postedQueue
	uq     uqQueue
	qseq   uint64 // monotone stamp shared by both matching queues

	activeDsts []int

	asm        map[asmKey]*assembly
	rdvIn      map[uint64]*Request
	rdvOut     map[uint64]*Request
	nextCookie uint64

	// Free lists (see getReq/putReq): recycled requests — those their owner
	// released — and shm jobs, so the point-to-point and
	// nonblocking-collective hot paths stop allocating.
	reqFree bufpool.List[Request]
	jobFree bufpool.List[shmJob]
	uqFree  bufpool.Records[uqEntry]

	// Pool statistics and the live in-flight gauge, cached off cfg.Metrics
	// at construction so the hot path never does a registry lookup.
	reqPoolHits   *trace.Counter
	reqPoolMisses *trace.Counter
	inFlight      *trace.Gauge

	// shard is the progress-manager shard owning this process as a poll
	// source; notifications that need the ANY_SOURCE probe route to it.
	shard int

	// Stats.
	ShmEagerSends int64
	ShmRdvSends   int64
	UnexpectedLen int64
}

// jobQueue is one destination's FIFO of pending shm jobs, consumed via a
// head index so popping neither reallocates nor retains finished jobs (the
// vacated slot is niled; a drained queue resets to reuse its capacity).
type jobQueue struct {
	q    []*shmJob
	head int
}

func (jq *jobQueue) empty() bool    { return jq.head >= len(jq.q) }
func (jq *jobQueue) push(j *shmJob) { jq.q = append(jq.q, j) }
func (jq *jobQueue) front() *shmJob { return jq.q[jq.head] }
func (jq *jobQueue) pop() *shmJob {
	j := jq.q[jq.head]
	jq.q[jq.head] = nil
	jq.head++
	if jq.head == len(jq.q) {
		jq.q = jq.q[:0]
		jq.head = 0
	}
	return j
}

// NewProcess wires a CH3 process. shm may be nil when the rank shares a node
// with nobody. sameNode classifies a peer as co-located on first contact
// (nil means every peer is remote). The backend must be set with SetBackend
// before any traffic.
func NewProcess(e *vtime.Engine, rank, size int, mgr *pioman.Manager,
	shm *nemesis.Endpoint, sameNode func(peer int) bool, cfg Config) *Process {
	p := &Process{
		Rank: rank, Size: size, e: e, Mgr: mgr, cfg: cfg.withDefaults(),
		rec:      cfg.Rec,
		shm:      shm,
		peers:    make(map[int]*peerState),
		sameNode: sameNode,
		asm:      make(map[asmKey]*assembly),
		rdvIn:    make(map[uint64]*Request),
		rdvOut:   make(map[uint64]*Request),

		reqPoolHits:   cfg.Metrics.Counter(trace.CtrReqPoolHits),
		reqPoolMisses: cfg.Metrics.Counter(trace.CtrReqPoolMisses),
		inFlight:      cfg.Metrics.Gauge(trace.GaugeReqsInFlight),
	}
	if shm != nil {
		shm.SetHandler(func(hdr shmq.Header, payload []byte) vtime.Duration {
			return p.HandleArrival(hdr, payload, shmOrigin{})
		})
		// Arrival notifications wake only the worker whose shard owns the
		// shm source; the other workers have nothing new to poll.
		shmShard := mgr.Register(shm, pioman.ClassShm)
		shm.SetNotify(func() { mgr.NotifyShard(shmShard) })
		// The job engine is pinned onto the endpoint's shard: the endpoint's
		// notification is also the flow-control retry signal (a receiver
		// freed a cell, so a stalled advanceJobs can push again), and
		// arrival handling pushes CTS/rendezvous-data jobs that the next
		// sweep iteration must advance. On any other shard those cascades
		// would wake a worker that never polls the job engine.
		p.shard = mgr.RegisterAt(p, pioman.ClassShm, shmShard)
	} else {
		p.shard = mgr.Register(p, pioman.ClassShm)
	}
	return p
}

// SetBackend installs the inter-node backend.
func (p *Process) SetBackend(b NetBackend) { p.backend = b }

// Backend returns the installed backend.
func (p *Process) Backend() NetBackend { return p.backend }

// SetRemoteSendFn installs the send override applied to every off-node
// peer's VC — the direct module's CH3 bypass (§3.1.2). Already-created VCs
// are retrofitted; peers contacted later pick it up at creation.
func (p *Process) SetRemoteSendFn(fn func(proc *vtime.Proc, req *Request)) {
	p.remoteSend = fn
	for _, ps := range p.peers {
		if !ps.vc.SameNode && ps.vc.SendFn == nil {
			ps.vc.SendFn = fn
		}
	}
}

// peer returns rank's connection state, creating it on first contact.
func (p *Process) peer(rank int) *peerState {
	ps := p.peers[rank]
	if ps == nil {
		ps = &peerState{vc: VC{Peer: rank}}
		if rank != p.Rank && p.sameNode != nil && p.sameNode(rank) {
			ps.vc.SameNode = true
		} else if p.remoteSend != nil {
			ps.vc.SendFn = p.remoteSend
		}
		p.peers[rank] = ps
	}
	return ps
}

// Engine returns the simulation engine.
func (p *Process) Engine() *vtime.Engine { return p.e }

// Bufs returns the process's payload store (Config.Bufs).
func (p *Process) Bufs() *bufpool.Pool { return p.cfg.Bufs }

// ShmMemBW returns the node copy bandwidth (0 when no shm endpoint).
func (p *Process) ShmMemBW() float64 {
	if p.shm == nil {
		return 4e9
	}
	return p.shm.Options().MemBW
}

// ---- request/job free lists ----------------------------------------------

// getReq pops a recycled request from the free list (or allocates on a
// miss). It belongs to the caller until Release.
func (p *Process) getReq(kind reqKind) *Request {
	if p.cfg.NoPooling {
		return &Request{p: p, kind: kind}
	}
	if r := p.reqFree.Get(); r != nil {
		r.p, r.kind = p, kind
		p.reqPoolHits.Inc()
		return r
	}
	p.reqPoolMisses.Inc()
	p.reqFree.Made()
	return &Request{p: p, kind: kind}
}

// putReq recycles a completed request, keeping its callback slice's
// capacity and its bound Done predicate so reuse re-creates neither.
func (p *Process) putReq(r *Request) {
	*r = Request{onComplete: r.onComplete[:0], doneFn: r.doneFn}
	p.reqFree.Put(r)
}

// Release gives a request obtained from Isend/Irecv back, with
// MPI_Request_free's meaning: a completed request returns to the free list
// at once; one still in flight completes as usual — its callbacks run — and
// returns to the free list in Complete. Either way the caller must not touch
// it afterwards, so it reads a receive's status first and registers every
// callback before. Releasing is optional — an unreleased request is simply
// collected.
func (p *Process) Release(r *Request) {
	if p.cfg.NoPooling {
		return
	}
	if r.released || r.p == nil { // r.p is nil once recycled
		panic("ch3: double Release")
	}
	if !r.done {
		r.released = true
		return
	}
	p.putReq(r)
}

// getJob pops a recycled shm job (or allocates on a miss).
func (p *Process) getJob() *shmJob {
	if p.cfg.NoPooling {
		return &shmJob{}
	}
	if j := p.jobFree.Get(); j != nil {
		return j
	}
	p.jobFree.Made()
	return &shmJob{}
}

// putJob recycles a finished shm job.
func (p *Process) putJob(j *shmJob) {
	if p.cfg.NoPooling {
		return
	}
	*j = shmJob{}
	p.jobFree.Put(j)
}

// putUq recycles an entry taken off the unexpected queue, and its payload
// buffer, once the receive that matched it has copied the payload out.
func (p *Process) putUq(u *uqEntry) {
	p.cfg.Bufs.Put(u.data)
	p.uqFree.Put(u)
}

// track mirrors a freshly issued request on the in-flight gauge; Complete
// decrements it.
func (p *Process) track(r *Request) {
	r.tracked = true
	p.inFlight.Inc()
}

// nextQSeq returns the next matching-queue stamp.
func (p *Process) nextQSeq() uint64 {
	p.qseq++
	return p.qseq
}

// Isend starts a send of data to dst under (ctx, tag). The caller's proc is
// charged the software overhead; same-node traffic goes through the Nemesis
// cell queues, remote traffic through the VC send override or backend.
func (p *Process) Isend(proc *vtime.Proc, dst int, tag, ctx int32, data []byte) *Request {
	return p.IsendRail(proc, dst, tag, ctx, data, 0)
}

// IsendRail is Isend with a multirail placement hint: 0 lets the backend's
// strategy place the transfer, k > 0 pins it to rail k-1 (see Request.Rail).
func (p *Process) IsendRail(proc *vtime.Proc, dst int, tag, ctx int32, data []byte, rail int) *Request {
	if p.cfg.SendSW > 0 {
		proc.Sleep(p.cfg.SendSW)
	}
	r := p.getReq(sendReq)
	r.dst, r.tag, r.ctx, r.data, r.Rail = int32(dst), tag, ctx, data, rail
	if dst == p.Rank {
		panic("ch3: self-send must be handled by the MPI layer")
	}
	p.track(r)
	vc := &p.peer(dst).vc
	if vc.SameNode {
		p.isendShm(proc, r)
		return r
	}
	if vc.SendFn != nil {
		vc.SendFn(proc, r)
		return r
	}
	p.backend.Isend(proc, r)
	return r
}

func (p *Process) isendShm(proc *vtime.Proc, r *Request) {
	dst := int(r.dst)
	ps := p.peer(dst)
	seq := ps.seqTo
	ps.seqTo++
	if len(r.data) <= p.cfg.EagerShmMax {
		p.ShmEagerSends++
		p.rec.Instant("proto", "shm-eager",
			trace.Int64("dst", int64(dst)), trace.Int64("bytes", int64(len(r.data))))
		j := p.getJob()
		j.req, j.dst = r, dst
		j.hdr = shmq.Header{Type: shmq.CellData, Tag: r.tag, Ctx: r.ctx,
			SeqNo: seq, MsgLen: int64(len(r.data))}
		j.data = r.data
		p.pushJob(j)
	} else {
		p.ShmRdvSends++
		p.rec.Instant("proto", "shm-rts",
			trace.Int64("dst", int64(dst)), trace.Int64("bytes", int64(len(r.data))))
		p.nextCookie++
		cookie := p.nextCookie
		r.cookie = cookie
		p.rdvOut[cookie] = r
		j := p.getJob()
		j.dst = dst
		j.hdr = shmq.Header{Type: shmq.CellRTS, Tag: r.tag, Ctx: r.ctx,
			SeqNo: seq, MsgLen: int64(len(r.data)), ReqID: cookie}
		j.control = true
		p.pushJob(j)
	}
	// Advance inline for latency; stalled fragments continue under Poll.
	if cost := p.advanceJobs(); cost > 0 {
		proc.Sleep(cost)
	}
}

// Irecv posts a receive for (ctx, src, tag); src may be AnySource and tag
// AnyTag. The unexpected queue is consulted first; otherwise the request is
// enqueued on the posted receive queue and/or handed to the backend.
func (p *Process) Irecv(proc *vtime.Proc, src int, tag, ctx int32, buf []byte) *Request {
	if p.cfg.RecvSW > 0 {
		proc.Sleep(p.cfg.RecvSW)
	}
	r := p.getReq(recvReq)
	r.src, r.tag, r.ctx, r.buf = int32(src), tag, ctx, buf
	p.track(r)

	if cost, matched := p.tryUnexpected(r); matched {
		if cost > 0 {
			proc.Sleep(cost)
		}
		return r
	}

	central := p.backend == nil || p.backend.CentralMatching()
	remoteKnown := src != int(AnySource) && !p.peer(src).vc.SameNode

	if src == int(AnySource) || !remoteKnown || central {
		p.posted.add(r, p.nextQSeq())
	}
	if p.backend != nil {
		if src == int(AnySource) {
			p.backend.PostRecvAny(r)
			// A matching message may already sit in the library's buffers;
			// only a progress pass (the ANY_SOURCE probe, §3.2.2) can marry
			// them, so nudge the worker polling this process — essential
			// under PIOMan, where nobody polls on the application thread.
			p.Mgr.NotifyShard(p.shard)
		} else if remoteKnown && !central {
			p.backend.PostRecv(r)
		}
	}
	return r
}

// tryUnexpected consults the unexpected queue for a match; on success it
// consumes/claims the entry and returns the copy cost.
func (p *Process) tryUnexpected(r *Request) (vtime.Duration, bool) {
	u := p.uq.take(r)
	if u == nil {
		return 0, false
	}
	defer p.putUq(u)
	if u.isRTS {
		return p.startRdvRecv(r, u.src, u.tag, u.msgLen, u.rtsCookie, u.org), true
	}
	if u.pendingFrags > 0 {
		// Partially assembled: claim it; completion happens when the
		// last fragment lands. The prefix already buffered is copied
		// out now.
		a := p.asm[u.key]
		a.req = r
		a.uq = nil
		n := copy(r.buf, u.data[:a.received])
		return copyCost(n, p.ShmMemBW()), true
	}
	n := copy(r.buf, u.data)
	r.SetRecvStatus(u.src, u.tag, n, n < u.msgLen)
	r.Complete()
	return copyCost(n, p.ShmMemBW()), true
}

// MatchPosted removes and returns the oldest posted receive matching the
// arrival triple, or nil. Exposed for central-matching backends.
func (p *Process) MatchPosted(ctx, src, tag int32) *Request {
	r := p.posted.match(ctx, src, tag)
	if r != nil && r.src == AnySource && p.backend != nil {
		p.backend.ShmMatchedAny(r)
	}
	return r
}

// RemovePosted drops a request from the posted queue (direct-module
// completion path). It is a no-op if the request is not queued.
func (p *Process) RemovePosted(r *Request) { p.posted.remove(r) }

// PostedLen and UnexpectedQLen expose queue depths for tests.
func (p *Process) PostedLen() int      { return p.posted.n }
func (p *Process) UnexpectedQLen() int { return p.uq.n }

// Wait blocks until r completes, driving progress per the configured regime.
func (p *Process) Wait(proc *vtime.Proc, r *Request) {
	p.Mgr.WaitUntil(proc, r.DoneFunc())
}

// RegisterRdvOut assigns a rendezvous cookie to a send request and tracks
// it until the CTS arrives. Packet backends use it when emitting an RTS.
func (p *Process) RegisterRdvOut(r *Request) uint64 {
	p.nextCookie++
	r.cookie = p.nextCookie
	p.rdvOut[r.cookie] = r
	return r.cookie
}

// RdvInReq returns the receive request registered under a rendezvous cookie.
func (p *Process) RdvInReq(cookie uint64) *Request { return p.rdvIn[cookie] }

// CompleteRdvIn completes the receive request behind cookie; backends whose
// rendezvous data bypasses HandleArrival (e.g. the generic Nemesis module
// sending data as a nested NewMadeleine message) call this when the library
// delivers the payload directly into the user buffer.
func (p *Process) CompleteRdvIn(cookie uint64) {
	r := p.rdvIn[cookie]
	if r == nil {
		panic(fmt.Sprintf("ch3[%d]: CompleteRdvIn unknown cookie %d", p.Rank, cookie))
	}
	delete(p.rdvIn, cookie)
	r.Complete()
}

// ---- pioman source: job advancement + backend progress -------------------

// SourceName implements pioman.Source.
func (p *Process) SourceName() string { return fmt.Sprintf("ch3[%d]", p.Rank) }

// Poll implements pioman.Source.
func (p *Process) Poll() (int, vtime.Duration) {
	cost := p.advanceJobs()
	events := 0
	if cost > 0 {
		events++
	}
	if p.backend != nil {
		n, c := p.backend.Progress()
		events += n
		cost += c
	}
	return events, cost
}

func (p *Process) pushJob(j *shmJob) {
	jq := &p.peer(j.dst).jobs
	if jq.empty() {
		p.activeDsts = append(p.activeDsts, j.dst)
	}
	jq.push(j)
}

// advanceJobs pushes fragments of queued shm jobs into free cells, in
// per-destination FIFO order. Returns the accumulated host cost.
func (p *Process) advanceJobs() vtime.Duration {
	if p.shm == nil || len(p.activeDsts) == 0 {
		return 0
	}
	var cost vtime.Duration
	still := p.activeDsts[:0]
	for _, dst := range p.activeDsts {
		jq := &p.peer(dst).jobs
		for !jq.empty() {
			c, done := p.advanceOne(jq.front())
			cost += c
			if !done {
				break // flow control: retry when a cell frees
			}
			p.putJob(jq.pop())
		}
		if !jq.empty() {
			still = append(still, dst)
		}
	}
	p.activeDsts = still
	return cost
}

func (p *Process) advanceOne(j *shmJob) (vtime.Duration, bool) {
	var cost vtime.Duration
	maxFrag := p.shm.MaxFragment()
	for {
		if j.control || len(j.data) == 0 {
			if j.sent {
				p.finishJob(j)
				return cost, true
			}
			// Control cells keep their header verbatim (CTS carries the
			// receiver cookie in Offset).
			c, ok := p.shm.TrySendFragment(j.dst, j.hdr, nil)
			if !ok {
				return cost, false
			}
			cost += c
			j.sent = true
			p.finishJob(j)
			return cost, true
		}
		if j.off >= len(j.data) {
			p.finishJob(j)
			return cost, true
		}
		end := j.off + maxFrag
		if end > len(j.data) {
			end = len(j.data)
		}
		hdr := j.hdr
		hdr.Offset = int64(j.off)
		c, ok := p.shm.TrySendFragment(j.dst, hdr, j.data[j.off:end])
		if !ok {
			return cost, false
		}
		cost += c
		j.off = end
	}
}

func (p *Process) finishJob(j *shmJob) {
	if j.req != nil && !j.req.done {
		j.req.Complete()
	}
}

// ---- arrival handling (shared by shm cells and packet backends) ----------

type shmOrigin struct{}

func (shmOrigin) OriginName() string { return "shm" }

func (shmOrigin) SendCTS(p *Process, dst int32, senderCookie, recvCookie uint64, granted int) vtime.Duration {
	j := p.getJob()
	j.dst = int(dst)
	j.hdr = shmq.Header{Type: shmq.CellCTS, ReqID: senderCookie,
		MsgLen: int64(granted), Offset: int64(recvCookie)}
	j.control = true
	p.pushJob(j)
	return p.cfg.CTSCost
}

func (shmOrigin) SendRdvData(p *Process, req *Request, dst int32, recvCookie uint64, granted int) {
	j := p.getJob()
	j.req, j.dst = req, int(dst)
	j.hdr = shmq.Header{Type: shmq.CellRdvData, ReqID: recvCookie,
		MsgLen: int64(granted)}
	j.data = req.data[:granted]
	p.pushJob(j)
}

func (shmOrigin) DataCopyCost(p *Process, n int) vtime.Duration {
	return copyCost(n, p.ShmMemBW())
}

// HandleArrival processes one arrived CH3 packet (a shm cell or an
// assembled network packet) and returns the host cost of handling it.
func (p *Process) HandleArrival(hdr shmq.Header, payload []byte, org Origin) vtime.Duration {
	switch hdr.Type {
	case shmq.CellData:
		return p.handleEagerFrag(hdr, payload, org)
	case shmq.CellRTS:
		return p.handleRTS(hdr, org)
	case shmq.CellCTS:
		return p.handleCTS(hdr, org)
	case shmq.CellRdvData:
		return p.handleRdvData(hdr, payload, len(payload), org)
	}
	panic(fmt.Sprintf("ch3[%d]: unknown packet type %d", p.Rank, hdr.Type))
}

// HandleLandedRdvData processes the arrival of an n-byte rendezvous data
// packet whose payload the backend already copied into the receive buffer
// (RdvInReq) when the send completed: HandleArrival's bookkeeping, without
// the copy.
func (p *Process) HandleLandedRdvData(hdr shmq.Header, n int, org Origin) vtime.Duration {
	return p.handleRdvData(hdr, nil, n, org)
}

func (p *Process) handleEagerFrag(hdr shmq.Header, payload []byte, org Origin) vtime.Duration {
	key := asmKey{src: hdr.Src, seq: hdr.SeqNo}
	msgLen := int(hdr.MsgLen)

	if a, ok := p.asm[key]; ok {
		// Continuation fragment.
		var cost vtime.Duration
		if a.req != nil {
			n := copySlice(a.req.buf, int(hdr.Offset), payload)
			cost = copyCost(n, p.ShmMemBW())
		} else {
			n := copySlice(a.uq.data, int(hdr.Offset), payload)
			cost = copyCost(n, p.ShmMemBW())
		}
		a.received += len(payload)
		if a.received >= a.msgLen {
			delete(p.asm, key)
			if a.req != nil {
				n := a.msgLen
				if n > len(a.req.buf) {
					n = len(a.req.buf)
				}
				a.req.SetRecvStatus(a.src, a.tag, n, n < a.msgLen)
				a.req.Complete()
			} else {
				a.uq.pendingFrags = 0
			}
		}
		return cost
	}

	// First fragment: match.
	if r := p.MatchPosted(hdr.Ctx, hdr.Src, hdr.Tag); r != nil {
		n := copy(r.buf, payload)
		cost := copyCost(n, p.ShmMemBW())
		if len(payload) >= msgLen {
			lim := msgLen
			if lim > len(r.buf) {
				lim = len(r.buf)
			}
			r.SetRecvStatus(hdr.Src, hdr.Tag, lim, lim < msgLen)
			r.Complete()
			return cost
		}
		p.asm[key] = &assembly{req: r, received: len(payload), msgLen: msgLen,
			ctx: hdr.Ctx, src: hdr.Src, tag: hdr.Tag}
		return cost
	}

	// Unexpected: buffer the whole message (the extra copy of §2.1.3).
	p.rec.Instant("proto", "unexpected",
		trace.Int64("src", int64(hdr.Src)), trace.Int64("bytes", int64(msgLen)))
	u := p.uqFree.Get()
	*u = uqEntry{ctx: hdr.Ctx, src: hdr.Src, tag: hdr.Tag, msgLen: msgLen,
		data: p.cfg.Bufs.Get(msgLen), org: org}
	n := copy(u.data, payload)
	cost := copyCost(n, p.ShmMemBW())
	p.UnexpectedLen++
	if len(payload) < msgLen {
		u.pendingFrags = 1
		u.key = key
		p.asm[key] = &assembly{uq: u, received: len(payload), msgLen: msgLen,
			ctx: hdr.Ctx, src: hdr.Src, tag: hdr.Tag}
	}
	p.uq.add(u, p.nextQSeq())
	return cost
}

func (p *Process) handleRTS(hdr shmq.Header, org Origin) vtime.Duration {
	p.rec.Instant("proto", "rts",
		trace.Str("via", org.OriginName()),
		trace.Int64("src", int64(hdr.Src)), trace.Int64("bytes", hdr.MsgLen))
	if r := p.MatchPosted(hdr.Ctx, hdr.Src, hdr.Tag); r != nil {
		return p.startRdvRecv(r, hdr.Src, hdr.Tag, int(hdr.MsgLen), hdr.ReqID, org)
	}
	u := p.uqFree.Get()
	*u = uqEntry{ctx: hdr.Ctx, src: hdr.Src, tag: hdr.Tag,
		msgLen: int(hdr.MsgLen), isRTS: true, rtsCookie: hdr.ReqID, org: org}
	p.uq.add(u, p.nextQSeq())
	p.UnexpectedLen++
	return 0
}

func (p *Process) startRdvRecv(r *Request, src, tag int32, msgLen int, senderCookie uint64, org Origin) vtime.Duration {
	granted := msgLen
	if granted > len(r.buf) {
		granted = len(r.buf)
	}
	r.SetRecvStatus(src, tag, granted, granted < msgLen)
	if granted == 0 {
		cost := org.SendCTS(p, src, senderCookie, 0, 0)
		r.Complete()
		return cost
	}
	p.nextCookie++
	cookie := p.nextCookie
	r.cookie = cookie
	r.remaining = granted
	p.rdvIn[cookie] = r
	return org.SendCTS(p, src, senderCookie, cookie, granted)
}

func (p *Process) handleCTS(hdr shmq.Header, org Origin) vtime.Duration {
	p.rec.Instant("proto", "cts",
		trace.Str("via", org.OriginName()), trace.Int64("granted", hdr.MsgLen))
	r := p.rdvOut[hdr.ReqID]
	if r == nil {
		panic(fmt.Sprintf("ch3[%d]: CTS for unknown cookie %d", p.Rank, hdr.ReqID))
	}
	delete(p.rdvOut, hdr.ReqID)
	granted := int(hdr.MsgLen)
	if granted == 0 {
		r.Complete()
		return p.cfg.CTSCost
	}
	recvCookie := uint64(hdr.Offset)
	org.SendRdvData(p, r, hdr.Src, recvCookie, granted)
	return p.cfg.CTSCost
}

// handleRdvData accounts an n-byte rendezvous data packet, copying payload
// into the receive buffer unless it has already landed there (nil payload).
func (p *Process) handleRdvData(hdr shmq.Header, payload []byte, n int, org Origin) vtime.Duration {
	p.rec.Instant("proto", "rdv-data",
		trace.Str("via", org.OriginName()), trace.Int64("bytes", int64(n)))
	r := p.rdvIn[hdr.ReqID]
	if r == nil {
		panic(fmt.Sprintf("ch3[%d]: rdv data for unknown cookie %d", p.Rank, hdr.ReqID))
	}
	copySlice(r.buf, int(hdr.Offset), payload)
	cost := org.DataCopyCost(p, n)
	r.remaining -= n
	if r.remaining <= 0 {
		delete(p.rdvIn, hdr.ReqID)
		r.Complete()
	}
	return cost
}

// copySlice copies src into dst at off, clipping to dst's length; it
// returns the bytes copied.
func copySlice(dst []byte, off int, src []byte) int {
	if off >= len(dst) {
		return 0
	}
	return copy(dst[off:], src)
}

func copyCost(n int, bw float64) vtime.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / bw * 1e9)
}
