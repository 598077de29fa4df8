package mpi

import (
	"fmt"

	"repro/internal/ch3"
	"repro/internal/marcel"
	"repro/internal/nbc"
	"repro/internal/pioman"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Status describes a completed receive. Source is a rank of the
// communicator the receive was posted on.
type Status struct {
	Source    int
	Tag       int
	Len       int
	Truncated bool
}

func fromCH3(s ch3.Status) Status {
	return Status{Source: int(s.Source), Tag: int(s.Tag), Len: s.Len, Truncated: s.Truncated}
}

// Request is a nonblocking operation (point-to-point or collective). The
// call that completes it — Wait, WaitAll, WaitAny, or a Test that returns
// true — keeps its status here and gives the CH3 request behind it back to
// the CH3 free list, as MPI_Wait frees an MPI request. The handle itself is
// never reused: a later Wait, Test or Done reads the kept status, as a wait
// on MPI_REQUEST_NULL does.
type Request struct {
	c  *Comm
	r  *ch3.Request // the transfer until finished; nil for self-ops and collectives
	op *nbc.Op      // nonblocking collective, nil otherwise

	// opGen pins the collective op's acquisition generation: completed ops
	// recycle inside the engine, so completion is read through DoneGen,
	// which stays correct after the struct is reused for another start.
	opGen uint64

	// st is the kept status (zero for sends and collectives), valid once fin
	// is set: by the call that completed the request, or at a self-op's
	// completion. Keep the struct at 80 B: a nonblocking-collective start
	// allocates one (TestRequestFitsSizeClass).
	st  Status
	fin bool
}

// Done reports completion.
func (q *Request) Done() bool {
	switch {
	case q.fin:
		return true
	case q.op != nil:
		return q.op.DoneGen(q.opGen)
	case q.r != nil:
		return q.r.Done()
	}
	return false
}

// finish is run by the call that completed q, after its wait returned (never
// inside a wait predicate): it keeps the status and releases the CH3
// request. Finishing again is a no-op.
func (q *Request) finish() {
	if q.r != nil {
		q.st = q.c.recvStatus(q.r)
		q.c.p.Release(q.r)
		q.r = nil
	}
	q.fin = true
}

// Comm is one rank's communicator handle (MPI_COMM_WORLD by default; Dup
// and Split derive new communicators over fresh contexts). A derived
// communicator renumbers its members 0..Size()-1 and translates to world
// ranks internally.
type Comm struct {
	cfg  Config
	proc *vtime.Proc
	p    *ch3.Process
	node *marcel.Node
	mgr  *pioman.Manager

	// group maps comm-local ranks to world (ch3) ranks; inv is the
	// world→local inverse (-1 for non-members); rank is this process's
	// local rank; nodes maps local ranks to node ids (nil when no
	// placement is known).
	group  []int
	inv    []int
	rank   int
	nodes  []int
	twoLvl bool // two-level collectives apply (precomputed from cfg+nodes)

	ctx     int32 // point-to-point context
	collCtx int32 // blocking-collective context
	nbcCtx  int32 // nonblocking-collective context

	nextCtx *int32 // shared counter for Dup/Split

	nbcEng *nbc.Engine // lazily created schedule engine
	cache  *schedCache // per-communicator persistent-schedule cache

	// pairDone is waitPair's predicate over pairSend and pairRecv, bound to
	// this handle on first use.
	pairSend, pairRecv *ch3.Request
	pairDone           func() bool

	// allDone is WaitAll's predicate over waitQs from cursor waitI on, bound
	// to this handle on first use; waitQs is cleared when WaitAll returns.
	waitQs  []*Request
	waitI   int
	allDone func() bool

	// oneDone is Wait's predicate over waitQ, a request without a CH3
	// request; anyDone is WaitAny's over anyQs, a copy of its arguments
	// (so the caller's variadic slice stays on its stack), leaving the
	// index of the first completed request in anyI. Both are bound to this
	// handle on first use, and their requests are cleared when the wait
	// returns.
	waitQ   *Request
	oneDone func() bool
	anyQs   []*Request
	anyI    int
	anyDone func() bool

	rec *trace.Recorder // event recorder (nil when tracing is off)
	met *trace.Registry // this rank's counter registry (never nil under Run)

	selfSends []selfMsg
	selfRecvs []selfMsg // pending self-receives; data is the receive buffer
}

// selfMsg is a buffered self-send, or a pending self-receive (q set).
type selfMsg struct {
	tag  int32
	ctx  int32
	data []byte
	q    *Request
}

func newComm(cfg Config, proc *vtime.Proc, p *ch3.Process, node *marcel.Node,
	mgr *pioman.Manager, rec *trace.Recorder, met *trace.Registry) *Comm {
	next := int32(3)
	group := make([]int, p.Size)
	inv := make([]int, p.Size)
	for i := range group {
		group[i] = i
		inv[i] = i
	}
	var nodes []int
	if len(cfg.Placement) == p.Size {
		nodes = append([]int(nil), cfg.Placement...)
	}
	return &Comm{cfg: cfg, proc: proc, p: p, node: node, mgr: mgr,
		group: group, inv: inv, rank: p.Rank, nodes: nodes,
		twoLvl: twoLevelApplies(&cfg, nodes),
		ctx:    0, collCtx: 1, nbcCtx: 2, nextCtx: &next,
		rec: rec, met: met}
}

// noEnd is the span closer handed out when tracing is off.
var noEnd = func() {}

// span opens an "mpi" entry-point span and returns its closer. With tracing
// off it returns immediately; entry points pay only a nil check.
func (c *Comm) span(name string, args ...trace.Arg) func() {
	if c.rec == nil {
		return noEnd
	}
	return c.rec.Span("mpi", name, args...)
}

// Mark drops a named instant event on this rank's app track — an
// application annotation (phase boundaries, iteration markers) that trace
// consumers such as bench.OverlapFromTrace key on. No-op when tracing is off.
func (c *Comm) Mark(name string) {
	c.rec.Instant("mark", name)
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// world translates a comm-local rank to the underlying process rank.
func (c *Comm) world(r int) int { return c.group[r] }

// localOf translates a world rank back to this communicator's numbering
// (identity for ranks outside the group, which only self-ops produce).
func (c *Comm) localOf(w int) int {
	if w >= 0 && w < len(c.inv) && c.inv[w] >= 0 {
		return c.inv[w]
	}
	return w
}

// Dup returns a communicator with the same group over fresh contexts
// (all ranks must call it in the same order, as in MPI).
func (c *Comm) Dup() *Comm {
	d := *c
	d.ctx = *c.nextCtx
	d.collCtx = *c.nextCtx + 1
	d.nbcCtx = *c.nextCtx + 2
	*c.nextCtx += 3
	d.nbcEng = nil
	d.cache = nil
	d.pairDone = nil
	d.waitQs, d.allDone = nil, nil
	d.waitQ, d.oneDone = nil, nil
	d.anyQs, d.anyDone = nil, nil
	d.selfSends = nil
	d.selfRecvs = nil
	return &d
}

// Wtime returns the current virtual time in seconds.
func (c *Comm) Wtime() float64 { return c.proc.Now().Seconds() }

// Compute occupies a core for the given number of virtual seconds.
func (c *Comm) Compute(seconds float64) {
	end := c.span("Compute")
	c.node.Compute(c.proc, vtime.DurationOf(seconds))
	end()
}

// ComputeFlops occupies a core for the time ops floating-point operations
// take at the cluster's sustained per-core rate (scaled by the stack's
// compute efficiency).
func (c *Comm) ComputeFlops(ops float64) {
	rate := c.cfg.Cluster.FlopsPerCore * c.cfg.Stack.Efficiency()
	c.Compute(ops / rate)
}

// ---- point to point --------------------------------------------------------

// Isend starts a nonblocking send.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	r, q := c.isend(dst, tag, data)
	if q == nil {
		q = &Request{c: c, r: r}
	}
	return q
}

// isend is the body of Isend. It returns the CH3 request carrying the send,
// or the finished self-send request when dst is this rank — so the blocking
// form can wait on the CH3 request alone and hand it back.
func (c *Comm) isend(dst, tag int, data []byte) (*ch3.Request, *Request) {
	defer c.span("Isend", trace.Int64("dst", int64(dst)), trace.Int64("bytes", int64(len(data))))()
	c.checkRank(dst, "Isend")
	if dst == c.rank {
		return nil, c.selfIsend(int32(tag), c.ctx, data)
	}
	return c.p.Isend(c.proc, c.world(dst), int32(tag), c.ctx, data), nil
}

// Irecv starts a nonblocking receive; src may be AnySource, tag AnyTag.
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	r, q := c.irecv(src, tag, buf)
	if q == nil {
		q = &Request{c: c, r: r}
	}
	return q
}

// irecv is the body of Irecv, returning like isend.
func (c *Comm) irecv(src, tag int, buf []byte) (*ch3.Request, *Request) {
	defer c.span("Irecv", trace.Int64("src", int64(src)))()
	if src != AnySource {
		c.checkRank(src, "Irecv")
	}
	if src == c.rank {
		return nil, c.selfIrecv(int32(tag), c.ctx, buf)
	}
	wsrc := src
	if src != AnySource {
		wsrc = c.world(src)
	}
	return c.p.Irecv(c.proc, wsrc, int32(tag), c.ctx, buf), nil
}

// Send is a blocking send. Nothing outlives the call, so it waits on the CH3
// request itself and returns it to the CH3 free list.
func (c *Comm) Send(dst, tag int, data []byte) {
	defer c.span("Send", trace.Int64("dst", int64(dst)), trace.Int64("bytes", int64(len(data))))()
	if r, q := c.isend(dst, tag, data); q != nil {
		c.Wait(q)
	} else {
		c.finish(r)
	}
}

// Recv is a blocking receive; like Send it recycles its CH3 request.
func (c *Comm) Recv(src, tag int, buf []byte) Status {
	defer c.span("Recv", trace.Int64("src", int64(src)))()
	r, q := c.irecv(src, tag, buf)
	if q != nil {
		return c.Wait(q)
	}
	return c.finish(r)
}

// finish waits for the CH3 request of a blocking call, reads its status and
// only then hands the request back to the CH3 free list.
func (c *Comm) finish(r *ch3.Request) Status {
	c.waitOn(r.DoneFunc())
	st := c.recvStatus(r)
	c.p.Release(r)
	return st
}

// Wait blocks until the request completes and returns its status (zero
// Status for sends).
func (c *Comm) Wait(q *Request) Status {
	if q.r != nil {
		c.waitOn(q.r.DoneFunc())
	} else {
		if c.oneDone == nil {
			c.oneDone = func() bool { return c.waitQ.Done() }
		}
		c.waitQ = q
		c.waitOn(c.oneDone)
		c.waitQ = nil
	}
	q.finish()
	return q.st
}

// waitOn is the body of every single-request wait: the "Wait" span around a
// progress-regime wait on done.
func (c *Comm) waitOn(done func() bool) {
	end := c.span("Wait")
	c.mgr.WaitUntil(c.proc, done)
	end()
}

// WaitAll blocks until every request completes.
func (c *Comm) WaitAll(qs ...*Request) {
	defer c.span("WaitAll", trace.Int64("n", int64(len(qs))))()
	// The predicate re-runs on every completion broadcast while blocked. A
	// cursor makes the re-checks amortized O(1): completed requests stay
	// completed, so the scan resumes at the first request not yet seen done
	// instead of walking the whole window each wake — with thousands of
	// outstanding requests and per-sweep wakeups the full rescan dominates
	// host time.
	if c.allDone == nil {
		c.allDone = func() bool {
			for c.waitI < len(c.waitQs) && (c.waitQs[c.waitI] == nil || c.waitQs[c.waitI].Done()) {
				c.waitI++
			}
			return c.waitI == len(c.waitQs)
		}
	}
	c.waitQs, c.waitI = qs, 0
	c.mgr.WaitUntil(c.proc, c.allDone)
	c.waitQs = nil
	for _, q := range qs {
		if q != nil {
			q.finish()
		}
	}
}

// WaitAny blocks until at least one request completes and returns its index
// and status (MPI_Waitany). Indexes of already-completed requests win.
func (c *Comm) WaitAny(qs ...*Request) (int, Status) {
	defer c.span("WaitAny", trace.Int64("n", int64(len(qs))))()
	if c.anyDone == nil {
		c.anyDone = func() bool {
			for i, q := range c.anyQs {
				if q != nil && q.Done() {
					c.anyI = i
					return true
				}
			}
			return false
		}
	}
	c.anyQs = append(c.anyQs[:0], qs...)
	c.mgr.WaitUntil(c.proc, c.anyDone)
	clear(c.anyQs)
	idx := c.anyI
	q := qs[idx]
	q.finish()
	return idx, q.st
}

// Test reports whether the request completed, after one progress pass; if
// it did, Test finishes it as Wait would.
func (c *Comm) Test(q *Request) bool {
	if !q.Done() {
		c.mgr.Progress(c.proc)
		if !q.Done() {
			return false
		}
	}
	q.finish()
	return true
}

// Sendrecv performs a concurrent send and receive (both with tag).
func (c *Comm) Sendrecv(dst, stag int, sdata []byte, src, rtag int, rbuf []byte) Status {
	defer c.span("Sendrecv", trace.Int64("dst", int64(dst)), trace.Int64("src", int64(src)))()
	if src == c.rank || dst == c.rank { // self-operations carry no CH3 request to pair
		rq := c.Irecv(src, rtag, rbuf)
		sq := c.Isend(dst, stag, sdata)
		c.WaitAll(sq, rq)
		return rq.st
	}
	rr, _ := c.irecv(src, rtag, rbuf)
	sr, _ := c.isend(dst, stag, sdata)
	end := c.span("WaitAll", trace.Int64("n", 2))
	c.waitPair(sr, rr)
	end()
	st := c.recvStatus(rr)
	c.p.Release(sr)
	c.p.Release(rr)
	return st
}

// recvStatus translates a completed CH3 request's status into this
// communicator's numbering (zero Status for sends).
func (c *Comm) recvStatus(r *ch3.Request) Status {
	if !r.IsRecv() {
		return Status{}
	}
	st := fromCH3(r.Stat)
	st.Source = c.localOf(st.Source)
	return st
}

func (c *Comm) checkRank(r int, op string) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("mpi: %s rank %d out of range [0,%d)", op, r, c.Size()))
	}
}

// ---- self messaging ---------------------------------------------------------
//
// MPI allows a process to send to itself (nonblocking, buffered below the
// eager threshold). Matching is by (ctx, tag); AnySource receives do not
// match self messages in this implementation (documented limitation).

func (c *Comm) selfIsend(tag, ctx int32, data []byte) *Request {
	cp := make([]byte, len(data))
	copy(cp, data)
	q := &Request{c: c, fin: true}
	// Try pending self receives first (FIFO).
	for i, m := range c.selfRecvs {
		if m.ctx == ctx && (m.tag == int32(AnyTag) || m.tag == tag) {
			copy(c.selfRecvs[i:], c.selfRecvs[i+1:])
			c.selfRecvs[len(c.selfRecvs)-1] = selfMsg{} // drop the tail's references
			c.selfRecvs = c.selfRecvs[:len(c.selfRecvs)-1]
			m.q.completeSelf(c.rank, tag, m.data, cp)
			return q
		}
	}
	c.selfSends = append(c.selfSends, selfMsg{tag: tag, ctx: ctx, data: cp})
	return q
}

// completeSelf lands a self-message's data in buf and finishes q.
func (q *Request) completeSelf(src int, tag int32, buf, data []byte) {
	n := copy(buf, data)
	q.st = Status{Source: src, Tag: int(tag), Len: n, Truncated: n < len(data)}
	q.fin = true
}

func (c *Comm) selfIrecv(tag, ctx int32, buf []byte) *Request {
	q := &Request{c: c}
	for i, m := range c.selfSends {
		if m.ctx == ctx && (tag == int32(AnyTag) || tag == m.tag) {
			copy(c.selfSends[i:], c.selfSends[i+1:])
			c.selfSends[len(c.selfSends)-1] = selfMsg{} // drop the tail's payload
			c.selfSends = c.selfSends[:len(c.selfSends)-1]
			q.completeSelf(c.rank, m.tag, buf, m.data)
			return q
		}
	}
	c.selfRecvs = append(c.selfRecvs, selfMsg{tag: tag, ctx: ctx, data: buf, q: q})
	return q
}
