package core

import (
	"fmt"

	"repro/internal/ch3"
	"repro/internal/nmad"
	"repro/internal/vtime"
)

// DirectConfig tunes the direct NewMadeleine module.
type DirectConfig struct {
	// GenericSend/GenericRecv model the cost of going through
	// NewMadeleine's generic interface from CH3 — the ≈300 ns/message the
	// paper measures over raw NewMadeleine (§4.1.1), split across sides.
	GenericSend vtime.Duration
	GenericRecv vtime.Duration
	// ASCheck is the extra cost of the ANY_SOURCE probe-and-post path —
	// the constant ≈300 ns gap of Fig. 4(a).
	ASCheck vtime.Duration
	// ASProbe is the per-poll cost of scanning the pending lists when no
	// matching message has arrived.
	ASProbe vtime.Duration
}

func (c DirectConfig) withDefaults() DirectConfig {
	if c.GenericSend == 0 {
		c.GenericSend = 150
	}
	if c.GenericRecv == 0 {
		c.GenericRecv = 150
	}
	if c.ASCheck == 0 {
		c.ASCheck = 300
	}
	if c.ASProbe == 0 {
		c.ASProbe = 30
	}
	return c
}

// Direct is the paper's NewMadeleine network module with the CH3 bypass:
// sends go straight from the (overridden) CH3 send path to nm_sr_isend,
// receives are posted to NewMadeleine which performs tag matching internally
// and delivers into user buffers, and ANY_SOURCE is handled with the pending
// request lists of §3.2 because posted NewMadeleine requests cannot be
// cancelled.
type Direct struct {
	p   *ch3.Process
	nm  *nmad.Core
	cfg DirectConfig
	as  *asSet

	// Completion callbacks shared by every NewMadeleine request the module
	// posts, bound once; the paired CH3 request rides nmad.Request.User.
	onSendDone, onRecvDone func(*nmad.Request)

	// Stats.
	NetSends    int64
	NetRecvs    int64
	ASProbeHits int64
	Deferred    int64
}

// NewDirect builds the module for process p over NewMadeleine core nm.
// It installs the VC send-function override applied to every remote peer
// (§3.1.2): MPID_Send on those connections calls NewMadeleine directly.
// The override is one shared function handed to the process, which stamps
// it onto each off-node VC as the peer is first contacted — no O(NP) setup
// pass per rank.
func NewDirect(p *ch3.Process, nm *nmad.Core, cfg DirectConfig) *Direct {
	d := &Direct{p: p, nm: nm, cfg: cfg.withDefaults(), as: newASSet()}
	d.onSendDone, d.onRecvDone = d.sendDone, d.recvDone
	p.SetRemoteSendFn(func(proc *vtime.Proc, req *ch3.Request) { d.Isend(proc, req) })
	p.SetBackend(d)
	return d
}

// Name implements ch3.NetBackend.
func (d *Direct) Name() string { return "nmad-direct" }

// CentralMatching implements ch3.NetBackend: NewMadeleine matches tags.
func (d *Direct) CentralMatching() bool { return false }

// Isend implements ch3.NetBackend: the direct CH3→nm_sr_isend path.
func (d *Direct) Isend(proc *vtime.Proc, req *ch3.Request) {
	if d.cfg.GenericSend > 0 {
		proc.Sleep(d.cfg.GenericSend)
	}
	gate := d.nm.Gate(req.Dest())
	if gate == nil {
		panic(fmt.Sprintf("core[%d]: no gate to %d", d.p.Rank, req.Dest()))
	}
	rctx, _, rtag := reqTriple(req)
	nr := d.nm.ISendRail(gate, encodeTag(rctx, d.p.Rank, rtag), req.Data(), req.Rail)
	d.NetSends++
	nr.User = req
	nr.SetOnComplete(d.onSendDone)
}

// sendDone completes the CH3 request paired with a finished send. The
// NewMadeleine request is released first: nothing reads it afterwards, and
// the CH3 completion may post sends that reuse it.
func (d *Direct) sendDone(nr *nmad.Request) {
	req := nr.User.(*ch3.Request)
	nr.Release()
	req.Complete()
}

// reqTriple extracts (ctx, src, tag) for send requests tag/ctx live in the
// same fields.
func reqTriple(req *ch3.Request) (ctx int32, src int, tag int32) {
	c, s, t := req.MatchTriple()
	return c, int(s), t
}

// PostRecv implements ch3.NetBackend for known remote sources. If an
// ANY_SOURCE list could match the same messages, the request is deferred
// behind it to preserve ordering; otherwise it goes straight to NewMadeleine.
func (d *Direct) PostRecv(req *ch3.Request) {
	ctx, _, tag := req.MatchTriple()
	if l := d.as.blockingList(ctx, tag); l != nil {
		d.as.defer_(l, req)
		d.Deferred++
		return
	}
	d.postNmad(req)
}

// postNmad creates the NewMadeleine receive paired with the CH3 request.
func (d *Direct) postNmad(req *ch3.Request) {
	ctx, src, tag := req.MatchTriple()
	t, mask := recvTagMask(ctx, int(src), tag)
	gate := d.nm.Gate(int(src))
	nr := d.nm.IRecv(gate, t, mask, req.Buffer())
	d.NetRecvs++
	nr.User = req
	nr.SetOnComplete(d.onRecvDone)
}

// recvDone completes the CH3 request paired with a finished receive.
func (d *Direct) recvDone(nr *nmad.Request) {
	req := nr.User.(*ch3.Request)
	d.deliver(nr, req)
	d.p.RemovePosted(req)
	req.Complete()
}

// deliver copies a finished NewMadeleine receive's status into its CH3
// request, charges the generic-interface overhead and releases nr.
func (d *Direct) deliver(nr *nmad.Request, req *ch3.Request) {
	st := nr.Status()
	nr.Release()
	_, _, mpiTag := decodeTag(st.Tag)
	req.SetRecvStatus(int32(st.Peer), mpiTag, st.Len, st.Truncated)
	d.nm.Owe(d.cfg.GenericRecv)
}

// PostRecvAny implements ch3.NetBackend: the request joins (or opens) the
// pending list for its tag; the actual NewMadeleine request is only created
// once a matching message is known to have arrived (Progress).
func (d *Direct) PostRecvAny(req *ch3.Request) {
	d.as.addAny(req)
}

// ShmMatchedAny implements ch3.NetBackend: the shared-memory path satisfied
// an ANY_SOURCE request, so its entry is removed from the pending lists and
// any requests queued behind a removed head become postable (§3.2.2).
func (d *Direct) ShmMatchedAny(req *ch3.Request) {
	l, wasHead := d.as.dropRequest(req)
	if l == nil {
		return
	}
	if wasHead && l.headPosted {
		// The probe path posts and completes in the same progress pass, so
		// a posted head can never still be visible to the shm path.
		panic("core: ANY_SOURCE head matched by shm after nmad post")
	}
	for _, r := range d.as.drainAfterDrop(l, wasHead) {
		d.postNmad(r)
	}
}

// Progress implements ch3.NetBackend: probe NewMadeleine for messages that
// could match a pending ANY_SOURCE head; when one has arrived, create the
// NewMadeleine request — it completes immediately since the message already
// sits in NewMadeleine's buffers — and promote the list.
func (d *Direct) Progress() (int, vtime.Duration) {
	events := 0
	var cost vtime.Duration
	i := 0
	for i < len(d.as.lists) {
		l := d.as.lists[i]
		if l.headPosted {
			// Head committed to a rendezvous still in flight.
			i++
			continue
		}
		head := l.queue[0]
		ctx, _, tag := head.MatchTriple()
		t, mask := probeTagMask(ctx, tag)
		gate, ok := d.nm.IProbe(t, mask)
		if !ok {
			cost += d.cfg.ASProbe
			i++
			continue
		}
		// Post the dynamic request. The matched message is committed to the
		// network source now, so the request leaves the CH3 posted queue
		// immediately (the shared-memory path must no longer match it).
		l.headPosted = true
		d.ASProbeHits++
		cost += d.cfg.ASCheck
		d.p.RemovePosted(head)
		list := l
		finish := func(r *nmad.Request) {
			d.deliver(r, head)
			head.Complete()
			for _, q := range d.as.popHead(list) {
				d.postNmad(q)
			}
		}
		rt, rmask := recvTagMask(ctx, gate.PeerRank, tag)
		nr := d.nm.IRecv(gate, rt, rmask, head.Buffer())
		events++
		// An eager message completes synchronously; a probed RTS completes
		// when the rendezvous payload lands.
		nr.SetOnComplete(finish)
		// Re-examine the same index: the list may have been removed or
		// promoted, and a new head may already have a buffered match.
	}
	return events, cost
}
