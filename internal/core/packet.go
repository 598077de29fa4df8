package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/ch3"
	"repro/internal/nmad"
	"repro/internal/pioman"
	"repro/internal/shmq"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// PacketConfig tunes a packet-style backend: network arrivals carry CH3
// packets that are matched centrally by the CH3 queues, the way classic
// Nemesis network modules (and the modeled baseline stacks) behave.
type PacketConfig struct {
	// EagerMax is the network eager/rendezvous threshold.
	EagerMax int
	// Pipeline chunks rendezvous data into fixed-size transfers (Open MPI
	// openib/MX BTL style); 0 sends the payload as one transfer.
	Pipeline int
	// RailIdx selects the rail (baselines are single-rail).
	RailIdx int
	// HeaderBytes is the wire size of a CH3 packet header.
	HeaderBytes int
	// PacketCost is the receiver-side handling cost per packet.
	PacketCost vtime.Duration
	// CopyOnSend charges an extra staging copy on the send path — the
	// queue-cell copies of §2.1.3 that the paper's bypass eliminates.
	CopyOnSend bool
}

func (c PacketConfig) withDefaults() PacketConfig {
	if c.EagerMax == 0 {
		c.EagerMax = 32 << 10
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 40
	}
	if c.PacketCost == 0 {
		c.PacketCost = 100
	}
	return c
}

// netPkt is one network packet, from its submission until the receiver's
// progress engine has handed it to CH3.
type netPkt struct {
	hdr     shmq.Header
	data    []byte
	consume vtime.Duration
	// bufs is the store an eager payload was bounce-copied from, which gets
	// it back once CH3 has handled the packet; nil when data is the
	// sender's memory (a rendezvous chunk).
	bufs *bufpool.Pool
	// handled marks a packet the receiver's Poll has handed to CH3; landed,
	// a rendezvous chunk the sender copied into the receive buffer before
	// that (SendRdvData).
	handled, landed bool
}

// Packet is a central-matching network backend over a raw simulated rail.
// It implements both ch3.NetBackend and pioman.Source.
type Packet struct {
	p    *ch3.Process
	e    *vtime.Engine
	cfg  PacketConfig
	rail *simnet.Rail
	node int
	mgr  *pioman.Manager

	peers []*Packet // by rank; nil for self/same-node

	inbox []*netPkt

	// Stats.
	PktsSent int64
	PktsRecv int64
}

// NewPacket builds the backend for p on the given node, using rail
// cfg.RailIdx of net. Peers must be linked with LinkPacketPeers after all
// backends exist.
func NewPacket(p *ch3.Process, e *vtime.Engine, net *simnet.Network, node int,
	mgr *pioman.Manager, cfg PacketConfig) *Packet {
	b := &Packet{
		p: p, e: e, cfg: cfg.withDefaults(),
		rail: net.Rail(cfg.RailIdx), node: node, mgr: mgr,
		peers: make([]*Packet, p.Size),
	}
	p.SetBackend(b)
	mgr.Register(b, pioman.ClassNet)
	return b
}

// LinkPacketPeers wires the remote-peer pointers of a set of backends
// (indexed by rank; entries for same-node pairs are ignored by traffic).
func LinkPacketPeers(backends []*Packet) {
	for _, b := range backends {
		if b == nil {
			continue
		}
		copy(b.peers, backends)
	}
}

// Name implements ch3.NetBackend.
func (b *Packet) Name() string { return "packet/" + b.rail.Params.Name }

// CentralMatching implements ch3.NetBackend.
func (b *Packet) CentralMatching() bool { return true }

// SourceName implements pioman.Source.
func (b *Packet) SourceName() string { return fmt.Sprintf("net[%d]", b.p.Rank) }

// Poll implements pioman.Source: drain arrived packets into CH3 matching.
func (b *Packet) Poll() (int, vtime.Duration) {
	events := 0
	var cost vtime.Duration
	for len(b.inbox) > 0 {
		pkt := b.inbox[0]
		b.inbox[0] = nil
		b.inbox = b.inbox[1:]
		pkt.handled = true
		events++
		b.PktsRecv++
		cost += pkt.consume + b.cfg.PacketCost
		if pkt.landed {
			cost += b.p.HandleLandedRdvData(pkt.hdr, len(pkt.data), netOrigin{b})
		} else {
			cost += b.p.HandleArrival(pkt.hdr, pkt.data, netOrigin{b})
		}
		if pkt.bufs != nil {
			pkt.bufs.Put(pkt.data)
		}
	}
	return events, cost
}

// Progress implements ch3.NetBackend (nothing beyond Poll for this backend).
func (b *Packet) Progress() (int, vtime.Duration) { return 0, 0 }

// PostRecv / PostRecvAny / ShmMatchedAny are no-ops: matching is central.
func (b *Packet) PostRecv(*ch3.Request)      {}
func (b *Packet) PostRecvAny(*ch3.Request)   {}
func (b *Packet) ShmMatchedAny(*ch3.Request) {}

// Isend implements ch3.NetBackend with the CH3 eager/rendezvous protocols.
func (b *Packet) Isend(proc *vtime.Proc, req *ch3.Request) {
	data := req.Data()
	ctx, _, tag := req.MatchTriple()
	if len(data) <= b.cfg.EagerMax {
		hdr := shmq.Header{Type: shmq.CellData, Src: int32(b.p.Rank), Tag: tag,
			Ctx: ctx, MsgLen: int64(len(data))}
		var extra vtime.Duration
		if b.cfg.CopyOnSend {
			extra = copyCostAt(len(data), b.p.ShmMemBW())
		}
		// Copy into a bounce buffer — the copy SubmitEager charges for — so
		// the send may complete at NIC drain and its sender reuse its
		// memory from then on, however late the receiver handles the packet.
		bufs := b.p.Bufs()
		pkt := &netPkt{hdr: hdr, data: bufs.Get(len(data)), bufs: bufs}
		copy(pkt.data, data)
		b.sendPacket(req.Dest(), pkt, extra, false, false, func() {
			if !req.Done() {
				req.Complete()
			}
		})
		return
	}
	cookie := b.p.RegisterRdvOut(req)
	hdr := shmq.Header{Type: shmq.CellRTS, Src: int32(b.p.Rank), Tag: tag,
		Ctx: ctx, MsgLen: int64(len(data)), ReqID: cookie}
	b.sendPacket(req.Dest(), &netPkt{hdr: hdr}, 0, false, false, nil)
}

// sendPacket submits one packet: host submission cost is deferred to the
// progress engine (PostTask), then the wire transfer runs. rdv selects the
// zero-copy (registration) cost model instead of the eager bounce copy.
func (b *Packet) sendPacket(dst int, pkt *netPkt,
	extraCost vtime.Duration, rdv, cachedReg bool, onSubmitted func()) {
	peer := b.peer(dst)
	size := b.cfg.HeaderBytes + len(pkt.data)
	var cost vtime.Duration
	if rdv {
		cost = b.rail.Params.SubmitRdv(size, cachedReg)
	} else {
		cost = b.rail.Params.SubmitEager(size)
	}
	cost += extraCost
	from, to := b.node, peer.node
	b.mgr.PostTask(pioman.Task{Cost: cost, Run: func() {
		b.PktsSent++
		b.rail.Transfer(from, to, size, pkt,
			func(d simnet.Delivery) {
				pkt.consume = d.ConsumeCost
				peer.inbox = append(peer.inbox, pkt)
				peer.mgr.Notify()
			})
		if onSubmitted != nil {
			// Send requests complete at local NIC completion (wire
			// drained), matching the Verbs/MX completion semantics.
			b.e.At(b.rail.TxIdleAt(from), func() {
				onSubmitted()
				b.mgr.Notify()
			})
		}
	}})
}

// peer returns the backend of rank dst.
func (b *Packet) peer(dst int) *Packet {
	peer := b.peers[dst]
	if peer == nil {
		panic(fmt.Sprintf("core[%d]: packet to unlinked rank %d", b.p.Rank, dst))
	}
	return peer
}

// netOrigin routes CH3 rendezvous replies back over the packet backend.
type netOrigin struct{ b *Packet }

func (o netOrigin) OriginName() string { return o.b.Name() }

func (o netOrigin) SendCTS(p *ch3.Process, dst int32, senderCookie, recvCookie uint64, granted int) vtime.Duration {
	hdr := shmq.Header{Type: shmq.CellCTS, Src: int32(p.Rank),
		ReqID: senderCookie, Offset: int64(recvCookie), MsgLen: int64(granted)}
	o.b.sendPacket(int(dst), &netPkt{hdr: hdr}, 0, false, false, nil)
	return 0
}

func (o netOrigin) SendRdvData(p *ch3.Process, req *ch3.Request, dst int32, recvCookie uint64, granted int) {
	data := req.Data()[:granted]
	chunk := o.b.cfg.Pipeline
	if chunk <= 0 || chunk > granted {
		chunk = granted
	}
	cached := o.b.rail.Params.RegCache
	var pkts []*netPkt
	for off := 0; off < granted; off += chunk {
		end := min(off+chunk, granted)
		pkts = append(pkts, &netPkt{hdr: shmq.Header{Type: shmq.CellRdvData, Src: int32(p.Rank),
			ReqID: recvCookie, Offset: int64(off), MsgLen: int64(granted)}, data: data[off:end]})
	}
	for i, pkt := range pkts {
		last := i == len(pkts)-1
		o.b.sendPacket(int(dst), pkt, 0, true, cached, func() {
			if last && !req.Done() {
				o.land(dst, pkts)
				req.Complete()
			}
		})
	}
	if len(pkts) == 0 && !req.Done() {
		req.Complete()
	}
}

// land copies every chunk the receiver has not handled yet straight into
// its receive buffer, at the drain of the last chunk — the event that
// completes the send, after which the sender may reuse its memory. Earlier
// chunks the receiver handles before then still read valid sender memory.
// No virtual time moves: rendezvous data lands by RDMA at no host cost
// either way, and a receive buffer is undefined until its request
// completes.
func (o netOrigin) land(dst int32, pkts []*netPkt) {
	peer := o.b.peer(int(dst))
	for _, pkt := range pkts {
		if !pkt.handled {
			buf := peer.p.RdvInReq(pkt.hdr.ReqID).Buffer()
			copy(buf[pkt.hdr.Offset:], pkt.data)
			pkt.landed = true
		}
	}
}

// DataCopyCost: rendezvous payloads land by RDMA into the user buffer.
func (netOrigin) DataCopyCost(*ch3.Process, int) vtime.Duration { return 0 }

func copyCostAt(n int, bw float64) vtime.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / bw * 1e9)
}

// ---- generic Nemesis network module over NewMadeleine ---------------------

// GenericNmad is the "plain network module" integration the paper argues
// against (§2.1.3): CH3 packets are shipped as NewMadeleine messages on a
// single channel tag, so CH3 keeps its own matching and rendezvous protocol
// — and a large CH3 rendezvous DATA message triggers NewMadeleine's internal
// rendezvous on top, producing the nested handshake of Fig. 2. It exists as
// the ablation baseline for the direct module.
type GenericNmad struct {
	p   *ch3.Process
	nm  *nmad.Core
	cfg PacketConfig

	scratch []byte

	PktsSent int64
	PktsRecv int64
}

// NewGenericNmad builds the module and starts its persistent channel
// receive.
func NewGenericNmad(p *ch3.Process, nm *nmad.Core, cfg PacketConfig) *GenericNmad {
	g := &GenericNmad{p: p, nm: nm, cfg: cfg.withDefaults()}
	g.scratch = make([]byte, g.cfg.EagerMax+headerWireBytes)
	p.SetBackend(g)
	g.repostChannel()
	return g
}

// headerWireBytes is the encoded size of a CH3 packet header on the channel.
const headerWireBytes = 44

func encodeHeader(h shmq.Header, dst []byte) {
	dst[0] = byte(h.Type)
	binary.LittleEndian.PutUint32(dst[1:], uint32(h.Src))
	binary.LittleEndian.PutUint32(dst[5:], uint32(h.Tag))
	binary.LittleEndian.PutUint32(dst[9:], uint32(h.Ctx))
	binary.LittleEndian.PutUint32(dst[13:], h.SeqNo)
	binary.LittleEndian.PutUint64(dst[17:], uint64(h.MsgLen))
	binary.LittleEndian.PutUint64(dst[25:], uint64(h.Offset))
	binary.LittleEndian.PutUint64(dst[33:], h.ReqID)
}

func decodeHeader(src []byte) shmq.Header {
	return shmq.Header{
		Type:   shmq.CellType(src[0]),
		Src:    int32(binary.LittleEndian.Uint32(src[1:])),
		Tag:    int32(binary.LittleEndian.Uint32(src[5:])),
		Ctx:    int32(binary.LittleEndian.Uint32(src[9:])),
		SeqNo:  binary.LittleEndian.Uint32(src[13:]),
		MsgLen: int64(binary.LittleEndian.Uint64(src[17:])),
		Offset: int64(binary.LittleEndian.Uint64(src[25:])),
		ReqID:  binary.LittleEndian.Uint64(src[33:]),
	}
}

func (g *GenericNmad) Name() string          { return "nemesis-generic-nmad" }
func (g *GenericNmad) CentralMatching() bool { return true }

func (g *GenericNmad) repostChannel() {
	buf := make([]byte, len(g.scratch))
	nr := g.nm.IRecv(nil, chanTagBit, maskFull, buf)
	nr.SetOnComplete(func(r *nmad.Request) {
		st := r.Status()
		hdr := decodeHeader(buf)
		payload := buf[headerWireBytes:st.Len]
		g.PktsRecv++
		cost := g.p.HandleArrival(hdr, payload, genOrigin{g})
		g.nm.Owe(cost)
		g.repostChannel()
	})
}

// Isend: wrap the CH3 packet (header + eager payload) as a NewMadeleine
// channel message; large messages use the CH3 rendezvous whose DATA message
// is itself a NewMadeleine message (the nested handshake).
func (g *GenericNmad) Isend(proc *vtime.Proc, req *ch3.Request) {
	data := req.Data()
	ctx, _, tag := req.MatchTriple()
	if len(data) <= g.cfg.EagerMax {
		hdr := shmq.Header{Type: shmq.CellData, Src: int32(g.p.Rank), Tag: tag,
			Ctx: ctx, MsgLen: int64(len(data))}
		g.sendChan(req.Dest(), hdr, data, func() {
			if !req.Done() {
				req.Complete()
			}
		})
		return
	}
	cookie := g.p.RegisterRdvOut(req)
	hdr := shmq.Header{Type: shmq.CellRTS, Src: int32(g.p.Rank), Tag: tag,
		Ctx: ctx, MsgLen: int64(len(data)), ReqID: cookie}
	g.sendChan(req.Dest(), hdr, nil, nil)
}

// sendChan marshals header+data into one channel message. The marshalling
// copy is the packet-staging copy the direct module avoids.
func (g *GenericNmad) sendChan(dst int, hdr shmq.Header, data []byte, onDone func()) {
	msg := make([]byte, headerWireBytes+len(data))
	encodeHeader(hdr, msg)
	copy(msg[headerWireBytes:], data)
	g.nm.Owe(copyCostAt(len(data), g.p.ShmMemBW()))
	g.PktsSent++
	nr := g.nm.ISend(g.nm.Gate(dst), chanTagBit, msg)
	if onDone != nil {
		nr.SetOnComplete(func(*nmad.Request) { onDone() })
	}
}

func (g *GenericNmad) PostRecv(*ch3.Request)      {}
func (g *GenericNmad) PostRecvAny(*ch3.Request)   {}
func (g *GenericNmad) ShmMatchedAny(*ch3.Request) {}

func (g *GenericNmad) Progress() (int, vtime.Duration) { return 0, 0 }

// genOrigin routes CH3 rendezvous replies over the channel; rendezvous data
// travels as a dedicated NewMadeleine message (nested protocol).
type genOrigin struct{ g *GenericNmad }

func (o genOrigin) OriginName() string { return "nemesis-generic-nmad" }

func (o genOrigin) SendCTS(p *ch3.Process, dst int32, senderCookie, recvCookie uint64, granted int) vtime.Duration {
	if granted > 0 {
		// Post the direct-into-user-buffer receive for the data message
		// BEFORE granting, so the payload never waits unexpected.
		req := p.RdvInReq(recvCookie)
		nr := o.g.nm.IRecv(o.g.nm.Gate(int(dst)), rdvTag(recvCookie), maskFull,
			req.Buffer()[:granted])
		cookie := recvCookie
		nr.SetOnComplete(func(*nmad.Request) { p.CompleteRdvIn(cookie) })
	}
	hdr := shmq.Header{Type: shmq.CellCTS, Src: int32(p.Rank),
		ReqID: senderCookie, Offset: int64(recvCookie), MsgLen: int64(granted)}
	o.g.sendChan(int(dst), hdr, nil, nil)
	return 0
}

func (o genOrigin) SendRdvData(p *ch3.Process, req *ch3.Request, dst int32, recvCookie uint64, granted int) {
	// One NewMadeleine message; if granted exceeds the library's own
	// rendezvous threshold this triggers the *internal* handshake on top of
	// the CH3 one — Fig. 2's nested handshakes.
	nr := o.g.nm.ISend(o.g.nm.Gate(int(dst)), rdvTag(recvCookie), req.Data()[:granted])
	nr.SetOnComplete(func(*nmad.Request) {
		if !req.Done() {
			req.Complete()
		}
	})
}

func (genOrigin) DataCopyCost(*ch3.Process, int) vtime.Duration { return 0 }
