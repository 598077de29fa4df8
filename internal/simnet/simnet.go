// Package simnet simulates high-performance network rails (Infiniband,
// Myrinet/MX, TCP) between cluster nodes in virtual time.
//
// The model separates, per message:
//
//   - host submission work (memory registration, copies into pinned buffers,
//     doorbells, chunk pacing) — consumed as CPU time by the *caller*, which
//     is what lets progress engines matter: a stack without a background
//     progress thread performs this work only inside MPI calls;
//   - wire occupancy — each NIC serializes outgoing bytes (txBusy) and each
//     receiving NIC serializes incoming bytes (rxBusy), giving first-order
//     contention when several flows share a NIC;
//   - one-way latency — a constant per rail.
//
// Parameters are calibrated so the endpoints match the numbers reported in
// §4.1 of the paper (see package cluster for the presets).
package simnet

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/vtime"
)

// RailParams describes one network technology instance.
type RailParams struct {
	Name string
	// Latency is the one-way 0-byte wire+driver latency.
	Latency vtime.Duration
	// BytesPerSec is the peak wire bandwidth.
	BytesPerSec float64
	// PerMsgHost is the fixed host CPU cost to submit one packet
	// (descriptor build + doorbell).
	PerMsgHost vtime.Duration
	// HostCopyBW is the bounce-buffer copy bandwidth for eager submissions
	// (bytes/sec); eager payloads are staged through pre-registered buffers.
	HostCopyBW float64
	// ChunkBytes is the registration granularity for zero-copy rendezvous
	// submissions.
	ChunkBytes int
	// PerChunkHost is the host CPU cost to register one chunk for a
	// zero-copy (rendezvous) transfer.
	PerChunkHost vtime.Duration
	// RegCache, when true, models a registration cache: repeated sends from
	// the same buffer skip the per-chunk registration cost. MVAPICH2 uses
	// one; NewMadeleine registers dynamically on the fly (§4.1.1).
	RegCache bool
	// RecvPerMsgHost is the fixed receiver-side CPU cost to consume a packet.
	RecvPerMsgHost vtime.Duration
	// MaxPacket caps a single wire packet; larger submissions must be split
	// by the caller. Zero means unlimited.
	MaxPacket int
	// Hier holds the incremental cost of crossing each interconnect tier of
	// a hierarchical machine, innermost tier first (switch, then rack, ...).
	// A transfer between nodes at topology distance d pays the first d
	// entries on top of the base Latency/BytesPerSec. Empty means the rail
	// behaves as a single flat switch regardless of the node map.
	Hier []LevelCost
}

// LevelCost is the cost of crossing one interconnect tier: added one-way
// latency, and an effective-bandwidth multiplier modelling oversubscription
// of the uplinks (0 means 1.0, i.e. full bisection at that tier).
type LevelCost struct {
	ExtraLatency vtime.Duration
	BWFactor     float64
}

// Validate reports whether the parameters are usable.
func (rp RailParams) Validate() error {
	if rp.Name == "" {
		return fmt.Errorf("simnet: rail with empty name")
	}
	if rp.Latency <= 0 {
		return fmt.Errorf("simnet: rail %s: non-positive latency", rp.Name)
	}
	if rp.BytesPerSec <= 0 {
		return fmt.Errorf("simnet: rail %s: non-positive bandwidth", rp.Name)
	}
	if rp.ChunkBytes <= 0 {
		return fmt.Errorf("simnet: rail %s: non-positive chunk size", rp.Name)
	}
	for i, lc := range rp.Hier {
		if lc.ExtraLatency < 0 {
			return fmt.Errorf("simnet: rail %s: negative extra latency at tier %d", rp.Name, i)
		}
		if lc.BWFactor < 0 || lc.BWFactor > 1 {
			return fmt.Errorf("simnet: rail %s: bandwidth factor %g at tier %d outside (0, 1]",
				rp.Name, lc.BWFactor, i)
		}
	}
	return nil
}

// pathCost returns the one-way latency and effective bandwidth of a path
// crossing the first d hierarchy tiers.
func (rp RailParams) pathCost(d int) (vtime.Duration, float64) {
	lat, bw := rp.Latency, rp.BytesPerSec
	if d > len(rp.Hier) {
		d = len(rp.Hier)
	}
	for i := 0; i < d; i++ {
		lat += rp.Hier[i].ExtraLatency
		if f := rp.Hier[i].BWFactor; f > 0 {
			bw *= f
		}
	}
	return lat, bw
}

// WireTime returns the serialization time of size bytes at full bandwidth.
func (rp RailParams) WireTime(size int) vtime.Duration {
	if size <= 0 {
		return 0
	}
	return vtime.Duration(float64(size) / rp.BytesPerSec * 1e9)
}

// SubmitEager returns the host CPU cost of an eager submission: fixed
// per-message work plus the copy into a pre-registered bounce buffer.
func (rp RailParams) SubmitEager(size int) vtime.Duration {
	cost := rp.PerMsgHost
	if size > 0 && rp.HostCopyBW > 0 {
		cost += vtime.Duration(float64(size) / rp.HostCopyBW * 1e9)
	}
	return cost
}

// SubmitRdv returns the host CPU cost of a zero-copy rendezvous submission:
// fixed per-message work plus dynamic registration of each chunk, unless the
// registration cache holds the buffer.
func (rp RailParams) SubmitRdv(size int, cached bool) vtime.Duration {
	if cached && rp.RegCache {
		return rp.PerMsgHost
	}
	chunks := 0
	if size > 0 {
		chunks = (size + rp.ChunkBytes - 1) / rp.ChunkBytes
	}
	return rp.PerMsgHost + vtime.Duration(chunks)*rp.PerChunkHost
}

// EstimateXfer is the sampling estimate of the end-to-end one-way transfer
// time for size bytes on an idle rail: latency plus wire time. This is the
// quantity NewMadeleine's network sampling precomputes to derive multirail
// split ratios (§2.2, [4]).
func (rp RailParams) EstimateXfer(size int) vtime.Duration {
	return rp.Latency + rp.WireTime(size)
}

// nic tracks the occupancy of one endpoint of a rail on one node.
type nic struct {
	txBusy vtime.Time
	rxBusy vtime.Time
}

// Rail is an instantiated network: one NIC per node, a shared event engine.
type Rail struct {
	Params RailParams
	ID     int
	e      *vtime.Engine
	nics   []nic
	// dist maps a node pair to its topology distance (crossed tiers); nil
	// means flat (distance 0 everywhere).
	dist func(from, to int) int
	// free holds the landed in-flight records for reuse; it fills only from
	// transfers that completed, so its size is the rail's peak in-flight count.
	free bufpool.List[inflight]
	// Stats
	Packets   int64
	BytesSent int64
}

// Network is the set of rails connecting the nodes of a cluster.
type Network struct {
	e     *vtime.Engine
	rails []*Rail
}

// SetDistance installs the node-pair topology distance function on every
// rail — the hook mpi.Run wires a hierarchical cluster's
// topo.Hierarchy.Distance into. Rails whose params carry no Hier costs are
// unaffected; nil restores the flat interpretation.
func (n *Network) SetDistance(dist func(from, to int) int) {
	for _, r := range n.rails {
		r.dist = dist
	}
}

// New instantiates a network with one NIC per (rail, node).
func New(e *vtime.Engine, numNodes int, params ...RailParams) (*Network, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("simnet: %d nodes", numNodes)
	}
	n := &Network{e: e}
	for i, rp := range params {
		if err := rp.Validate(); err != nil {
			return nil, err
		}
		n.rails = append(n.rails, &Rail{Params: rp, ID: i, e: e, nics: make([]nic, numNodes)})
	}
	return n, nil
}

// Rails returns the rails in declaration order.
func (n *Network) Rails() []*Rail { return n.rails }

// Rail returns rail i.
func (n *Network) Rail(i int) *Rail { return n.rails[i] }

// Delivery carries an arrived wire packet to its consumer callback.
type Delivery struct {
	Rail     *Rail
	From, To int // nodes
	Size     int
	Payload  interface{}
	// ConsumeCost is the receiver host CPU cost to drain this packet from
	// the NIC; progress engines charge it when they pick the packet up.
	ConsumeCost vtime.Duration
}

// inflight is one packet on the wire: what Transfer hands the engine instead
// of a closure per packet. land is bound to fire once, when the record is
// first allocated.
type inflight struct {
	rail *Rail
	d    Delivery
	fn   func(Delivery)
	fire func()
}

// land runs in engine context when the last byte reaches the destination
// NIC: the record goes back to the rail (payload reference dropped) before
// the consumer runs, which may itself start transfers.
func (f *inflight) land() {
	d, fn := f.d, f.fn
	f.d, f.fn = Delivery{}, nil
	f.rail.free.Put(f)
	fn(d)
}

// Transfer places size bytes on the wire from node `from` to node `to`.
// The caller is responsible for charging host submission cost *before*
// calling Transfer (see RailParams.SubmitCost). onDelivered runs in engine
// context at the virtual time the last byte reaches the destination NIC.
//
// Occupancy model: the sending NIC serializes outgoing packets; the
// receiving NIC serializes incoming packets. For a single uncontended flow
// delivery = start + latency + wire(size); concurrent flows queue.
func (r *Rail) Transfer(from, to, size int, payload interface{}, onDelivered func(Delivery)) {
	if from == to {
		panic("simnet: self-transfer over a network rail")
	}
	if r.Params.MaxPacket > 0 && size > r.Params.MaxPacket {
		panic(fmt.Sprintf("simnet: packet of %d bytes exceeds rail %s max %d",
			size, r.Params.Name, r.Params.MaxPacket))
	}
	now := r.e.Now()
	tx := &r.nics[from]
	rx := &r.nics[to]
	lat, bw := r.Params.Latency, r.Params.BytesPerSec
	if r.dist != nil && len(r.Params.Hier) > 0 {
		lat, bw = r.Params.pathCost(r.dist(from, to))
	}
	wire := vtime.Duration(0)
	if size > 0 {
		wire = vtime.Duration(float64(size) / bw * 1e9)
	}

	start := now
	if tx.txBusy > start {
		start = tx.txBusy
	}
	tx.txBusy = start.Add(wire)

	headArrive := start.Add(lat)
	if rx.rxBusy > headArrive {
		headArrive = rx.rxBusy
	}
	deliver := headArrive.Add(wire)
	rx.rxBusy = deliver

	r.Packets++
	r.BytesSent += int64(size)

	f := r.free.Get()
	if f == nil {
		r.free.Made()
		f = &inflight{rail: r}
		f.fire = f.land
	}
	f.d = Delivery{
		Rail: r, From: from, To: to, Size: size, Payload: payload,
		ConsumeCost: r.Params.RecvPerMsgHost,
	}
	f.fn = onDelivered
	r.e.At(deliver, f.fire)
}

// TxIdleAt reports the earliest time node's NIC can begin a new transmission.
func (r *Rail) TxIdleAt(node int) vtime.Time { return r.nics[node].txBusy }

// Busy reports whether the node's transmit side is occupied at the current
// virtual time. NewMadeleine's strategies consult this to decide whether to
// submit immediately or accumulate packets for optimization (§2.2).
func (r *Rail) Busy(node int) bool { return r.nics[node].txBusy > r.e.Now() }

// SamplePoint is one entry of a rail's sampling table.
type SamplePoint struct {
	Size int
	Xfer vtime.Duration
}

// SampleTable returns the transfer-time estimates for a standard ladder of
// sizes, emulating NewMadeleine's startup network sampling pass.
func (r *Rail) SampleTable() []SamplePoint {
	var pts []SamplePoint
	for size := 1; size <= 64<<20; size *= 2 {
		pts = append(pts, SamplePoint{Size: size, Xfer: r.Params.EstimateXfer(size)})
	}
	return pts
}
