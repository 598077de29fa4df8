package coll

import (
	"sort"
	"unsafe"

	"repro/internal/trace"
)

// This file expresses the collective algorithm set as *schedules*: per-rank
// programs of rounds, each round holding point-to-point transfers (send/recv
// prims) followed by local data movement (copy/reduce prims). The same
// schedule drives two executors:
//
//   - ExecBlocking walks the rounds synchronously over a PtPt substrate —
//     this is the classic blocking collective path and produces exactly the
//     SendT/RecvT/SendRecvT call sequence of the historical implementations;
//   - the nonblocking engine in internal/nbc issues a round's transfers as
//     nonblocking requests and advances to the next round from the progress
//     engine (PIOMan) when they complete, which is what lets a collective
//     overlap with computation (libNBC-style, progressed per §3.3).
//
// Rounds sequence only the *local* rank: matching between ranks is by
// (source, tag) as usual, so peers may run ahead by a round; their traffic
// waits in the unexpected queues until the local schedule catches up.

// PrimKind discriminates schedule primitives.
type PrimKind uint8

const (
	// PrimSend transfers Buf (or the memory of AccF64) to Peer.
	PrimSend PrimKind = iota
	// PrimRecv receives from Peer into Buf (or into the memory of AccF64).
	PrimRecv
	// PrimCopy copies Buf into Dst locally.
	PrimCopy
	// PrimReduce folds SrcF64 into AccF64 elementwise with Op.
	PrimReduce
	// PrimCopyF64 copies SrcF64 into AccF64 locally — the reduce-scatter
	// builders land result segments with it.
	PrimCopyF64
)

// Prim is one schedule primitive. Only the fields of its kind are set.
type Prim struct {
	Kind PrimKind
	// fold is Op as RunLocal dispatches it, resolved when Op is set.
	fold foldKind
	// Peer is the destination (send) or source (recv) rank.
	Peer int
	// AccF64 is a float64 vector whose memory is the wire format (see
	// f64View): a send transmits it as it stands at round start, a receive
	// lands in it, and for reduce/copyF64 it is the accumulator written in
	// place.
	AccF64 []float64
	// SrcF64 is the reduce input or copyF64 source vector.
	SrcF64 []float64
	// Buf is the byte operand: a send's static payload, captured at build
	// time; a receive's buffer; a copy's source.
	Buf []byte
	// Dst is the copy destination.
	Dst []byte
	// Op is the reduction operator.
	Op Op
	// Rail is the multirail placement hint of a send prim: 0 lets the
	// transport's strategy place the transfer (the default), k > 0 pins it
	// to rail k-1, and -w < 0 asks the transport to stripe the payload
	// across the first w rails (nmad forces the rendezvous path and
	// water-fills the bytes over those rails). The striped builders stamp
	// the negative form on large sends (see stripe.go); executors forward
	// the hint to the substrate, which may ignore it, so the hint never
	// changes what data moves — only which wires it moves on.
	Rail int
}

// Round is one schedule step: the transfers of Comm all complete before the
// Local prims run, and the next round starts only after both.
type Round struct {
	Comm  []Prim
	Local []Prim
}

// Schedule is one rank's compiled collective.
type Schedule struct {
	Rounds []Round
	// Key records what the schedule was compiled as (operation, algorithm,
	// segment size …). Build stamps it; observability layers read it to name
	// round and operation events. Zero for schedules built directly by a
	// Build* function.
	Key Key
}

// round appends and returns a fresh round.
func (s *Schedule) round() *Round {
	s.Rounds = append(s.Rounds, Round{})
	return &s.Rounds[len(s.Rounds)-1]
}

// f64View returns the memory of x as bytes. The wire format of a float
// vector is little-endian IEEE-754 (what F64Bytes encodes), which on a
// little-endian host is that memory, so float payloads travel without a
// codec; init refuses to start anywhere else.
func f64View(x []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 8*len(x))
}

func init() {
	if one := [1]float64{1}; f64View(one[:])[7] != 0x3f {
		panic("coll: float payloads are sent as host memory, which needs a little-endian host")
	}
}

// SendPayload returns a send prim's wire bytes — both executors send through
// here. A float send goes out as the vector's own memory, although later
// rounds and then the caller overwrite it: every transport has copied a
// payload by the time its send completes.
func SendPayload(pr *Prim) []byte {
	if pr.AccF64 == nil {
		return pr.Buf
	}
	return f64View(pr.AccF64)
}

// RecvBuf returns the bytes a receive prim lands in.
func RecvBuf(pr *Prim) []byte {
	if pr.AccF64 != nil {
		return f64View(pr.AccF64)
	}
	return pr.Buf
}

// foldKind is a reduction operator as RunLocal dispatches it: the standard
// operators run as direct loops, anything else through the Op call.
type foldKind uint8

const (
	foldCall foldKind = iota
	foldSum
	foldMax
	foldMin
)

// opID identifies a func value; copies of one func value share it.
func opID(op Op) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&op)) }

func foldOf(op Op) foldKind {
	switch opID(op) {
	case opID(OpSum):
		return foldSum
	case opID(OpMax):
		return foldMax
	case opID(OpMin):
		return foldMin
	}
	return foldCall
}

// RunLocal executes a local prim.
func RunLocal(pr *Prim) {
	switch pr.Kind {
	case PrimCopy:
		copy(pr.Dst, pr.Buf)
	case PrimCopyF64:
		copy(pr.AccF64, pr.SrcF64)
	case PrimReduce:
		acc, in := pr.AccF64, pr.SrcF64[:len(pr.AccF64)]
		switch pr.fold {
		case foldSum:
			for i, v := range in {
				acc[i] += v
			}
		case foldMax:
			for i, v := range in {
				if v > acc[i] {
					acc[i] = v
				}
			}
		case foldMin:
			for i, v := range in {
				if v < acc[i] {
					acc[i] = v
				}
			}
		default:
			for i, v := range in {
				acc[i] = pr.Op(acc[i], v)
			}
		}
	}
}

// ExecBlocking runs the schedule synchronously over p with the given tag,
// recording per-round trace slices on rec's rounds track (nil rec records
// nothing). A round holding exactly one send and one recv becomes a
// SendRecvT exchange (deadlock-free); otherwise sends are issued before
// receives.
func ExecBlocking(p PtPt, s *Schedule, tag int32, rec *trace.Recorder) {
	name := ""
	if rec.Enabled() {
		name = s.Key.Op.String() + "/" + s.Key.Algo.String()
	}
	for ri := range s.Rounds {
		start := rec.Now()
		rd := &s.Rounds[ri]
		var send, recv *Prim
		multi := false
		for i := range rd.Comm {
			pr := &rd.Comm[i]
			if pr.Kind == PrimSend {
				if send != nil {
					multi = true
				}
				send = pr
			} else {
				if recv != nil {
					multi = true
				}
				recv = pr
			}
		}
		if !multi && send != nil && recv != nil {
			p.SendRecvT(send.Peer, SendPayload(send), recv.Peer, RecvBuf(recv), tag, send.Rail)
		} else {
			for i := range rd.Comm {
				if pr := &rd.Comm[i]; pr.Kind == PrimSend {
					p.SendT(pr.Peer, tag, SendPayload(pr), pr.Rail)
				}
			}
			for i := range rd.Comm {
				if pr := &rd.Comm[i]; pr.Kind == PrimRecv {
					p.RecvT(pr.Peer, tag, RecvBuf(pr))
				}
			}
		}
		for i := range rd.Local {
			RunLocal(&rd.Local[i])
		}
		rec.Complete("round", name, trace.TidRounds, start,
			trace.Int64("round", int64(ri)))
	}
}

// ---- prim constructors -----------------------------------------------------

func sendP(peer int, data []byte) Prim   { return Prim{Kind: PrimSend, Peer: peer, Buf: data} }
func sendF64(peer int, x []float64) Prim { return Prim{Kind: PrimSend, Peer: peer, AccF64: x} }
func recvP(peer int, buf []byte) Prim    { return Prim{Kind: PrimRecv, Peer: peer, Buf: buf} }
func recvF64(peer int, x []float64) Prim { return Prim{Kind: PrimRecv, Peer: peer, AccF64: x} }
func copyP(dst, src []byte) Prim         { return Prim{Kind: PrimCopy, Dst: dst, Buf: src} }
func copyF64P(dst, src []float64) Prim   { return Prim{Kind: PrimCopyF64, AccF64: dst, SrcF64: src} }
func reduceP(x, in []float64, op Op) Prim {
	return Prim{Kind: PrimReduce, AccF64: x, SrcF64: in[:len(x)], Op: op, fold: foldOf(op)}
}

// ---- flat builders (the classic MPICH2 algorithm set) ----------------------

// BuildBarrier compiles a dissemination barrier: ceil(log2(n)) rounds of
// zero-byte exchanges.
func BuildBarrier(rank, size int) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	for k := 1; k < size; k <<= 1 {
		rd := s.round()
		rd.Comm = append(rd.Comm,
			sendP((rank+k)%size, nil),
			recvP((rank-k+size)%size, nil))
	}
	return s
}

// BuildBcast compiles a binomial-tree broadcast of data (in place) from root.
func BuildBcast(rank, size, root int, data []byte) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	binomialBcastBytes(s, identGroup(size), root, rank, data)
	return s
}

// BuildReduce compiles a binomial-tree reduction of x into root's x over
// relative ranks. The operator must be commutative.
func BuildReduce(rank, size, root int, x []float64, op Op) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	binomialReduce(s, identGroup(size), root, rank, x, op)
	return s
}

// BuildAllreduce compiles recursive doubling with the standard pre/post
// phases for non-power-of-two sizes. The operator must be commutative.
func BuildAllreduce(rank, size int, x []float64, op Op) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	rdAllreduce(s, identGroup(size), rank, x, op)
	return s
}

// BuildAllgather compiles the ring allgather: out[r] receives rank r's block.
func BuildAllgather(rank, size int, mine []byte, out [][]byte) *Schedule {
	s := &Schedule{}
	rd := s.round()
	rd.Local = append(rd.Local, copyP(out[rank], mine))
	if size == 1 {
		return s
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sendIdx := (rank - step + size) % size
		recvIdx := (rank - step - 1 + size) % size
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(right, out[sendIdx]), recvP(left, out[recvIdx]))
	}
	return s
}

// BuildAlltoall compiles the pairwise-exchange alltoall (XOR pattern for
// power-of-two sizes, rotated shifts otherwise).
func BuildAlltoall(rank, size int, send, recv [][]byte) *Schedule {
	s := &Schedule{}
	rd := s.round()
	rd.Local = append(rd.Local, copyP(recv[rank], send[rank]))
	if size == 1 {
		return s
	}
	if size&(size-1) == 0 {
		for i := 1; i < size; i++ {
			partner := rank ^ i
			rd := s.round()
			rd.Comm = append(rd.Comm, sendP(partner, send[partner]), recvP(partner, recv[partner]))
		}
		return s
	}
	for i := 1; i < size; i++ {
		dst := (rank + i) % size
		src := (rank - i + size) % size
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(dst, send[dst]), recvP(src, recv[src]))
	}
	return s
}

// BuildGather compiles the linear gather at root (out[r] filled on root only).
func BuildGather(rank, size, root int, mine []byte, out [][]byte) *Schedule {
	s := &Schedule{}
	if rank == root {
		rd := s.round()
		rd.Local = append(rd.Local, copyP(out[rank], mine))
		if size == 1 {
			return s
		}
		crd := s.round()
		for r := 0; r < size; r++ {
			if r != root {
				crd.Comm = append(crd.Comm, recvP(r, out[r]))
			}
		}
		return s
	}
	rd := s.round()
	rd.Comm = append(rd.Comm, sendP(root, mine))
	return s
}

// ---- group-relative building blocks ----------------------------------------

// Group is an ordered set of ranks a schedule fragment runs over. The
// log-depth builders only ever look up their own position plus O(log n)
// peers, so a group must not force an O(n) materialization: the whole
// communicator is the O(1) identGroup, and only genuinely irregular groups
// (per-node locals, leader sets) pay for a backing slice.
type Group interface {
	// Len is the number of member ranks.
	Len() int
	// At returns the member rank at position i.
	At(i int) int
	// Index returns the position of rank, or -1 when rank is not a member.
	Index(rank int) int
}

// identGroup is the group [0, 1, ..., n-1] with O(1) storage and lookups —
// what every flat (whole-communicator) builder runs over.
type identGroup int

func (g identGroup) Len() int     { return int(g) }
func (g identGroup) At(i int) int { return i }
func (g identGroup) Index(rank int) int {
	if rank < 0 || rank >= int(g) {
		return -1
	}
	return rank
}

// sliceGroup adapts an explicit rank list (leaders, one node's locals).
type sliceGroup []int

func (g sliceGroup) Len() int           { return len(g) }
func (g sliceGroup) At(i int) int       { return g[i] }
func (g sliceGroup) Index(rank int) int { return indexIn(g, rank) }

// indexIn returns the position of rank in group, or -1.
func indexIn(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	return -1
}

// binomialBcast appends rank me's rounds of a binomial broadcast over the
// ranks of group, rooted at group member root. mkSend builds the forwarding
// prim toward a peer; mkRecv builds the receive prim (plus optional local
// prims to run after it). Ranks outside group get no rounds. Work and
// schedule size are O(log |group|) plus the cost of two Index lookups.
func binomialBcast(s *Schedule, group Group, root, me int,
	mkSend func(peer int) Prim, mkRecv func(peer int) (Prim, []Prim)) {

	m := group.Len()
	idx := group.Index(me)
	rootIdx := group.Index(root)
	if idx < 0 || m <= 1 {
		return
	}
	vr := (idx - rootIdx + m) % m
	mask := 1
	for mask < m {
		if vr&mask != 0 {
			src := group.At((vr - mask + rootIdx + m) % m)
			rd := s.round()
			pr, locals := mkRecv(src)
			rd.Comm = append(rd.Comm, pr)
			rd.Local = append(rd.Local, locals...)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < m {
			dst := group.At((vr + mask + rootIdx) % m)
			rd := s.round()
			rd.Comm = append(rd.Comm, mkSend(dst))
		}
		mask >>= 1
	}
}

// binomialBcastBytes broadcasts a byte buffer (in place) over group from
// root: receivers land directly in data and forward the same buffer.
func binomialBcastBytes(s *Schedule, group Group, root, me int, data []byte) {
	binomialBcast(s, group, root, me, func(peer int) Prim {
		return sendP(peer, data)
	}, func(peer int) (Prim, []Prim) {
		return recvP(peer, data), nil
	})
}

// binomialBcastF64 broadcasts the float64 vector x over group from root:
// receivers land in x and forward it, so intermediate tree nodes relay what
// they received.
func binomialBcastF64(s *Schedule, group Group, root, me int, x []float64) {
	binomialBcast(s, group, root, me, func(peer int) Prim {
		return sendF64(peer, x)
	}, func(peer int) (Prim, []Prim) {
		return recvF64(peer, x), nil
	})
}

// binomialReduce appends rank me's rounds of a binomial-tree reduction of x
// into group-member root's x (clobbered elsewhere). Commutative op only.
func binomialReduce(s *Schedule, group Group, root, me int, x []float64, op Op) {
	m := group.Len()
	idx := group.Index(me)
	rootIdx := group.Index(root)
	if idx < 0 || m <= 1 {
		return
	}
	vr := (idx - rootIdx + m) % m
	rbuf := make([]float64, len(x))
	mask := 1
	for mask < m {
		if vr&mask == 0 {
			src := vr | mask
			if src < m {
				rd := s.round()
				rd.Comm = append(rd.Comm, recvF64(group.At((src+rootIdx)%m), rbuf))
				rd.Local = append(rd.Local, reduceP(x, rbuf, op))
			}
		} else {
			dst := group.At(((vr &^ mask) + rootIdx) % m)
			rd := s.round()
			rd.Comm = append(rd.Comm, sendF64(dst, x))
			return
		}
		mask <<= 1
	}
}

// rdAllreduce appends rank me's rounds of a recursive-doubling allreduce of x
// over group, with the standard pre/post phases when the group size is not a
// power of two. Commutative op only.
func rdAllreduce(s *Schedule, group Group, me int, x []float64, op Op) {
	m := group.Len()
	idx := group.Index(me)
	if idx < 0 || m <= 1 {
		return
	}
	pof2 := 1
	for pof2*2 <= m {
		pof2 *= 2
	}
	rem := m - pof2
	rbuf := make([]float64, len(x))

	newrank := -1
	switch {
	case idx < 2*rem && idx%2 == 0:
		rd := s.round()
		rd.Comm = append(rd.Comm, sendF64(group.At(idx+1), x))
	case idx < 2*rem:
		rd := s.round()
		rd.Comm = append(rd.Comm, recvF64(group.At(idx-1), rbuf))
		rd.Local = append(rd.Local, reduceP(x, rbuf, op))
		newrank = idx / 2
	default:
		newrank = idx - rem
	}

	if newrank != -1 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := newrank ^ mask
			var real int
			if partner < rem {
				real = partner*2 + 1
			} else {
				real = partner + rem
			}
			rd := s.round()
			rd.Comm = append(rd.Comm, sendF64(group.At(real), x), recvF64(group.At(real), rbuf))
			rd.Local = append(rd.Local, reduceP(x, rbuf, op))
		}
	}

	if idx < 2*rem {
		rd := s.round()
		if idx%2 == 0 {
			rd.Comm = append(rd.Comm, recvF64(group.At(idx+1), x))
		} else {
			rd.Comm = append(rd.Comm, sendF64(group.At(idx-1), x))
		}
	}
}

// ---- topology-aware two-level builders --------------------------------------
//
// The two-level variants split a collective into an intra-node phase over the
// shared-memory channel and an inter-node phase among per-node leaders over
// the network rails, following the placement of ranks onto nodes. They shine
// when several ranks share a node: only one rank per node touches the NIC.

// leadersOf returns one leader rank per populated node (ascending node id)
// and the local rank group of rank's own node. When root >= 0 and shares a
// node with rank's view of the placement, root is promoted to leader of its
// node so rooted operations need no extra hop. Node ids only need to be
// comparable, not dense: hierarchical placements encode rack/switch position
// in the id, leaving large gaps, and a scan over the id range would turn a
// 4-node map into millions of iterations. Only populated ids are visited.
func leadersOf(nodes []int, root int) (leaders []int, byNode map[int][]int) {
	byNode = make(map[int][]int)
	ids := make([]int, 0, 16)
	for r, n := range nodes {
		if _, ok := byNode[n]; !ok {
			ids = append(ids, n)
		}
		byNode[n] = append(byNode[n], r)
	}
	sort.Ints(ids)
	leaders = make([]int, 0, len(ids))
	for _, n := range ids {
		leaders = append(leaders, leaderFor(nodes, byNode, root, byNode[n][0]))
	}
	return leaders, byNode
}

// leaderFor returns the leader of rank's node under the same promotion rule
// leadersOf applies — the single site defining leader election.
func leaderFor(nodes []int, byNode map[int][]int, root, rank int) int {
	if root >= 0 && nodes[root] == nodes[rank] {
		return root
	}
	return byNode[nodes[rank]][0]
}

// BuildBarrierTwoLevel compiles a hierarchical barrier: locals check in with
// their node leader over shared memory, leaders run a dissemination barrier
// over the network, then leaders release their locals.
func BuildBarrierTwoLevel(rank int, nodes []int) *Schedule {
	s := &Schedule{}
	size := len(nodes)
	if size == 1 {
		return s
	}
	leaders, byNode := leadersOf(nodes, -1)
	local := byNode[nodes[rank]]
	lead := leaderFor(nodes, byNode, -1, rank)

	if rank != lead {
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(lead, nil))
	} else if len(local) > 1 {
		rd := s.round()
		for _, r := range local {
			if r != lead {
				rd.Comm = append(rd.Comm, recvP(r, nil))
			}
		}
	}

	if rank == lead && len(leaders) > 1 {
		li := indexIn(leaders, lead)
		m := len(leaders)
		for k := 1; k < m; k <<= 1 {
			rd := s.round()
			rd.Comm = append(rd.Comm,
				sendP(leaders[(li+k)%m], nil),
				recvP(leaders[(li-k+m)%m], nil))
		}
	}

	if rank != lead {
		rd := s.round()
		rd.Comm = append(rd.Comm, recvP(lead, nil))
	} else if len(local) > 1 {
		rd := s.round()
		for _, r := range local {
			if r != lead {
				rd.Comm = append(rd.Comm, sendP(r, nil))
			}
		}
	}
	return s
}

// BuildBcastTwoLevelStriped compiles a hierarchical broadcast: root feeds
// the per-node leaders with a binomial tree over the network, each leader
// then broadcasts over shared memory inside its node. The inter-node
// (leader tree) sends are dealt across rails — parallel tree edges out of
// one leader ride different rails. The intra-node phase runs over shared
// memory and is never striped. The zero Striping compiles the unstriped
// schedule.
func BuildBcastTwoLevelStriped(rank int, nodes []int, root int, data []byte, st Striping) *Schedule {
	s := &Schedule{}
	if len(nodes) == 1 {
		return s
	}
	leaders, byNode := leadersOf(nodes, root)
	binomialBcastBytes(s, sliceGroup(leaders), root, rank, data)
	stampRails(s, 0, st)
	local := byNode[nodes[rank]]
	binomialBcastBytes(s, sliceGroup(local), leaderFor(nodes, byNode, root, rank), rank, data)
	return s
}

// BuildAllreduceTwoLevelStriped compiles a hierarchical allreduce:
// binomial reduce to the node leader over shared memory,
// recursive-doubling allreduce among leaders over the network, binomial
// broadcast of the result back over shared memory. Commutative op only.
// The inter-node (leader allreduce) sends are dealt across rails; the
// intra-node reduce and broadcast phases run over shared memory and are
// never striped. The zero Striping compiles the unstriped schedule.
func BuildAllreduceTwoLevelStriped(rank int, nodes []int, x []float64, op Op, st Striping) *Schedule {
	s := &Schedule{}
	if len(nodes) == 1 {
		return s
	}
	leaders, byNode := leadersOf(nodes, -1)
	local := byNode[nodes[rank]]
	lead := leaderFor(nodes, byNode, -1, rank)
	binomialReduce(s, sliceGroup(local), lead, rank, x, op)
	interLo := len(s.Rounds)
	rdAllreduce(s, sliceGroup(leaders), rank, x, op)
	stampRails(s, interLo, st)
	binomialBcastF64(s, sliceGroup(local), lead, rank, x)
	return s
}
