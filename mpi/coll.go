package mpi

import (
	"fmt"
	"unsafe"

	"repro/internal/ch3"
	"repro/internal/coll"
	"repro/internal/nbc"
	"repro/internal/vtime"
)

// Collectives compile to per-rank schedules through the internal/coll
// registry: coll.KeyFor selects the algorithm from payload size, rank count
// and topology (binomial vs scatter-allgather broadcast, recursive doubling
// vs Rabenseifner allreduce, Bruck vs ring allgather, flat vs two-level),
// and the per-communicator schedule cache reuses the compiled schedule when
// the same shape repeats — persistent-collective semantics: compile once,
// rebind buffers, re-execute. Blocking and nonblocking paths share both the
// selection and the cache.

// Per-operation tags on the blocking-collective context.
const (
	tagBarrier int32 = iota
	tagBcast
	tagAllreduce
	tagReduce
	tagAllgather
	tagAlltoall
	tagGather
	tagScatter
	tagAlltoallv
	tagAllgatherv
	tagGatherv
	tagScatterv
	tagReduceScatter
)

// SendT / RecvT / SendRecvT implement coll.PtPt on the collective context.
func (c *Comm) SendT(dst int, tag int32, data []byte) {
	if dst == c.rank {
		panic("mpi: collective self-send")
	}
	c.finishT(c.p.Isend(c.proc, c.world(dst), tag, c.collCtx, data))
}

// RecvT receives on the collective context.
func (c *Comm) RecvT(src int, tag int32, buf []byte) int {
	return c.finishT(c.p.Irecv(c.proc, c.world(src), tag, c.collCtx, buf))
}

// SendRecvT performs a concurrent exchange on the collective context.
func (c *Comm) SendRecvT(dst int, sdata []byte, src int, rbuf []byte, tag int32) int {
	rr := c.p.Irecv(c.proc, c.world(src), tag, c.collCtx, rbuf)
	sr := c.p.Isend(c.proc, c.world(dst), tag, c.collCtx, sdata)
	return c.finishExchangeT(sr, rr)
}

// finishT waits for one blocking-collective transfer, hands its CH3 request
// back to the free list and returns the received length (0 for a send).
func (c *Comm) finishT(r *ch3.Request) int {
	c.mgr.WaitUntil(c.proc, r.DoneFunc())
	n := r.Stat.Len
	c.p.Release(r)
	return n
}

// finishExchangeT is finishT for a concurrent send/receive pair.
func (c *Comm) finishExchangeT(sr, rr *ch3.Request) int {
	c.waitPair(sr, rr)
	n := rr.Stat.Len
	c.p.Release(sr)
	c.p.Release(rr)
	return n
}

// waitPair blocks until both requests of a blocking exchange complete, in
// ONE progress-regime wait (two sequential waits would poll differently and
// move virtual time). A blocking communicator has one exchange outstanding,
// so the predicate is bound once to two request fields instead of built
// per call.
func (c *Comm) waitPair(sr, rr *ch3.Request) {
	if c.pairDone == nil {
		c.pairDone = func() bool { return c.pairRecv.Done() && c.pairSend.Done() }
	}
	c.pairSend, c.pairRecv = sr, rr
	c.mgr.WaitUntil(c.proc, c.pairDone)
	c.pairSend, c.pairRecv = nil, nil
}

// SendRailT / SendRecvRailT implement coll.RailPtPt: the striped schedules'
// rail hints ride the CH3 request into the backend (rail encoding as on
// coll.Prim.Rail — 0 auto, k > 0 pins rail k-1; shared-memory and
// single-rail paths ignore it).
func (c *Comm) SendRailT(dst int, tag int32, data []byte, rail int) {
	if dst == c.rank {
		panic("mpi: collective self-send")
	}
	c.finishT(c.p.IsendRail(c.proc, c.world(dst), tag, c.collCtx, data, rail))
}

// SendRecvRailT performs a concurrent exchange whose send half carries a
// rail placement hint.
func (c *Comm) SendRecvRailT(dst int, sdata []byte, src int, rbuf []byte, tag int32, rail int) int {
	rr := c.p.Irecv(c.proc, c.world(src), tag, c.collCtx, rbuf)
	sr := c.p.IsendRail(c.proc, c.world(dst), tag, c.collCtx, sdata, rail)
	return c.finishExchangeT(sr, rr)
}

// twoLevelApplies reports whether the topology-aware hierarchical variants
// apply to a communicator with the given node map: requested by config,
// placement known, and at least one node hosting several of the
// communicator's ranks. Computed once per communicator (group and config
// are immutable) and cached in Comm.twoLvl.
func twoLevelApplies(cfg *Config, nodes []int) bool {
	if !cfg.TwoLevelColl || nodes == nil {
		return false
	}
	counts := make(map[int]int, len(nodes))
	for _, n := range nodes {
		counts[n]++
		if counts[n] > 1 {
			return true
		}
	}
	return false
}

// keyFor completes a with the communicator's rank, size and topology,
// selects the algorithm and copies the shape KeyFor resolved — pipeline
// segment size and rail-stripe width, zero where the algorithm has neither —
// back into a, with the rail capacities the stripe assigner weighs.
func (c *Comm) keyFor(op coll.OpKind, a *coll.Args) coll.Key {
	a.Rank, a.Size = c.rank, len(c.group)
	if c.twoLvl {
		a.Nodes = c.nodes
	}
	a.Sigs = &c.ensureCache().sigs
	key := coll.KeyFor(&c.cfg.Coll, op, *a, a.Nodes != nil)
	a.Seg = key.Seg
	if key.Stripe > 0 {
		a.Stripe = key.Stripe
		a.Rails = c.cfg.Coll.Rails
	}
	return key
}

// sched selects the algorithm, then compiles or rebinds the schedule via the
// per-communicator cache. The returned release function must be called when
// the execution finishes (the nonblocking path defers it to completion).
func (c *Comm) sched(op coll.OpKind, a coll.Args) (*coll.Schedule, func()) {
	key := c.keyFor(op, &a)
	return c.acquireSched(key, a)
}

// schedViews is sched for the uniform block-view entry points, whose
// arguments may carry aliased views. Aliased views bypass the cache
// entirely: positional rebinding cannot tell identical regions apart, so
// caching a schedule built over overlapping regions would poison later
// same-key calls (the counts signature only sees lengths). Such layouts
// are legal here — NAS IS exchanges class-size volume through one shared
// workspace block, and in-place shapes like Allgather(out[me], out) alias
// *across* argument slots — so the scan runs over every caller byte
// region combined, the same flattening BufArgs hands the rebinder. The
// vector entry points never need this check: their overlap analysis
// already happened (send overlaps keyed exactly via SDispls, receive and
// cross-buffer overlaps rejected), so they call sched directly and keep
// the hot cached path free of re-analysis.
func (c *Comm) schedViews(op coll.OpKind, a coll.Args) (*coll.Schedule, func()) {
	if c.blocksAlias([][]byte{a.Data, a.Mine}, a.Send, a.Recv, a.Out) {
		key := c.keyFor(op, &a)
		c.countCompile()
		return coll.Build(key, a), noRelease
	}
	return c.sched(op, a)
}

// ---- blocking collectives ----------------------------------------------------

// Barrier blocks until all ranks reach it.
func (c *Comm) Barrier() {
	defer c.span("Barrier")()
	s, release := c.sched(coll.OpBarrier, coll.Args{})
	coll.ExecBlockingRec(c, s, tagBarrier, c.rec)
	release()
}

// Bcast distributes data (in place) from root.
func (c *Comm) Bcast(root int, data []byte) {
	defer c.span("Bcast")()
	c.checkRoot("Bcast", root)
	s, release := c.sched(coll.OpBcast, coll.Args{Root: root, Data: data})
	coll.ExecBlockingRec(c, s, tagBcast, c.rec)
	release()
}

// AllreduceF64 combines x elementwise across ranks, in place.
func (c *Comm) AllreduceF64(x []float64, op coll.Op) {
	defer c.span("AllreduceF64")()
	c.checkOp("AllreduceF64", op)
	s, release := c.sched(coll.OpAllreduce, coll.Args{X: x, Op: op})
	coll.ExecBlockingRec(c, s, tagAllreduce, c.rec)
	release()
}

// ReduceF64 combines x into root's x (clobbered elsewhere).
func (c *Comm) ReduceF64(root int, x []float64, op coll.Op) {
	defer c.span("ReduceF64")()
	c.checkRoot("ReduceF64", root)
	c.checkOp("ReduceF64", op)
	s, release := c.sched(coll.OpReduce, coll.Args{Root: root, X: x, Op: op})
	coll.ExecBlockingRec(c, s, tagReduce, c.rec)
	release()
}

// Allgather collects each rank's block into out[r].
func (c *Comm) Allgather(mine []byte, out [][]byte) {
	defer c.span("Allgather")()
	c.checkAllgather("Allgather", mine, out)
	s, release := c.schedViews(coll.OpAllgather, coll.Args{Mine: mine, Out: out})
	coll.ExecBlockingRec(c, s, tagAllgather, c.rec)
	release()
}

// Alltoall exchanges send[r] → rank r into recv[s].
func (c *Comm) Alltoall(send, recv [][]byte) {
	defer c.span("Alltoall")()
	c.checkAlltoall("Alltoall", send, recv)
	s, release := c.schedViews(coll.OpAlltoall, coll.Args{Send: send, Recv: recv})
	coll.ExecBlockingRec(c, s, tagAlltoall, c.rec)
	release()
}

// Gather collects blocks at root (out[r] is filled on root only).
func (c *Comm) Gather(root int, mine []byte, out [][]byte) {
	defer c.span("Gather")()
	c.checkGather("Gather", root, mine, out)
	s, release := c.schedViews(coll.OpGather, coll.Args{Root: root, Mine: mine, Out: out})
	coll.ExecBlockingRec(c, s, tagGather, c.rec)
	release()
}

// Scatter distributes blocks[r] from root to rank r's buf (MPI_Scatter;
// blocks is only read on root).
func (c *Comm) Scatter(root int, blocks [][]byte, buf []byte) {
	defer c.span("Scatter")()
	c.checkScatter("Scatter", root, blocks, buf)
	s, release := c.schedViews(coll.OpScatter, coll.Args{Root: root, Send: blocks, Mine: buf})
	coll.ExecBlockingRec(c, s, tagScatter, c.rec)
	release()
}

// ---- vector (per-rank count) collectives -------------------------------------
//
// The vector operations take MPI-style (buffer, counts, displacements)
// arguments: counts[r] is the bytes exchanged with rank r and displs[r] the
// block's offset in the flat buffer (nil displs packs blocks back-to-back).
// They compile through the same registry, schedule cache and nonblocking
// engine as the uniform collectives; only the counts — not the
// displacements — enter the cache key, so re-invoking with a different
// layout rebinds the cached schedule.

// Alltoallv exchanges variable-size blocks: sbuf's block d goes to rank d
// and rbuf's block s receives from rank s.
func (c *Comm) Alltoallv(sbuf []byte, scounts, sdispls []int, rbuf []byte, rcounts, rdispls []int) {
	defer c.span("Alltoallv")()
	a := c.alltoallvArgs("Alltoallv", sbuf, scounts, sdispls, rbuf, rcounts, rdispls)
	s, release := c.sched(coll.OpAlltoallv, a)
	coll.ExecBlockingRec(c, s, tagAlltoallv, c.rec)
	release()
}

// Ialltoallv starts a nonblocking variable-size alltoall exchange.
func (c *Comm) Ialltoallv(sbuf []byte, scounts, sdispls []int, rbuf []byte, rcounts, rdispls []int) *Request {
	defer c.span("Ialltoallv")()
	a := c.alltoallvArgs("Ialltoallv", sbuf, scounts, sdispls, rbuf, rcounts, rdispls)
	return c.nbcStart(coll.OpAlltoallv, a)
}

// Allgatherv collects each rank's variable-size block: rank r's mine (of
// rcounts[r] bytes) lands in rbuf's block r on every rank. rcounts must be
// identical on all ranks, as in MPI.
func (c *Comm) Allgatherv(mine []byte, rbuf []byte, rcounts, rdispls []int) {
	defer c.span("Allgatherv")()
	a := c.allgathervArgs("Allgatherv", mine, rbuf, rcounts, rdispls)
	s, release := c.sched(coll.OpAllgatherv, a)
	coll.ExecBlockingRec(c, s, tagAllgatherv, c.rec)
	release()
}

// Iallgatherv starts a nonblocking variable-size allgather.
func (c *Comm) Iallgatherv(mine []byte, rbuf []byte, rcounts, rdispls []int) *Request {
	defer c.span("Iallgatherv")()
	a := c.allgathervArgs("Iallgatherv", mine, rbuf, rcounts, rdispls)
	return c.nbcStart(coll.OpAllgatherv, a)
}

// Gatherv collects variable-size blocks at root: rank r's mine (of
// rcounts[r] bytes) lands in rbuf's block r on root. rbuf, rcounts and
// rdispls are only read on root.
func (c *Comm) Gatherv(root int, mine []byte, rbuf []byte, rcounts, rdispls []int) {
	defer c.span("Gatherv")()
	a := c.gathervArgs("Gatherv", root, mine, rbuf, rcounts, rdispls)
	s, release := c.sched(coll.OpGatherv, a)
	coll.ExecBlockingRec(c, s, tagGatherv, c.rec)
	release()
}

// Igatherv starts a nonblocking variable-size gather at root.
func (c *Comm) Igatherv(root int, mine []byte, rbuf []byte, rcounts, rdispls []int) *Request {
	defer c.span("Igatherv")()
	a := c.gathervArgs("Igatherv", root, mine, rbuf, rcounts, rdispls)
	return c.nbcStart(coll.OpGatherv, a)
}

// Scatterv distributes variable-size blocks from root: sbuf's block r (of
// scounts[r] bytes) lands in rank r's buf. sbuf, scounts and sdispls are
// only read on root.
func (c *Comm) Scatterv(root int, sbuf []byte, scounts, sdispls []int, buf []byte) {
	defer c.span("Scatterv")()
	a := c.scattervArgs("Scatterv", root, sbuf, scounts, sdispls, buf)
	s, release := c.sched(coll.OpScatterv, a)
	coll.ExecBlockingRec(c, s, tagScatterv, c.rec)
	release()
}

// Iscatterv starts a nonblocking variable-size scatter from root.
func (c *Comm) Iscatterv(root int, sbuf []byte, scounts, sdispls []int, buf []byte) *Request {
	defer c.span("Iscatterv")()
	a := c.scattervArgs("Iscatterv", root, sbuf, scounts, sdispls, buf)
	return c.nbcStart(coll.OpScatterv, a)
}

// ReduceScatterF64 reduces x (length sum(counts)) elementwise across ranks
// and scatters the result: rank r receives segment r (counts[r] elements)
// in recv. counts must be identical on all ranks, as in MPI. x may be
// clobbered as scratch.
func (c *Comm) ReduceScatterF64(x, recv []float64, counts []int, op coll.Op) {
	defer c.span("ReduceScatterF64")()
	a := c.reduceScatterArgs("ReduceScatterF64", x, recv, counts, op)
	s, release := c.sched(coll.OpReduceScatter, a)
	coll.ExecBlockingRec(c, s, tagReduceScatter, c.rec)
	release()
}

// IreduceScatterF64 starts a nonblocking reduce-scatter of x.
func (c *Comm) IreduceScatterF64(x, recv []float64, counts []int, op coll.Op) *Request {
	defer c.span("IreduceScatterF64")()
	a := c.reduceScatterArgs("IreduceScatterF64", x, recv, counts, op)
	return c.nbcStart(coll.OpReduceScatter, a)
}

// ---- nonblocking collectives -------------------------------------------------
//
// The I* operations compile the same schedules as their blocking
// counterparts but hand them to the internal/nbc engine: the calling thread
// issues round 0 and returns immediately; subsequent rounds are driven by
// the progress engine, so with PIOMan enabled the collective advances on an
// idle core while the caller computes. The returned *Request composes with
// Wait, WaitAll, WaitAny and Test. A cached schedule stays bound to the
// operation until it completes; starting the same shape again while one is
// in flight compiles a throwaway schedule.

// nbcTransport adapts the CH3 layer to the nbc engine on the nbc context.
// It is an nbc.Releaser: the engine releases each transfer's CH3 request
// right after registering its one completion callback, so the request goes
// back to the CH3 free list once that callback has run.
type nbcTransport struct{ c *Comm }

func (t nbcTransport) Isend(proc *vtime.Proc, dst int, tag int32, data []byte, rail int) nbc.Req {
	return t.c.p.IsendRail(proc, t.c.world(dst), tag, t.c.nbcCtx, data, rail)
}

func (t nbcTransport) Irecv(proc *vtime.Proc, src int, tag int32, buf []byte) nbc.Req {
	return t.c.p.Irecv(proc, t.c.world(src), tag, t.c.nbcCtx, buf)
}

func (t nbcTransport) Release(r nbc.Req) { t.c.p.Release(r.(*ch3.Request)) }

func (c *Comm) nbcStart(op coll.OpKind, a coll.Args) *Request {
	s, release := c.sched(op, a)
	return c.nbcStartSched(s, release)
}

// nbcStartViews is nbcStart through schedViews (possibly aliased views).
func (c *Comm) nbcStartViews(op coll.OpKind, a coll.Args) *Request {
	s, release := c.schedViews(op, a)
	return c.nbcStartSched(s, release)
}

// nbcStartSched hands a compiled schedule to the nonblocking engine;
// release (nil for uncached schedules) runs when the operation completes.
func (c *Comm) nbcStartSched(s *coll.Schedule, release func()) *Request {
	op := c.engine().StartDone(c.proc, s, release)
	// No yield separates StartDone returning and the Gen read, so the
	// generation observed is the started op's even if it already completed
	// (and was recycled) synchronously.
	return &Request{c: c, op: op, opGen: op.Gen()}
}

// engine returns the communicator's schedule engine, created lazily.
func (c *Comm) engine() *nbc.Engine {
	if c.nbcEng == nil {
		c.nbcEng = nbc.NewEngine(c.mgr, nbcTransport{c})
		c.nbcEng.Instrument(c.rec, c.met)
		// Shard deferred rounds by the communicator's collective context —
		// the stable key multi-worker progression distributes queues by
		// (sibling communicators land on different workers; a storm on one
		// communicator spreads via stealing).
		c.nbcEng.SetShard(int(c.nbcCtx))
		if c.cfg.NoPooling {
			c.nbcEng.DisablePooling()
		}
	}
	return c.nbcEng
}

// Ibarrier starts a nonblocking barrier.
func (c *Comm) Ibarrier() *Request {
	defer c.span("Ibarrier")()
	return c.nbcStart(coll.OpBarrier, coll.Args{})
}

// Ibcast starts a nonblocking broadcast of data (in place) from root. The
// buffer must not be touched until the request completes.
func (c *Comm) Ibcast(root int, data []byte) *Request {
	defer c.span("Ibcast")()
	c.checkRoot("Ibcast", root)
	return c.nbcStart(coll.OpBcast, coll.Args{Root: root, Data: data})
}

// IallreduceF64 starts a nonblocking elementwise allreduce of x in place.
func (c *Comm) IallreduceF64(x []float64, op coll.Op) *Request {
	defer c.span("IallreduceF64")()
	c.checkOp("IallreduceF64", op)
	return c.nbcStart(coll.OpAllreduce, coll.Args{X: x, Op: op})
}

// IreduceF64 starts a nonblocking reduction of x into root's x (clobbered
// elsewhere).
func (c *Comm) IreduceF64(root int, x []float64, op coll.Op) *Request {
	defer c.span("IreduceF64")()
	c.checkRoot("IreduceF64", root)
	c.checkOp("IreduceF64", op)
	return c.nbcStart(coll.OpReduce, coll.Args{Root: root, X: x, Op: op})
}

// Iallgather starts a nonblocking allgather of each rank's block into out[r].
func (c *Comm) Iallgather(mine []byte, out [][]byte) *Request {
	defer c.span("Iallgather")()
	c.checkAllgather("Iallgather", mine, out)
	return c.nbcStartViews(coll.OpAllgather, coll.Args{Mine: mine, Out: out})
}

// Ialltoall starts a nonblocking alltoall exchange send[r] → rank r.
func (c *Comm) Ialltoall(send, recv [][]byte) *Request {
	defer c.span("Ialltoall")()
	c.checkAlltoall("Ialltoall", send, recv)
	return c.nbcStartViews(coll.OpAlltoall, coll.Args{Send: send, Recv: recv})
}

// Igather starts a nonblocking gather of blocks at root.
func (c *Comm) Igather(root int, mine []byte, out [][]byte) *Request {
	defer c.span("Igather")()
	c.checkGather("Igather", root, mine, out)
	return c.nbcStartViews(coll.OpGather, coll.Args{Root: root, Mine: mine, Out: out})
}

// Iscatter starts a nonblocking scatter of blocks[r] from root to rank r's
// buf (blocks is only read on root).
func (c *Comm) Iscatter(root int, blocks [][]byte, buf []byte) *Request {
	defer c.span("Iscatter")()
	c.checkScatter("Iscatter", root, blocks, buf)
	return c.nbcStartViews(coll.OpScatter, coll.Args{Root: root, Send: blocks, Mine: buf})
}

// ---- argument validation -----------------------------------------------------
//
// Every collective validates its arguments at the entry point so mismatched
// counts fail with a per-operation error instead of a deep panic in a
// schedule builder or a silently truncated transfer. Cross-rank agreement
// (all ranks passing matching counts) remains the caller's contract, as in
// MPI.

func (c *Comm) checkRoot(op string, root int) {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: %s: root %d out of range [0,%d)", op, root, c.Size()))
	}
}

func (c *Comm) checkOp(op string, f coll.Op) {
	if f == nil {
		panic(fmt.Sprintf("mpi: %s: nil reduction operator", op))
	}
}

func (c *Comm) checkAllgather(op string, mine []byte, out [][]byte) {
	if len(out) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: out has %d blocks for communicator size %d",
			op, len(out), c.Size()))
	}
	if len(out[c.rank]) != len(mine) {
		panic(fmt.Sprintf("mpi: %s: out[%d] is %d bytes but this rank contributes %d",
			op, c.rank, len(out[c.rank]), len(mine)))
	}
}

func (c *Comm) checkAlltoall(op string, send, recv [][]byte) {
	if len(send) != c.Size() || len(recv) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: send has %d blocks, recv %d, communicator size %d",
			op, len(send), len(recv), c.Size()))
	}
	if len(recv[c.rank]) != len(send[c.rank]) {
		panic(fmt.Sprintf("mpi: %s: self block mismatch: send[%d]=%d bytes, recv[%d]=%d",
			op, c.rank, len(send[c.rank]), c.rank, len(recv[c.rank])))
	}
}

func (c *Comm) checkGather(op string, root int, mine []byte, out [][]byte) {
	c.checkRoot(op, root)
	if c.rank != root {
		return
	}
	if len(out) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: out has %d blocks for communicator size %d",
			op, len(out), c.Size()))
	}
	if len(out[root]) != len(mine) {
		panic(fmt.Sprintf("mpi: %s: out[%d] is %d bytes but the root contributes %d",
			op, root, len(out[root]), len(mine)))
	}
}

// checkVec validates one side's count/displacement vectors against the flat
// buffer they index: one count per rank, no negative counts, and every block
// inside the buffer. It reports whether any two nonzero blocks overlap —
// legal for sends (which only read), but such aliased layouts must enter
// the cache key (coll.Args.SDispls) because positional rebinding cannot
// tell overlapping regions apart; receive-side callers panic on overlap
// instead, since aliased receive blocks silently corrupt each other.
func (c *Comm) checkVec(op, side string, buf []byte, counts, displs []int) (overlap bool) {
	if len(counts) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: %d %s counts for communicator size %d",
			op, len(counts), side, c.Size()))
	}
	if displs != nil && len(displs) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: %d %s displacements for communicator size %d",
			op, len(displs), side, c.Size()))
	}
	off := 0
	for r, n := range counts {
		if n < 0 {
			panic(fmt.Sprintf("mpi: %s: negative %s count %d for rank %d", op, side, n, r))
		}
		if displs != nil {
			off = displs[r]
		}
		if off < 0 || off+n > len(buf) {
			panic(fmt.Sprintf("mpi: %s: %s block %d [%d:%d) exceeds buffer length %d",
				op, side, r, off, off+n, len(buf)))
		}
		off += n
	}
	if displs == nil {
		return false // packed layouts cannot overlap
	}
	return c.blocksAlias(coll.Blocks(buf, counts, displs))
}

// checkDisjoint panics when two caller buffers overlap in memory: the
// vector collectives require disjoint send/receive regions (as MPI does),
// and the schedule cache's positional rebinding relies on it — a region
// aliased across the two argument sets would rebind ambiguously on a later
// same-key call.
func checkDisjoint(op, aName, bName string, a, b []byte) {
	if len(a) == 0 || len(b) == 0 {
		return
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	if pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a)) {
		panic(fmt.Sprintf("mpi: %s: %s overlaps %s", op, aName, bName))
	}
}

// checkDisjointF64 is checkDisjoint for float64 buffers.
func checkDisjointF64(op, aName, bName string, a, b []float64) {
	if len(a) == 0 || len(b) == 0 {
		return
	}
	const esz = unsafe.Sizeof(float64(0))
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	if pa < pb+uintptr(len(b))*esz && pb < pa+uintptr(len(a))*esz {
		panic(fmt.Sprintf("mpi: %s: %s overlaps %s", op, aName, bName))
	}
}

func (c *Comm) alltoallvArgs(op string, sbuf []byte, scounts, sdispls []int, rbuf []byte, rcounts, rdispls []int) coll.Args {
	sOverlap := c.checkVec(op, "send", sbuf, scounts, sdispls)
	if c.checkVec(op, "recv", rbuf, rcounts, rdispls) {
		panic(fmt.Sprintf("mpi: %s: overlapping recv blocks", op))
	}
	checkDisjoint(op, "recv buffer", "send buffer", rbuf, sbuf)
	if scounts[c.rank] != rcounts[c.rank] {
		panic(fmt.Sprintf("mpi: %s: self block mismatch: scounts[%d]=%d, rcounts[%d]=%d",
			op, c.rank, scounts[c.rank], c.rank, rcounts[c.rank]))
	}
	a := coll.Args{
		Send: coll.Blocks(sbuf, scounts, sdispls),
		Recv: coll.Blocks(rbuf, rcounts, rdispls),
	}
	if sOverlap {
		a.SDispls = sdispls
	}
	return a
}

func (c *Comm) allgathervArgs(op string, mine, rbuf []byte, rcounts, rdispls []int) coll.Args {
	if c.checkVec(op, "recv", rbuf, rcounts, rdispls) {
		panic(fmt.Sprintf("mpi: %s: overlapping recv blocks", op))
	}
	checkDisjoint(op, "recv buffer", "mine", rbuf, mine)
	if rcounts[c.rank] != len(mine) {
		panic(fmt.Sprintf("mpi: %s: rcounts[%d]=%d but this rank contributes %d bytes",
			op, c.rank, rcounts[c.rank], len(mine)))
	}
	return coll.Args{Mine: mine, Out: coll.Blocks(rbuf, rcounts, rdispls), RCounts: rcounts}
}

func (c *Comm) gathervArgs(op string, root int, mine, rbuf []byte, rcounts, rdispls []int) coll.Args {
	c.checkRoot(op, root)
	a := coll.Args{Root: root, Mine: mine}
	if c.rank != root {
		return a
	}
	if c.checkVec(op, "recv", rbuf, rcounts, rdispls) {
		panic(fmt.Sprintf("mpi: %s: overlapping recv blocks", op))
	}
	checkDisjoint(op, "recv buffer", "mine", rbuf, mine)
	if rcounts[root] != len(mine) {
		panic(fmt.Sprintf("mpi: %s: rcounts[%d]=%d but the root contributes %d bytes",
			op, root, rcounts[root], len(mine)))
	}
	a.Out = coll.Blocks(rbuf, rcounts, rdispls)
	return a
}

func (c *Comm) scattervArgs(op string, root int, sbuf []byte, scounts, sdispls []int, buf []byte) coll.Args {
	c.checkRoot(op, root)
	a := coll.Args{Root: root, Mine: buf}
	if c.rank != root {
		return a
	}
	overlap := c.checkVec(op, "send", sbuf, scounts, sdispls)
	checkDisjoint(op, "send buffer", "buf", sbuf, buf)
	if scounts[root] != len(buf) {
		panic(fmt.Sprintf("mpi: %s: scounts[%d]=%d but buf is %d bytes",
			op, root, scounts[root], len(buf)))
	}
	a.Send = coll.Blocks(sbuf, scounts, sdispls)
	if overlap {
		a.SDispls = sdispls
	}
	return a
}

func (c *Comm) reduceScatterArgs(op string, x, recv []float64, counts []int, f coll.Op) coll.Args {
	c.checkOp(op, f)
	checkDisjointF64(op, "recv", "x", recv, x)
	if len(counts) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: %d counts for communicator size %d",
			op, len(counts), c.Size()))
	}
	total := 0
	for r, n := range counts {
		if n < 0 {
			panic(fmt.Sprintf("mpi: %s: negative count %d for rank %d", op, n, r))
		}
		total += n
	}
	if total != len(x) {
		panic(fmt.Sprintf("mpi: %s: counts sum to %d elements but x has %d",
			op, total, len(x)))
	}
	if len(recv) != counts[c.rank] {
		panic(fmt.Sprintf("mpi: %s: recv has %d elements but counts[%d]=%d",
			op, len(recv), c.rank, counts[c.rank]))
	}
	return coll.Args{X: x, RecvF64: recv, RCounts: counts, Op: f}
}

func (c *Comm) checkScatter(op string, root int, blocks [][]byte, buf []byte) {
	c.checkRoot(op, root)
	if c.rank != root {
		return
	}
	if len(blocks) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: blocks has %d entries for communicator size %d",
			op, len(blocks), c.Size()))
	}
	if len(blocks[root]) != len(buf) {
		panic(fmt.Sprintf("mpi: %s: blocks[%d] is %d bytes but buf is %d",
			op, root, len(blocks[root]), len(buf)))
	}
}

// Reduction operators, re-exported.
var (
	OpSum = coll.OpSum
	OpMax = coll.OpMax
	OpMin = coll.OpMin
)

// F64Bytes / BytesF64 re-export the wire codec for float64 vectors.
func F64Bytes(xs []float64) []byte     { return coll.F64Bytes(xs) }
func BytesF64(dst []float64, b []byte) { coll.BytesF64(dst, b) }
