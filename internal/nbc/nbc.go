// Package nbc is a schedule-based nonblocking-collectives engine in the
// spirit of libNBC: a collective is compiled (by the builders in
// internal/coll) into per-rank rounds of {send, recv, copy, reduce}
// primitives, and an Op executes those rounds incrementally over the CH3
// nonblocking point-to-point layer.
//
// Progression rides the PIOMan progress authority of the paper:
//
//   - round 0 is issued inline by the application thread (the MPI_I* call);
//   - when a round's transfers complete, the next round is posted as a
//     deferred pioman task. Under the PIOMan regime the background progress
//     thread picks it up on an idle core — the collective advances while the
//     application computes, which is precisely the overlap §3.3 promises.
//     Without PIOMan the task runs at the next Progress pass an application
//     thread performs inside an MPI call (Wait/Test), reproducing the
//     no-overlap behaviour of progress-less stacks.
//
// Matching isolation: the engine tags every transfer with (op sequence,
// round) on a context of its own, so concurrently outstanding collectives —
// and the blocking collectives sharing the communicator — never cross-match.
package nbc

import (
	"repro/internal/bufpool"
	"repro/internal/coll"
	"repro/internal/pioman"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Req is the transport's nonblocking request handle (satisfied by
// *ch3.Request).
type Req interface {
	Done() bool
	AddCallback(func())
}

// Transport issues nonblocking point-to-point transfers on the collective
// engine's private context. Implemented by mpi.Comm. rail is the send's
// multirail placement hint, encoded as on coll.Prim.Rail: 0 lets the
// backend's strategy place the transfer, k > 0 pins it to rail k-1;
// single-rail transports ignore it.
type Transport interface {
	Isend(proc *vtime.Proc, dst int, tag int32, data []byte, rail int) Req
	Irecv(proc *vtime.Proc, src int, tag int32, buf []byte) Req
}

// Releaser is implemented by a Transport whose requests go back to a free
// list. The engine hands each request to Release right after registering
// its completion callback and never touches it again; the transport
// recycles it once that callback has run (at once, if it already has).
type Releaser interface {
	Release(r Req)
}

// Engine executes schedules for one rank, progressed by a pioman.Manager.
type Engine struct {
	mgr *pioman.Manager
	tr  Transport
	rel Releaser // tr's Releaser, resolved once in NewEngine; nil if none
	rec *trace.Recorder

	nextSeq int32

	// shard is the progress-manager shard key all of this engine's deferred
	// rounds and notifications route to (the owning communicator's context:
	// one communicator's rounds stay on one worker's queue, and idle
	// workers steal if that queue backs up). Zero — the default — is the
	// classic single-worker behavior.
	shard int

	// free recycles completed Ops (see getOp/putOp); pooling can be turned
	// off for neutrality verification.
	free    bufpool.List[Op]
	pooling bool

	// Stats, registered on a metrics registry via Instrument (standalone
	// counters otherwise). Read through the accessor methods.
	started   *trace.Counter // ops started
	completed *trace.Counter // ops completed
	bgRounds  *trace.Counter // rounds issued from a deferred progress task
	opHits    *trace.Counter // op pool hits
	opMisses  *trace.Counter // op pool misses
}

// NewEngine binds a schedule engine to a progress manager and transport. A
// transport that also implements Releaser gets every request back.
func NewEngine(mgr *pioman.Manager, tr Transport) *Engine {
	e := &Engine{mgr: mgr, tr: tr, pooling: true}
	e.rel, _ = tr.(Releaser)
	e.Instrument(nil, nil)
	return e
}

// Instrument attaches a trace recorder and re-homes the engine's statistics
// on a metrics registry. Call before starting operations; either argument
// may be nil (no events recorded / standalone counters).
func (e *Engine) Instrument(rec *trace.Recorder, met *trace.Registry) {
	e.rec = rec
	e.started = met.Counter(trace.CtrNbcStarted)
	e.completed = met.Counter(trace.CtrNbcCompleted)
	e.bgRounds = met.Counter(trace.CtrNbcBGRounds)
	e.opHits = met.Counter(trace.CtrOpPoolHits)
	e.opMisses = met.Counter(trace.CtrOpPoolMisses)
}

// DisablePooling makes every Start allocate a fresh Op (virtual-time results
// are identical either way; the switch exists for neutrality verification).
func (e *Engine) DisablePooling() { e.pooling = false }

// SetShard keys the engine's deferred work for multi-worker progression:
// mpi hands the owning communicator's collective context in. Call before
// starting operations.
func (e *Engine) SetShard(key int) { e.shard = key }

// Started returns the number of operations started.
func (e *Engine) Started() int64 { return e.started.Value() }

// Completed returns the number of operations completed.
func (e *Engine) Completed() int64 { return e.completed.Value() }

// BGRounds returns the number of rounds issued from deferred progress tasks.
func (e *Engine) BGRounds() int64 { return e.bgRounds.Value() }

// Op is one in-flight nonblocking collective. Completed ops return to the
// engine free list; a holder that may outlive completion (e.g. an MPI
// request) captures Gen() at start and polls DoneGen, which stays correct
// across recycling.
type Op struct {
	eng    *Engine
	sched  *coll.Schedule
	seq    int32
	onDone func()

	// gen counts acquisitions of this Op struct: bumped in getOp, never in
	// putOp. A recycled op therefore reads done=true to stale holders until
	// it is reacquired, after which their captured gen no longer matches.
	gen uint64

	round   int
	pending int // outstanding transfers of the current round (+1 issue guard)
	done    bool

	// cb / taskFn are the per-op closures of the hot path (transfer
	// completion callback, deferred-round task), built once per Op struct so
	// recycling does not re-allocate them.
	cb     func()
	taskFn func(*vtime.Proc)

	// Trace state: the async-operation id spanning start→completion, the
	// op/algo display name, and the current round's start time.
	tid        int64
	name       string
	roundStart vtime.Time
}

// getOp pops a recycled Op (or allocates one with its closures). The
// generation bump at acquisition invalidates DoneGen handles from the
// previous life.
func (e *Engine) getOp() *Op {
	var op *Op
	if op = e.free.Get(); op != nil {
		e.opHits.Inc()
	} else {
		e.free.Made()
		op = &Op{eng: e}
		op.cb = op.transferDone
		op.taskFn = func(p *vtime.Proc) {
			op.eng.bgRounds.Inc()
			op.issueRounds(p)
		}
		e.opMisses.Inc()
	}
	op.gen++
	op.done = false
	op.round, op.pending = 0, 0
	op.tid = 0
	return op
}

// putOp returns a completed op to the free list. done stays true (and gen
// unbumped) so stale holders keep reading completion correctly.
func (e *Engine) putOp(op *Op) {
	op.sched = nil
	op.onDone = nil
	op.name = ""
	e.free.Put(op)
}

// Gen returns the op's current acquisition generation.
func (op *Op) Gen() uint64 { return op.gen }

// DoneGen reports whether the op life identified by gen has completed. A
// generation mismatch means the op was recycled — that life is over.
func (op *Op) DoneGen(gen uint64) bool { return op.gen != gen || op.done }

// Start begins executing s and returns its handle. Round 0 is issued on the
// calling proc (charging the caller the per-operation software costs, as a
// real MPI_I* call would); later rounds are driven by the progress engine.
// An empty schedule (single-rank collective) completes immediately.
func (e *Engine) Start(proc *vtime.Proc, s *coll.Schedule) *Op {
	return e.StartDone(proc, s, nil)
}

// StartDone is Start with a completion callback, invoked exactly once when
// the op completes — possibly synchronously, before StartDone returns. The
// schedule cache uses it to release a persistent schedule for rebinding.
func (e *Engine) StartDone(proc *vtime.Proc, s *coll.Schedule, onDone func()) *Op {
	op := e.getOp()
	op.sched, op.seq, op.onDone = s, e.nextSeq&0x7fffffff, onDone
	e.nextSeq++
	e.started.Inc()
	if e.rec.Enabled() {
		op.name = s.Key.Op.String() + "/" + s.Key.Algo.String()
		op.tid = e.rec.AsyncBegin("nbc", op.name,
			trace.Int64("rounds", int64(len(s.Rounds))))
	}
	op.issueRounds(proc)
	return op
}

// Done reports completion.
func (op *Op) Done() bool { return op.done }

// tag identifies the op so concurrently outstanding collectives never
// cross-match (the sequence uses the tag field's full non-negative range,
// so recycling needs 2^31 collectives outstanding-or-issued on one
// communicator). It must NOT encode the local round index: the two ends of
// one transfer can assign it different round numbers (a binomial root's
// second send is its round 1 but the receiver's round 0). Within an op,
// every pair exchanges in the same order on both sides, so per-pair FIFO
// matching — the invariant the transports guarantee — resolves the rest.
func (op *Op) tag() int32 { return op.seq }

// issueRounds starts the current round's transfers on proc and keeps going
// inline as long as rounds complete synchronously (e.g. transfers satisfied
// from the unexpected queue, or local-only rounds).
func (op *Op) issueRounds(proc *vtime.Proc) {
	for op.round < len(op.sched.Rounds) {
		op.roundStart = op.eng.rec.Now()
		rd := &op.sched.Rounds[op.round]
		// The +1 guard keeps the round open while transfers are being
		// issued: completion callbacks may fire synchronously inside
		// Isend/Irecv and must not advance the round mid-issue.
		op.pending = 1
		tag := op.tag()
		for i := range rd.Comm {
			pr := &rd.Comm[i]
			op.pending++
			var r Req
			if pr.Kind == coll.PrimSend {
				r = op.eng.tr.Isend(proc, pr.Peer, tag, coll.SendPayload(pr), pr.Rail)
			} else {
				r = op.eng.tr.Irecv(proc, pr.Peer, tag, coll.RecvBuf(pr))
			}
			r.AddCallback(op.cb)
			if op.eng.rel != nil {
				op.eng.rel.Release(r)
			}
		}
		op.pending--
		if op.pending > 0 {
			return // round continues under the progress engine
		}
		op.finishRound()
	}
	op.complete()
}

// transferDone runs when one transfer of the current round completes. It may
// run in engine context (a NIC completion event) or in progress context (a
// poll pass); both are safe since it only mutates op state and defers the
// next round to the progress engine.
func (op *Op) transferDone() {
	op.pending--
	if op.pending > 0 {
		return
	}
	op.finishRound()
	if op.round >= len(op.sched.Rounds) {
		op.complete()
		return
	}
	// Defer the next round's submission to the progress engine: under
	// PIOMan the worker owning this engine's shard executes it (submission
	// offload, §2.2.3); otherwise it runs inside the next MPI call's
	// progress pass.
	op.eng.mgr.PostTaskShard(op.eng.shard, pioman.Task{RunP: op.taskFn})
	op.eng.mgr.NotifyShard(op.eng.shard)
}

// finishRound runs the completed round's local prims and advances.
func (op *Op) finishRound() {
	rd := &op.sched.Rounds[op.round]
	for i := range rd.Local {
		coll.RunLocal(&rd.Local[i])
	}
	op.eng.rec.Complete("round", op.name, trace.TidRounds, op.roundStart,
		trace.Int64("round", int64(op.round)))
	op.round++
}

func (op *Op) complete() {
	if op.done {
		return
	}
	op.done = true
	op.eng.completed.Inc()
	if op.tid != 0 {
		op.eng.rec.AsyncEnd("nbc", op.name, op.tid)
		op.tid = 0
	}
	if f := op.onDone; f != nil {
		op.onDone = nil
		f()
	}
	// The op is finished: no transfer callback or deferred task can still
	// reference it (rounds only advance once every transfer of the previous
	// round has called back), so it can recycle now. Holders polling DoneGen
	// keep reading done=true until the struct is reacquired.
	if op.eng.pooling {
		op.eng.putOp(op)
	}
	// Wake anything blocked on the manager. The op is done — no progression
	// work remains — so multi-worker managers broadcast completion directly
	// instead of paying a worker an empty sweep for the re-broadcast.
	op.eng.mgr.Completed(op.eng.shard)
}
