package mpi

import (
	"repro/internal/coll"
	"repro/internal/trace"
)

// The per-communicator schedule cache gives collectives persistent-schedule
// semantics (libNBC's NBC_Handle reuse): the first invocation of a shape —
// identified by coll.Key (operation, algorithm, root, counts) — compiles a
// schedule; repeats rebind the cached schedule's buffers to the new call's
// arguments and re-execute it with zero compile work. Rank, size and
// topology are fixed per communicator, so the key fully determines the
// schedule's structure. Cached and uncached execution are identical in
// virtual time: compilation is host work, invisible to the simulation —
// the cache removes host overhead and allocation churn from hot loops
// without perturbing results (asserted by TestSchedCacheDeterminism).
type schedCache struct {
	entries  map[coll.Key]*schedEntry
	compiles int64
	hits     int64
	rebinds  int64 // hits whose buffers or operator differed from the entry's

	// Per-communicator scratch of the key path: the signature memo KeyFor
	// consults for vector shapes and the span list blocksAlias sorts.
	sigs  coll.SigMemo
	spans []memSpan

	// Registry counters, resolved once (the rebind hot path must not do
	// map lookups in the registry).
	compilesCtr *trace.Counter
	hitsCtr     *trace.Counter
}

type schedEntry struct {
	sched *coll.Schedule
	args  coll.BufArgs
	// scratch is the flattening target of the next rebind; it swaps with
	// args on every cache hit so the hot path reuses both region lists'
	// capacity instead of allocating.
	scratch coll.BufArgs
	inUse   bool
	// release is the closure handed to callers, built once per entry so a
	// cached start does not allocate it.
	release func()
}

// ensureCache creates the cache on first use.
func (c *Comm) ensureCache() *schedCache {
	if c.cache == nil {
		c.cache = &schedCache{
			entries:     make(map[coll.Key]*schedEntry),
			compilesCtr: c.met.Counter(trace.CtrSchedCompiles),
			hitsCtr:     c.met.Counter(trace.CtrSchedHits),
		}
	}
	return c.cache
}

// noRelease is the release handed out for throwaway (uncached) schedules.
var noRelease = func() {}

// countCompile records an out-of-cache compilation (the aliased-views
// bypass in schedViews) so SchedCacheStats and the collbench Compiles
// column see every build, cached path or not.
func (c *Comm) countCompile() {
	cc := c.ensureCache()
	cc.compiles++
	cc.compilesCtr.Inc()
}

// schedEvent annotates a cache decision on the trace: the op/algorithm pair
// and whether the call compiled fresh or rebound a cached schedule.
func (c *Comm) schedEvent(what string, key coll.Key) {
	if c.rec.Enabled() {
		c.rec.Instant("sched", what,
			trace.Str("op", key.Op.String()), trace.Str("algo", key.Algo.String()))
	}
}

// acquireSched returns a ready-to-run schedule for key bound to a's buffers,
// and the release function that returns it to the cache. While an entry is
// in flight (a nonblocking collective not yet complete), a second request
// for the same key compiles a throwaway schedule instead of corrupting the
// cached one.
func (c *Comm) acquireSched(key coll.Key, a coll.Args) (*coll.Schedule, func()) {
	cc := c.ensureCache()
	if c.cfg.NoSchedCache {
		cc.compiles++
		cc.compilesCtr.Inc()
		c.schedEvent("compile", key)
		return coll.Build(key, a), noRelease
	}
	if e, ok := cc.entries[key]; ok {
		if e.inUse {
			cc.compiles++
			cc.compilesCtr.Inc()
			c.schedEvent("compile", key)
			return coll.Build(key, a), noRelease
		}
		// Flatten into the entry's scratch and, unless the call passed the
		// very buffers and operator the schedule is bound to (what a loop
		// over one set of buffers does every time), rebind and swap scratch
		// and args: no allocation once both lists have grown to the shape's
		// region count. The vacated list is zeroed so it does not retain the
		// previous invocation's buffers.
		a.BufArgsInto(&e.scratch)
		if !e.scratch.Same(e.args) {
			e.sched.Rebind(e.args, e.scratch)
			e.args, e.scratch = e.scratch, e.args
			cc.rebinds++
		}
		clearBufArgs(&e.scratch)
		e.inUse = true
		cc.hits++
		cc.hitsCtr.Inc()
		c.schedEvent("rebind", key)
		return e.sched, e.release
	}
	e := &schedEntry{sched: coll.Build(key, a), args: a.BufArgs(), inUse: true}
	e.release = func() { e.inUse = false }
	cc.entries[key] = e
	cc.compiles++
	cc.compilesCtr.Inc()
	c.schedEvent("compile", key)
	return e.sched, e.release
}

// clearBufArgs drops a flattened region list's references (keeping
// capacity) so swapped-out scratch stops pinning caller buffers.
func clearBufArgs(ba *coll.BufArgs) {
	for i := range ba.Bytes {
		ba.Bytes[i] = nil
	}
	for i := range ba.F64 {
		ba.F64[i] = nil
	}
	ba.Bytes = ba.Bytes[:0]
	ba.F64 = ba.F64[:0]
	ba.Op = nil
}

// SchedCacheStats reports how many schedules this communicator compiled and
// how many invocations reused a cached one — instrumentation for tests and
// cmd/collbench.
func (c *Comm) SchedCacheStats() (compiles, hits int64) {
	if c.cache == nil {
		return 0, 0
	}
	return c.cache.compiles, c.cache.hits
}

// PoolStats reports this rank's hot-path free-list effectiveness alongside
// SchedCacheStats: request- and op-pool hits/misses plus the peak number of
// CH3 requests concurrently in flight.
type PoolStats struct {
	ReqHits, ReqMisses int64
	OpHits, OpMisses   int64
	ReqInFlightPeak    int64
}

// PoolStats snapshots the rank's pool counters (registered by Run on the
// same registry the schedule-cache counters live in).
func (c *Comm) PoolStats() PoolStats {
	return PoolStats{
		ReqHits:         c.met.Counter(trace.CtrReqPoolHits).Value(),
		ReqMisses:       c.met.Counter(trace.CtrReqPoolMisses).Value(),
		OpHits:          c.met.Counter(trace.CtrOpPoolHits).Value(),
		OpMisses:        c.met.Counter(trace.CtrOpPoolMisses).Value(),
		ReqInFlightPeak: c.met.Gauge(trace.GaugeReqsInFlight).Peak(),
	}
}
