// Package mpi is the public API of the MPICH2-NewMadeleine reproduction: it
// runs an SPMD program over a simulated cluster under a selectable MPI stack
// (MPICH2-NewMadeleine with or without PIOMan, MVAPICH2, Open MPI, or the
// generic Nemesis module) and exposes MPI-style point-to-point operations,
// blocking and nonblocking collectives, compute modeling and virtual-time
// measurement.
//
// A minimal program:
//
//	cfg := mpi.Config{Cluster: cluster.Xeon2(), Stack: cluster.MPICH2NmadIB(), NP: 2}
//	report, err := mpi.Run(cfg, func(c *mpi.Comm) {
//		if c.Rank() == 0 {
//			c.Send(1, 0, []byte("hello"))
//		} else {
//			buf := make([]byte, 8)
//			st := c.Recv(0, 0, buf)
//			fmt.Println(string(buf[:st.Len]))
//		}
//	})
//
// Everything runs in deterministic virtual time: Wtime returns simulated
// seconds and repeated runs produce identical timings.
//
// # Collective engine
//
// Every collective — blocking or nonblocking — compiles to a per-rank
// schedule (rounds of {send, recv, copy, reduce} primitives) through the
// internal/coll registry. The algorithm is selected per invocation from
// payload size, rank count and topology: binomial vs scatter-allgather
// broadcast, recursive-doubling vs Rabenseifner allreduce, Bruck vs ring
// allgather, flat vs two-level hierarchical variants (the selection table
// lives in internal/coll/README.md, tunable via Config.Coll). Selection is
// data-driven when a calibrated tuning table is installed (see
// Config.Coll): per-stack crossover thresholds measured by cmd/colltune
// replace the hard-coded MPICH-flavoured defaults. Large messages can run
// *segmented*: the pipelined chain and segmented-binomial broadcasts and
// the segmented ring allreduce split the payload into pipeline segments
// whose per-segment rounds overlap across ranks; the calibrated tables
// pick them (with a per-entry segment size) where they win, and
// Config.Coll.SegBytes forces the granularity.
//
// Schedules are persistent: each communicator caches compiled schedules by
// shape (operation, algorithm, root, counts), so a collective repeated in a
// loop compiles exactly once — later invocations rebind the cached
// schedule to the new buffers and re-execute it. Compilation is host work,
// invisible to virtual time, so cached and uncached runs produce identical
// simulated timings (Config.NoSchedCache turns the cache off to verify).
//
// # Nonblocking collectives
//
// Ibarrier, Ibcast, IallreduceF64, IreduceF64, Iallgather, Ialltoall,
// Igather and Iscatter return a *Request composable with Wait, WaitAll,
// WaitAny and Test. The calling thread issues round 0; every later round
// starts from the progress engine, so the schedule's advancement follows
// the stack's progress regime exactly as the paper's §3.3 describes for
// point-to-point:
//
//   - with PIOMan, the background progress thread picks rounds up on an
//     idle core and the collective overlaps with Compute;
//   - without it, rounds only advance inside MPI calls (Wait/Test), so the
//     collective and the computation serialize.
//
// The canonical overlap pattern:
//
//	q := c.IallreduceF64(x, mpi.OpSum)
//	c.Compute(300e-6) // overlaps with the allreduce under PIOMan
//	c.Wait(q)
//
// # Sub-communicators
//
// Comm.Dup derives a same-group communicator over fresh contexts;
// Comm.Split partitions the group by color, renumbering each part's
// members 0..Size()-1 (SplitNode and SplitLeaders build the node/leader
// communicators of the two-level decomposition). Contexts isolate matching
// completely: traffic on one communicator never matches receives on
// another, even with identical tags.
//
// Config.TwoLevelColl selects topology-aware collectives: when several
// ranks share a node, the intra-node phase runs over shared memory and only
// one leader per node touches the network rails (Barrier, Bcast,
// AllreduceF64, Allgather, Alltoall and their nonblocking counterparts).
package mpi

import (
	"errors"
	"fmt"

	"repro/cluster"
	"repro/internal/bufpool"
	"repro/internal/ch3"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/marcel"
	"repro/internal/nemesis"
	"repro/internal/nmad"
	"repro/internal/pioman"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Wildcards, re-exported.
const (
	AnySource = int(ch3.AnySource)
	AnyTag    = int(ch3.AnyTag)
)

// Config describes one run.
type Config struct {
	// Cluster is the simulated testbed.
	Cluster topo.Cluster
	// Placement maps ranks to nodes; defaults to round-robin.
	Placement topo.Placement
	// Stack selects the MPI implementation model.
	Stack cluster.Stack
	// NP is the number of ranks.
	NP int
	// TwoLevelColl enables the topology-aware two-level collectives: the
	// intra-node phase runs over shared memory, only per-node leaders touch
	// the network rails. Applies to Barrier, Bcast, AllreduceF64, Allgather,
	// Alltoall and their nonblocking counterparts when several ranks share a
	// node.
	TwoLevelColl bool
	// Coll tunes collective selection: forced algorithms, a forced segment
	// size or stripe width, and calibrated per-stack tuning tables. The
	// zero value selects the defaults documented in internal/coll/README.md. A
	// table loads from a colltune-emitted JSON file via
	// cfg.Coll.LoadTable(data), or from the embedded per-stack calibrations
	// via cfg.Coll.Table = tune.TableFor(cfg.Stack.Name). Run fills
	// Coll.Stack from Stack.Name (when unset) so the stack identity flows
	// into selection and every coll.Key, and rejects malformed tuning
	// (unregistered forced algorithms, invalid tables) with an error
	// instead of silently falling back.
	Coll coll.Tuning
	// NoSchedCache disables the per-communicator persistent-schedule cache,
	// recompiling every collective invocation. Virtual-time results are
	// identical either way; the switch exists for verification and
	// benchmarking.
	NoSchedCache bool
	// NoPooling disables the CH3 request and shm-job free lists and the nbc
	// op pool: those operations allocate fresh. Virtual-time results are
	// identical either way; the switch exists for neutrality verification
	// and allocation benchmarking. It does not reach NewMadeleine's
	// request/packet-wrapper pools, the rails' in-flight records or the
	// world's store of unexpected-message buffers.
	NoPooling bool
	// Pioman tunes background progression beyond the stack's regime
	// defaults. The zero value is the classic single-worker behavior.
	Pioman PiomanConfig
	// Trace, when set, records a deterministic virtual-time event trace of
	// the run (MPI entry points, protocol phases, progress passes,
	// collective rounds). Create with trace.New(); export afterwards with
	// trace.WriteChrome / trace.Summarize. Each Trace binds to exactly one
	// run. Tracing is behavior-neutral: virtual-time results are identical
	// with it on or off.
	Trace *trace.Trace
}

// PiomanConfig tunes the PIOMan progress engine.
type PiomanConfig struct {
	// Workers is the number of background progression workers per rank
	// (0 and 1 both mean the classic single worker). Each worker is its own
	// simulated thread (trace tracks pioman-0..N-1): sources and deferred
	// collective rounds are sharded across workers by registration order
	// and communicator context, and idle workers steal from loaded queues.
	// Requires a stack with PIOMan enabled when > 1 — the polling regime
	// has no background procs to multiply.
	Workers int
}

// RailStat summarizes one rail's traffic after a run.
type RailStat struct {
	Name    string
	Packets int64
	Bytes   int64
}

// Report is returned by Run.
type Report struct {
	// Seconds is the virtual time at which the simulation drained.
	Seconds float64
	// Events is the total number of simulation events the engine scheduled:
	// a deterministic (noise-free) proxy for host-side work, bit-identical
	// across repetitions of the same configuration.
	Events int64
	// Rails holds per-rail traffic statistics.
	Rails []RailStat
	// Metrics holds the run's counter registries (always populated): per-rank
	// progress/collective statistics plus run-level rail traffic.
	Metrics *trace.Metrics
}

// RailCounter is one rail's traffic in a counter snapshot.
type RailCounter struct {
	Name    string `json:"name"`
	Packets int64  `json:"packets"`
	Bytes   int64  `json:"bytes"`
}

// CounterSnapshot condenses a run's registries into the observability
// numbers benchmark JSON rows carry: schedule-cache effectiveness, the
// app/background poll split, nonblocking-collective activity and per-rail
// traffic.
type CounterSnapshot struct {
	SchedCompiles int64   `json:"sched_compiles"`
	SchedHits     int64   `json:"sched_hits"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	AppPolls      int64   `json:"app_polls"`
	AppEvents     int64   `json:"app_events"`
	BgPolls       int64   `json:"bg_polls"`
	BgEvents      int64   `json:"bg_events"`
	BgTasks       int64   `json:"bg_tasks"`
	BgSteals      int64   `json:"bg_steals"`
	NbcStarted    int64   `json:"nbc_started"`
	NbcCompleted  int64   `json:"nbc_completed"`
	NbcBGRounds   int64   `json:"nbc_bg_rounds"`
	ReqPoolHits   int64   `json:"req_pool_hits"`
	ReqPoolMisses int64   `json:"req_pool_misses"`
	OpPoolHits    int64   `json:"op_pool_hits"`
	OpPoolMisses  int64   `json:"op_pool_misses"`
	ReqInFlight   int64   `json:"req_in_flight_peak"`
	// Workers breaks background progression down per PIOMan worker
	// (cross-rank totals; empty for polling-regime runs).
	Workers []WorkerCounter `json:"workers,omitempty"`
	Rails   []RailCounter   `json:"rails,omitempty"`
}

// WorkerCounter is one PIOMan worker's cross-rank sweep statistics.
type WorkerCounter struct {
	Worker int   `json:"worker"`
	Polls  int64 `json:"polls"`
	Events int64 `json:"events"`
	Tasks  int64 `json:"tasks"`
	Steals int64 `json:"steals"`
}

// Counters snapshots the report's metrics registries.
func (rep *Report) Counters() *CounterSnapshot {
	m := rep.Metrics
	cs := &CounterSnapshot{
		SchedCompiles: m.Total(trace.CtrSchedCompiles),
		SchedHits:     m.Total(trace.CtrSchedHits),
		AppPolls:      m.Total(trace.CtrAppPolls),
		AppEvents:     m.Total(trace.CtrAppEvents),
		BgPolls:       m.Total(trace.CtrBgPolls),
		BgEvents:      m.Total(trace.CtrBgEvents),
		BgTasks:       m.Total(trace.CtrBgTasks),
		BgSteals:      m.Total(trace.CtrBgSteals),
		NbcStarted:    m.Total(trace.CtrNbcStarted),
		NbcCompleted:  m.Total(trace.CtrNbcCompleted),
		NbcBGRounds:   m.Total(trace.CtrNbcBGRounds),
		ReqPoolHits:   m.Total(trace.CtrReqPoolHits),
		ReqPoolMisses: m.Total(trace.CtrReqPoolMisses),
		OpPoolHits:    m.Total(trace.CtrOpPoolHits),
		OpPoolMisses:  m.Total(trace.CtrOpPoolMisses),
		ReqInFlight:   m.GaugePeak(trace.GaugeReqsInFlight),
	}
	if n := cs.SchedCompiles + cs.SchedHits; n > 0 {
		cs.CacheHitRate = float64(cs.SchedHits) / float64(n)
	}
	for i := 0; i < int(m.GaugePeak(trace.GaugeWorkers)); i++ {
		cs.Workers = append(cs.Workers, WorkerCounter{
			Worker: i,
			Polls:  m.Total(trace.CtrWorkerPolls(i)),
			Events: m.Total(trace.CtrWorkerEvents(i)),
			Tasks:  m.Total(trace.CtrWorkerTasks(i)),
			Steals: m.Total(trace.CtrWorkerSteals(i)),
		})
	}
	for _, r := range rep.Rails {
		cs.Rails = append(cs.Rails, RailCounter{Name: r.Name, Packets: r.Packets, Bytes: r.Bytes})
	}
	return cs
}

// Run executes main once per rank over the configured stack and cluster. It
// returns when the simulation drains; an *vtime.DeadlockError means the MPI
// program deadlocked (with the blocked ranks listed), an error wrapping a
// *vtime.ProcPanicError that a rank (app3) or one of its progress threads
// (rank3/pioman-0) panicked.
func Run(cfg Config, main func(*Comm)) (*Report, error) {
	if cfg.NP <= 0 {
		return nil, fmt.Errorf("mpi: NP = %d", cfg.NP)
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Coll.Stack == "" {
		cfg.Coll.Stack = cfg.Stack.Name
	}
	if cfg.Coll.Rails == nil {
		// Hand the stack's rail profile to collective selection: on multirail
		// stacks the striped builders deal segments across these (weighted by
		// bandwidth), and the profile enters every striped coll.Key. A
		// single-rail profile disables striping outright, so single-rail runs
		// compile bit-identical schedules.
		for _, rp := range cfg.Stack.Rails {
			cfg.Coll.Rails = append(cfg.Coll.Rails, coll.RailInfo{
				Name:        rp.Name,
				LatencyNS:   int64(rp.Latency),
				BytesPerSec: rp.BytesPerSec,
			})
		}
	}
	if err := cfg.Coll.Validate(); err != nil {
		return nil, fmt.Errorf("mpi: %v", err)
	}
	if cfg.Pioman.Workers < 0 {
		return nil, fmt.Errorf("mpi: Pioman.Workers = %d", cfg.Pioman.Workers)
	}
	if cfg.Pioman.Workers > 1 && !cfg.Stack.PIOMan {
		return nil, fmt.Errorf("mpi: Pioman.Workers = %d needs a PIOMan stack (%q polls on the application thread)",
			cfg.Pioman.Workers, cfg.Stack.Name)
	}
	placement := cfg.Placement
	if placement == nil {
		placement = topo.RoundRobin(cfg.NP, cfg.Cluster.NumNodes)
	}
	if len(placement) != cfg.NP {
		return nil, fmt.Errorf("mpi: placement covers %d ranks, NP = %d", len(placement), cfg.NP)
	}
	if err := placement.Validate(cfg.Cluster); err != nil {
		return nil, err
	}
	cfg.Placement = placement // hand the resolved placement to the comms
	if len(cfg.Stack.Rails) == 0 && cfg.NP > 1 && needsNetwork(placement) {
		return nil, fmt.Errorf("mpi: stack %q has no rails but ranks span nodes", cfg.Stack.Name)
	}

	e := vtime.NewEngine()
	net, err := simnet.New(e, cfg.Cluster.NumNodes, cfg.Stack.Rails...)
	if err != nil {
		return nil, err
	}
	if !cfg.Cluster.Hierarchy.Flat() {
		// Rack/switch tiers: rails whose params carry per-level costs now
		// charge them by node-pair distance.
		net.SetDistance(cfg.Cluster.Hierarchy.Distance)
	}

	// Counter registries always exist (counters cost what the old ad-hoc
	// stat fields did); event recorders only when a Trace is configured.
	met := trace.NewMetrics(cfg.NP)
	recs := make([]*trace.Recorder, cfg.NP)
	if cfg.Trace != nil {
		if err := cfg.Trace.Bind(e, cfg.NP); err != nil {
			return nil, fmt.Errorf("mpi: %v", err)
		}
		cfg.Trace.AttachMetrics(met)
		for r := range recs {
			recs[r] = cfg.Trace.Recorder(r)
		}
	}

	nodes := make([]*marcel.Node, cfg.Cluster.NumNodes)
	for i := range nodes {
		nodes[i] = marcel.NewNode(e, fmt.Sprintf("node%d", i), cfg.Cluster.CoresPerNode)
	}

	// Shared-memory endpoints for co-located ranks.
	eps := make([]*nemesis.Endpoint, cfg.NP)
	for n := 0; n < cfg.Cluster.NumNodes; n++ {
		local := placement.RanksOnNode(n)
		if len(local) < 2 {
			continue
		}
		for _, r := range local {
			shmOpt := cfg.Stack.Shm
			shmOpt.Rec = recs[r]
			ep, err := nemesis.NewEndpoint(e, r, shmOpt)
			if err != nil {
				return nil, err
			}
			eps[r] = ep
		}
		for _, a := range local {
			for _, b := range local {
				if a != b {
					eps[a].ConnectLocal(eps[b])
				}
			}
		}
	}

	// One store for unexpected payloads per world, not per rank: retention
	// is bounded once however many ranks the world has.
	bufs := new(bufpool.Pool)
	mgrs := make([]*pioman.Manager, cfg.NP)
	procs := make([]*ch3.Process, cfg.NP)
	for r := 0; r < cfg.NP; r++ {
		node := nodes[placement.NodeOf(r)]
		pioCfg := cfg.Stack.PioConfig()
		pioCfg.Workers = cfg.Pioman.Workers
		pioCfg.Metrics = met.Rank(r)
		pioCfg.Rec = recs[r]
		mgrs[r] = pioman.New(e, node, fmt.Sprintf("rank%d", r), pioCfg)
		r := r
		same := func(q int) bool { return q != r && placement.SameNode(r, q) }
		ch3Cfg := cfg.Stack.CH3
		ch3Cfg.Rec = recs[r]
		ch3Cfg.Metrics = met.Rank(r)
		ch3Cfg.NoPooling = cfg.NoPooling
		ch3Cfg.Bufs = bufs
		procs[r] = ch3.NewProcess(e, r, cfg.NP, mgrs[r], eps[r], same, ch3Cfg)
	}

	if err := wireBackend(cfg, e, net, placement, mgrs, procs, recs, bufs); err != nil {
		return nil, err
	}

	// Spawn application threads; the last rank to finish stops the progress
	// managers so the engine can drain (MPI_Finalize semantics: a barrier
	// precedes teardown).
	finished := 0
	for r := 0; r < cfg.NP; r++ {
		r := r
		ap := e.Spawn(fmt.Sprintf("app%d", r), func(p *vtime.Proc) {
			c := newComm(cfg, p, procs[r], nodes[placement.NodeOf(r)], mgrs[r],
				recs[r], met.Rank(r))
			main(c)
			c.Barrier()
			finished++
			if finished == cfg.NP {
				for _, m := range mgrs {
					m.Stop()
				}
			}
		})
		ap.SetLabel(trace.TidApp)
	}

	if err := e.Run(); err != nil {
		var pe *vtime.ProcPanicError
		if errors.As(err, &pe) {
			// Its message names the thread; the stack is what locates the bug.
			return nil, fmt.Errorf("mpi: %w\n%s", pe, pe.Stack)
		}
		return nil, err
	}

	rep := &Report{Seconds: e.Now().Seconds(), Events: e.Events(), Metrics: met}
	for _, rail := range net.Rails() {
		rep.Rails = append(rep.Rails, RailStat{
			Name: rail.Params.Name, Packets: rail.Packets, Bytes: rail.BytesSent,
		})
		met.Run.Counter(trace.RailPacketsCtr(rail.Params.Name)).Add(rail.Packets)
		met.Run.Counter(trace.RailBytesCtr(rail.Params.Name)).Add(rail.BytesSent)
	}
	return rep, nil
}

func needsNetwork(p topo.Placement) bool {
	for i := 1; i < len(p); i++ {
		if p[i] != p[0] {
			return true
		}
	}
	return false
}

// wireBackend instantiates the configured network backend for every rank.
func wireBackend(cfg Config, e *vtime.Engine, net *simnet.Network,
	placement topo.Placement, mgrs []*pioman.Manager, procs []*ch3.Process,
	recs []*trace.Recorder, bufs *bufpool.Pool) error {

	switch cfg.Stack.Backend {
	case cluster.BackendDirect, cluster.BackendGenericNmad:
		cores := make([]*nmad.Core, cfg.NP)
		// Gates are established lazily on first traffic through the Peer
		// resolver — an all-pairs Connect pass here would cost O(NP²) gates
		// while a log-depth collective touches O(log NP) peers per rank.
		resolve := func(rank int) *nmad.Core { return cores[rank] }
		pools := new(nmad.Pools)
		for r := 0; r < cfg.NP; r++ {
			mgr := mgrs[r]
			// The core's deferred work and arrival notifications route to
			// the worker shard the source lands on; coreShard is assigned by
			// Register below, before any traffic can invoke the closures.
			var coreShard int
			cores[r] = nmad.New(e, r, placement.NodeOf(r), nmad.Options{
				Strategy:     cfg.Stack.Strategy,
				RdvThreshold: cfg.Stack.RdvThreshold,
				AggregMax:    cfg.Stack.AggregMax,
				Rails:        net.Rails(),
				MemBW:        cfg.Stack.Shm.MemBW,
				Peer:         resolve,
				PostTask: func(cost vtime.Duration, run func()) {
					mgr.PostTaskShard(coreShard, pioman.Task{Cost: cost, Run: run})
				},
				Notify: func() { mgr.NotifyShard(coreShard) },
				Rec:    recs[r],
				Bufs:   bufs,
				Pools:  pools,
			})
			coreShard = mgrs[r].Register(cores[r], pioman.ClassNet)
		}
		for r := 0; r < cfg.NP; r++ {
			if cfg.Stack.Backend == cluster.BackendDirect {
				core.NewDirect(procs[r], cores[r], cfg.Stack.Direct)
			} else {
				core.NewGenericNmad(procs[r], cores[r], cfg.Stack.Packet)
			}
		}
	case cluster.BackendPacket:
		backends := make([]*core.Packet, cfg.NP)
		for r := 0; r < cfg.NP; r++ {
			backends[r] = core.NewPacket(procs[r], e, net, placement.NodeOf(r),
				mgrs[r], cfg.Stack.Packet)
		}
		core.LinkPacketPeers(backends)
	default:
		return fmt.Errorf("mpi: unknown backend %d", cfg.Stack.Backend)
	}
	return nil
}
