package main

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/trace"
)

// workloadResult is one workload's entry in the report.
type workloadResult struct {
	Name      string           `json:"name"`
	Why       string           `json:"why"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`

	// How the host timings were taken: batches of fixed work, their lower
	// decile (what ops_per_s divides by, see quietNs), their median and the
	// highest percentile with at least ten samples beyond it, in CPU time
	// (see cpuNow).
	Batches       int     `json:"batches"`
	BatchQuietMs  float64 `json:"batch_quiet_ms"`
	BatchMedianMs float64 `json:"batch_median_ms"`
	TailPct       float64 `json:"tail_pct,omitempty"`
	TailMs        float64 `json:"tail_ms,omitempty"`
	TimedSeconds  float64 `json:"timed_seconds"`

	Problems []string `json:"problems,omitempty"`
}

// absorb adds a run's attempted and failed ops. Failures found during the
// untimed warm-up batch count too, so failed is capped at attempted.
func (res *workloadResult) absorb(out *runOut) {
	ops := out.opsPerBatch * int64(len(out.batchNs))
	res.Attempted += ops
	if out.failed > ops {
		out.failed = ops
	}
	res.Failed += out.failed
	res.Correct = res.Failed == 0
	res.Problems = append(res.Problems, out.problems...)
}

func put(m map[string]value, name string, v float64) {
	d, ok := defOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	m[name] = value{v, d.Unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// baseOpts is the run both passes start from.
func baseOpts(o options) runOpts {
	ro := runOpts{seed: o.seed, scale: fullScale, seconds: o.seconds}
	if o.smoke {
		ro.scale, ro.batches = smokeScale, 2
	}
	return ro
}

// setupSamples is how many set-up-only runs an end-to-end measurement makes
// beside the timed run: half before it, half after, so that they see two
// stretches of the machine a quarter of a minute apart. setup_s is the fastest of
// them and the timed run's own, by the rule of ops_per_s (see quietNs): two
// sets of ten runs of one commit read 83 and 107 ms for nas_mix when it was
// the median of five consecutive set-ups, while the neighbour that added
// the 24 ms moved nas_mix's lower-decile batch by 11 %.
const setupSamples = 8

// measureEndToEnd runs the workload untraced for its time box and derives
// the end-to-end metrics.
func measureEndToEnd(wl *workload, o options) (*workloadResult, error) {
	ro := baseOpts(o)
	var setups []int64
	sampleSetups := func() error {
		for i := 0; i < setupSamples/2 && !o.smoke; i++ {
			so := ro
			so.setupOnly = true
			// Every set-up starts from a collected heap: it reuses the pages
			// the last one left and does not fault in new ones (set-ups of one
			// run read 225-370 ms without this, 197-207 ms with it).
			runtime.GC()
			out, err := wl.run(&so)
			if err != nil {
				return err
			}
			setups = append(setups, out.setupNs)
		}
		return nil
	}
	if err := sampleSetups(); err != nil {
		return nil, err
	}
	runtime.GC()
	out, err := wl.run(&ro)
	if err != nil {
		return nil, err
	}
	nb := len(out.batchNs)
	if nb == 0 {
		return nil, fmt.Errorf("no timed batch ran")
	}
	setups = append(setups, out.setupNs)
	if err := sampleSetups(); err != nil {
		return nil, err
	}
	ops := float64(out.opsPerBatch) * float64(nb)

	res := &workloadResult{Name: wl.Name, Why: wl.Why}
	res.absorb(out)
	m := make(map[string]value)
	put(m, "setup_s", quietNs(setups)/1e9)
	put(m, "ops_per_s", ratio(float64(out.opsPerBatch), quietNs(out.batchNs)/1e9))
	put(m, "allocs_per_op", float64(out.mallocs)/ops)
	put(m, "alloc_kb_per_op", float64(out.allocBytes)/1e3/ops)
	put(m, "live_heap_mb", float64(out.liveHeap)/1e6)
	put(m, "virtual_s", float64(out.batchVirt[0])/1e9)
	res.EndToEnd = m

	res.Batches = nb
	res.BatchQuietMs = quietNs(out.batchNs) / 1e6
	res.BatchMedianMs = medianNs(out.batchNs) / 1e6
	if pct, v, ok := tail(out.batchNs); ok {
		res.TailPct, res.TailMs = pct, v/1e6
	}
	for _, ns := range out.batchNs {
		res.TimedSeconds += float64(ns) / 1e9
	}
	return res, nil
}

// measurePerLayer derives the per-layer metrics from three fixed-work
// passes — a counted untraced pass at full scale, then an untraced and a
// traced pass at trace scale — plus the probes and the model sheet, which
// do not depend on the workload and are measured once per process.
func measurePerLayer(wl *workload, o options, probes *probeSet) (*workloadResult, error) {
	res := &workloadResult{Name: wl.Name, Why: wl.Why}
	m := make(map[string]value)
	for _, d := range perLayerDefs {
		put(m, d.Name, 0) // a layer that does no work on this workload reads 0
	}

	counted := baseOpts(o)
	counted.batches = 2
	cnt, err := wl.run(&counted)
	if err != nil {
		return nil, err
	}
	res.absorb(cnt)
	ops, events := float64(cnt.worldOps), float64(cnt.events)
	var packets, wire float64
	for _, r := range cnt.rails {
		packets += float64(r.Packets)
		wire += float64(r.Bytes)
	}
	c := cnt.ctr
	polls := float64(c.AppPolls + c.BgPolls)
	handled := float64(c.AppEvents + c.BgEvents)
	put(m, "vtime.events_per_op", ratio(events, ops))
	put(m, "vtime.host_ns_per_event", ratio(float64(cnt.worldNs), events))
	put(m, "simnet.packets_per_op", ratio(packets, ops))
	put(m, "simnet.wire_bytes_per_op", ratio(wire, ops))
	put(m, "nmad.msgs_per_packet", ratio(ops, packets))
	if len(cnt.rails) > 0 {
		put(m, "nmad.rail0_byte_share", ratio(float64(cnt.rails[0].Bytes), wire))
	}
	put(m, "ch3.req_pool_hit_rate", ratio(float64(c.ReqPoolHits), float64(c.ReqPoolHits+c.ReqPoolMisses)))
	put(m, "ch3.reqs_in_flight_peak", float64(c.ReqInFlight))
	put(m, "pioman.polls_per_op", ratio(polls, ops))
	put(m, "pioman.poll_yield", ratio(handled, polls))
	put(m, "pioman.bg_tasks_per_op", ratio(float64(c.BgTasks), ops))
	put(m, "pioman.bg_share", ratio(float64(c.BgEvents), handled))
	put(m, "pioman.steals", float64(c.BgSteals))
	put(m, "nbc.bg_rounds_per_op", ratio(float64(c.NbcBGRounds), ops))
	put(m, "nbc.op_pool_hit_rate", ratio(float64(c.OpPoolHits), float64(c.OpPoolHits+c.OpPoolMisses)))
	put(m, "coll.sched_cache_hit_rate", ratio(float64(c.SchedHits), float64(c.SchedHits+c.SchedCompiles)))
	put(m, "coll.compiles_per_op", ratio(float64(c.SchedCompiles), ops))
	put(m, "mpi.world_build_ms", medianNs(cnt.buildNs)/1e6)
	put(m, "mpi.live_heap_kb_per_rank", float64(cnt.liveHeap)/1e3/float64(cnt.np))
	for name, k := range cnt.kernels {
		put(m, "nas.virt_s_"+name, k.virtS)
		put(m, "nas.host_ms_"+name, k.hostMs)
	}

	// Traced pass and its untraced reference: same seed, same reduced work.
	refOpts := baseOpts(o)
	refOpts.batches = 2
	if !o.smoke {
		refOpts.scale = traceScale
	}
	ref, err := wl.run(&refOpts)
	if err != nil {
		return nil, err
	}
	res.absorb(ref)
	trOpts := refOpts
	trOpts.traced, trOpts.spans = true, newSpanLog()
	trc, err := wl.run(&trOpts)
	if err != nil {
		return nil, err
	}
	res.absorb(trc)
	// Tracing must be behaviour-neutral: same virtual time, same events.
	if trc.events != ref.events || !slices.Equal(trc.batchVirt, ref.batchVirt) {
		res.Failed += trc.opsPerBatch
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(
			"traced pass (%d events, virt %v) differs from its untraced reference (%d, %v)",
			trc.events, trc.batchVirt, ref.events, ref.batchVirt))
	}
	put(m, "trace.overhead_frac", ratio(medianNs(trc.batchNs), medianNs(ref.batchNs))-1)
	put(m, "mpi.start_ns_per_op", ratio(float64(trc.startNs), float64(trc.startCalls)))
	recorded := 0
	var roundUS float64
	var rounds int
	for _, t := range trc.traces {
		recorded += len(t.Events())
		for _, rt := range trace.Summarize(t).RoundTimings {
			roundUS += rt.TotalUS
			rounds += rt.Rounds
		}
	}
	put(m, "trace.events_per_op", ratio(float64(recorded), float64(trc.worldOps)))
	put(m, "coll.round_us_mean", ratio(roundUS, float64(rounds)))
	for layer, share := range virtShares(trc.traces) {
		if _, ok := defOf(layer + ".virt_share"); ok {
			put(m, layer+".virt_share", share)
		}
	}
	if err := trOpts.spans.write(o.outDir, wl.Name); err != nil {
		return nil, err
	}

	for name, v := range probes.values() {
		put(m, name, v)
	}
	if err := probes.writeSpans(o.outDir); err != nil {
		return nil, err
	}
	res.PerLayer = m
	return res, nil
}
