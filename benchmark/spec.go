package main

import "encoding/json"

// The benchmark's one declaration site: workloads, end-to-end metrics and
// per-layer metrics with their unit, direction and clock. BENCHMARK.json at
// the repository root is printed from these tables (-print-spec) and the
// smoke test fails when the two drift apart. Later PRs are judged by these
// names, so they are fixed.

// Clocks. A virtual or count metric is a pure function of the seed and must
// repeat bit-for-bit; a host metric is CPU time (wall time in the probes,
// which time microseconds) or memory of the simulator process and carries
// run-to-run noise.
const (
	host    = "host"
	virtual = "virtual"
	count   = "count"
)

// workload is one set of inputs the benchmark runs: its contract name, why
// it exists, and the function that runs it.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(o *runOpts) (*runOut, error)
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Clock  string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var workloads = []workload{
	{"pingpong_net", "eager inter-node echo: vtime switches, core, nmad pack and simnet do the work; shmq, nemesis, coll, nbc and pioman do none",
		func(o *runOpts) (*runOut, error) { return runPingpong(o, false) }},
	{"pingpong_shm", "same echo on one node: nemesis, shmq and ch3 do the work, nmad and simnet none; the pair isolates what both paths share",
		func(o *runOpts) (*runOut, error) { return runPingpong(o, true) }},
	{"multirail_stream", "rendezvous windows split over two rails: payload copies and buffer allocation on the host, split quality in virtual time",
		runMultirailStream},
	{"coll_storm", "1000 nonblocking allreduces in flight under PIOMan, 5 refills a batch: ch3 matching depth, request/op pools, nbc rounds, task queue, rebind",
		func(o *runOpts) (*runOut, error) { return runCollStorm(o, stormInFlight) }},
	{"coll_sweep", "blocking collectives cycling 24 cached shapes at NP=16: selection, rebind and segmented schedules with shallow queues, no PIOMan",
		runCollSweep},
	{"np_scale", "NP=1024 on a rack hierarchy, one world per batch: world build, lazy per-rank state, schedule compile and a 1024-proc event heap",
		runNPScale},
	{"nas_mix", "NAS CG, IS, FT, MG, LU class A at NP=8 with the tuned table: every layer does a modest share, as in the paper's Fig. 8",
		runNASMix},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Bounds are set from the measured run-to-run spread (ten seeds, quartile
// distance over median, see README): each is at least three times the widest
// spread seen on any workload, and at most the contract's 0.25. The two
// timed metrics sit at that maximum because the sandbox itself slows down by
// 10–15 % for minutes at a time; virtual_s is exact on one seed and its
// bound only has to cover what ten seeds differ by (0.12 %).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", host, 0.25},
	{"ops_per_s", "1/s", "higher", host, 0.25},
	{"allocs_per_op", "count", "lower", host, 0.02},
	{"alloc_kb_per_op", "kB", "lower", host, 0.05},
	{"live_heap_mb", "MB", "lower", host, 0.10},
	{"virtual_s", "s", "lower", virtual, 0.01},
}

// Per-layer metrics, grouped by the package they account for. The README
// maps each to the end-to-end metric and workload it should move.
var perLayerDefs = []metricDef{
	// vtime
	{"vtime.events_per_op", "count", "lower", count, 0},
	{"vtime.host_ns_per_event", "ns", "lower", host, 0},
	{"vtime.probe.event_ns", "ns", "lower", host, 0},
	{"vtime.probe.event_ns_deep", "ns", "lower", host, 0},
	{"vtime.probe.switch_ns", "ns", "lower", host, 0},
	{"vtime.probe.switch_ns_2p", "ns", "lower", host, 0},
	{"vtime.probe.cond_wake_ns", "ns", "lower", host, 0},
	// simnet
	{"simnet.probe.transfer_ns", "ns", "lower", host, 0},
	{"simnet.packets_per_op", "count", "lower", count, 0},
	{"simnet.wire_bytes_per_op", "B", "lower", count, 0},
	// shmq, nemesis
	{"shmq.probe.enq_deq_ns", "ns", "lower", host, 0},
	{"nemesis.probe.fragment_ns", "ns", "lower", host, 0},
	{"nemesis.probe.fragment_allocs", "count", "lower", host, 0},
	{"nemesis.virt_share", "ratio", "lower", virtual, 0},
	// nmad (the core adapter's cost is accounted here)
	{"nmad.probe.eager_msg_ns", "ns", "lower", host, 0},
	{"nmad.probe.eager_msg_allocs", "count", "lower", host, 0},
	{"nmad.probe.rdv_ns_per_KiB", "ns", "lower", host, 0},
	{"nmad.probe.rdv_msg_allocs", "count", "lower", host, 0},
	{"nmad.probe.split_preview_ns", "ns", "lower", host, 0},
	{"nmad.msgs_per_packet", "ratio", "higher", count, 0},
	{"nmad.rail0_byte_share", "ratio", "lower", count, 0},
	{"nmad.virt_share", "ratio", "lower", virtual, 0},
	// ch3
	{"ch3.probe.match_ns_depth16", "ns", "lower", host, 0},
	{"ch3.probe.match_ns_depth4096", "ns", "lower", host, 0},
	{"ch3.probe.match_anysrc_ns_depth4096", "ns", "lower", host, 0},
	{"ch3.probe.isend_shm_ns", "ns", "lower", host, 0},
	{"ch3.probe.isend_shm_allocs", "count", "lower", host, 0},
	{"ch3.req_pool_hit_rate", "ratio", "higher", count, 0},
	{"ch3.reqs_in_flight_peak", "count", "lower", count, 0},
	{"ch3.depth_slope", "ratio", "lower", host, 0},
	{"ch3.virt_share", "ratio", "lower", virtual, 0},
	// pioman
	{"pioman.polls_per_op", "count", "lower", count, 0},
	{"pioman.poll_yield", "ratio", "higher", count, 0},
	{"pioman.bg_tasks_per_op", "count", "lower", count, 0},
	{"pioman.bg_share", "ratio", "higher", count, 0},
	{"pioman.steals", "count", "lower", count, 0},
	{"pioman.probe.task_ns", "ns", "lower", host, 0},
	{"pioman.probe.poll_ns", "ns", "lower", host, 0},
	{"pioman.virt_share", "ratio", "lower", virtual, 0},
	// topo
	{"topo.probe.distance_ns", "ns", "lower", host, 0},
	{"topo.probe.placement_ns_np4096", "ns", "lower", host, 0},
	// nbc
	{"nbc.bg_rounds_per_op", "count", "lower", count, 0},
	{"nbc.op_pool_hit_rate", "ratio", "higher", count, 0},
	{"nbc.probe.round_ns", "ns", "lower", host, 0},
	{"nbc.probe.start_allocs", "count", "lower", host, 0},
	// coll, tune
	{"coll.probe.select_ns", "ns", "lower", host, 0},
	{"coll.probe.keyfor_ns", "ns", "lower", host, 0},
	{"coll.probe.rebind_ns", "ns", "lower", host, 0},
	{"coll.probe.build_ns_np16", "ns", "lower", host, 0},
	{"coll.probe.build_ns_np1024", "ns", "lower", host, 0},
	{"coll.probe.build_allocs_np1024", "count", "lower", host, 0},
	{"coll.probe.parse_table_ns", "ns", "lower", host, 0},
	{"coll.sched_cache_hit_rate", "ratio", "higher", count, 0},
	{"coll.compiles_per_op", "count", "lower", count, 0},
	{"coll.round_us_mean", "us", "lower", virtual, 0},
	{"coll.virt_share", "ratio", "lower", virtual, 0},
	{"tune.probe.table_for_ns", "ns", "lower", host, 0},
	// trace
	{"trace.overhead_frac", "ratio", "lower", host, 0},
	{"trace.events_per_op", "count", "lower", count, 0},
	{"trace.probe.record_ns", "ns", "lower", host, 0},
	{"trace.probe.write_chrome_MBps", "MB/s", "higher", host, 0},
	// mpi
	{"mpi.world_build_ms", "ms", "lower", host, 0},
	{"mpi.probe.world_build_ms_np4096", "ms", "lower", host, 0},
	{"mpi.start_ns_per_op", "ns", "lower", host, 0},
	{"mpi.probe.cached_start_allocs", "count", "lower", host, 0},
	{"mpi.live_heap_kb_per_rank", "kB", "lower", host, 0},
	{"mpi.virt_share", "ratio", "lower", virtual, 0},
	// nas (zero on every workload but nas_mix)
	{"nas.virt_s_CG", "s", "lower", virtual, 0},
	{"nas.virt_s_IS", "s", "lower", virtual, 0},
	{"nas.virt_s_FT", "s", "lower", virtual, 0},
	{"nas.virt_s_MG", "s", "lower", virtual, 0},
	{"nas.virt_s_LU", "s", "lower", virtual, 0},
	{"nas.host_ms_CG", "ms", "lower", host, 0},
	{"nas.host_ms_IS", "ms", "lower", host, 0},
	{"nas.host_ms_FT", "ms", "lower", host, 0},
	{"nas.host_ms_MG", "ms", "lower", host, 0},
	{"nas.host_ms_LU", "ms", "lower", host, 0},
	// model sheet: virtual, exact, the paper-shape values later issues cite
	{"simnet.model.lat_4B_us", "us", "lower", virtual, 0},
	{"nmad.model.bw_1MiB_MBps", "MB/s", "higher", virtual, 0},
	{"nmad.model.multirail_additivity", "ratio", "higher", virtual, 0},
	{"pioman.model.shm_sync_overhead_ns", "ns", "lower", virtual, 0},
	{"pioman.model.overlap_ratio_p2p", "ratio", "higher", virtual, 0},
	{"nbc.model.overlap_ratio_iallreduce", "ratio", "higher", virtual, 0},
}

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds, and the default of -seconds). The driver's 158 runs must end
// within 3420 s: 140 end-to-end runs of 14 s plus 1-3 s of set-ups, 14
// per-layer runs of 18-28 s and two builds come to about 2700 s.
const runSeconds = 14

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEndDefs {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}

// defOf finds a metric declaration by name in either table.
func defOf(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
