// Command collstorm stresses the host-side hot paths: each rank keeps a
// window of nonblocking allreduces outstanding across several sibling Split
// communicators and refills it for a number of batches, sweeping the total
// in-flight depth. Where collbench measures virtual time per collective,
// collstorm measures what sustaining thousands of concurrent operations
// costs the *simulator host* — ops/sec, ns/op and allocs/op — exercising
// the bucketed matching queues, the request/op/job free lists and the
// schedule cache's rebind path at depth. The headline check: per-op host
// time stays flat (within 2×) as the window grows from the smallest to the
// largest swept depth, i.e. matching and pooling are O(1) per op, not
// O(in-flight). -json emits machine-readable rows for the perf trajectory
// (BENCH_collstorm.json).
//
// Sweeps beyond depth:
//
//   - -workers runs every depth under each PIOMan worker count (multi-worker
//     background progression), reporting how host throughput scales with
//     progression parallelism at depth.
//   - -npsweep appends a rank-count sweep at a fixed depth (-npdepth),
//     growing the cluster at 8 cores per node past the two-node testbed.
//     Rank counts in the hundreds are routine: transport wiring is
//     allocated lazily and a shared-memory cell holds payload memory only
//     while full, so host cost tracks the traffic actually simulated, and
//     the sweep's verdict pins host ns per engine event flat (within 2×)
//     from the smallest to the largest NP — per-op cost is allowed its
//     algorithmic O(log NP) round growth, but nothing NP-linear may hide
//     under it.
//   - -reps repeats each configuration, interleaved round-robin so host
//     drift spreads evenly, and keeps the median-throughput run: single
//     measurements on a shared host are noisy, and the virtual side of a
//     configuration is bit-identical across repetitions anyway.
//   - -maxallocs exits nonzero when any row's cached-steady-state allocs/op
//     (batches after the first, pools primed) exceeds the bound — the CI
//     allocation-regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/bench"
	"repro/cluster"
)

// row is one measurement at one configuration, JSON-shaped for
// BENCH_collstorm.json.
type row struct {
	Stack    string `json:"stack"`
	NP       int    `json:"np"`
	Splits   int    `json:"splits"`
	Batches  int    `json:"batches"`
	Workers  int    `json:"workers"`
	InFlight int    `json:"in_flight"`
	bench.CollStormResult
}

func main() {
	np := flag.Int("np", 8, "number of ranks (round-robin placed, 8 cores per node)")
	splits := flag.Int("splits", 3, "sibling Split communicators per rank")
	inflight := flag.String("inflight", "100,1000,5000",
		"comma-separated total in-flight op depths to sweep")
	batches := flag.Int("batches", 4, "window refills per depth")
	pioman := flag.Bool("pioman", true, "run under the PIOMan background-progress regime")
	workers := flag.String("workers", "1",
		"comma-separated PIOMan worker counts to sweep at each depth")
	npSweep := flag.String("npsweep", "",
		"comma-separated rank counts for an extra NP sweep at -npdepth (e.g. 4,8,16,64,256)")
	npDepth := flag.Int("npdepth", 1000, "in-flight depth the -npsweep rows run at")
	reps := flag.Int("reps", 1,
		"repetitions per configuration, interleaved; the median-throughput run is kept")
	maxAllocs := flag.Float64("maxallocs", 0,
		"fail (exit 1) if any row's cached allocs/op exceeds this bound (0 = off)")
	jsonOut := flag.Bool("json", false, "emit JSON rows instead of the table")
	flag.Parse()

	depths := intList(*inflight, "in-flight depth")
	workerCounts := intList(*workers, "worker count")
	stack := cluster.MPICH2NmadIB()
	if *pioman {
		stack = stack.WithPIOMan(true)
	}

	type config struct{ np, depth, workers int }
	var cfgs []config
	for _, depth := range depths {
		for _, w := range workerCounts {
			cfgs = append(cfgs, config{*np, depth, w})
		}
	}
	npRows := 0
	if *npSweep != "" {
		for _, n := range intList(*npSweep, "np") {
			cfgs = append(cfgs, config{n, *npDepth, workerCounts[0]})
			npRows++
		}
	}

	// Repetitions are interleaved round-robin over the configurations (rep-
	// major, not config-major) so host-state drift across a long sweep (heap
	// growth, allocator reuse) spreads evenly over the rows instead of
	// penalizing whichever configuration happens to run later. Each row
	// reports its median-throughput repetition: at several percent of host
	// noise the fastest-of-N is biased by lucky scheduling windows, while
	// the median is stable. The virtual side is bit-identical across
	// repetitions, so only the host-time fields differ.
	runs := make([][]bench.CollStormResult, len(cfgs))
	for i := 0; i < *reps; i++ {
		for k, c := range cfgs {
			r, err := bench.CollStormOnce(stack, bench.CollStormOptions{
				NP: c.np, Splits: *splits, InFlight: c.depth, Batches: *batches, Workers: c.workers,
			})
			if err != nil {
				log.Fatalf("collstorm np=%d depth=%d workers=%d: %v", c.np, c.depth, c.workers, err)
			}
			runs[k] = append(runs[k], r)
		}
	}
	rows := make([]row, len(cfgs))
	for k, c := range cfgs {
		rs := runs[k]
		sort.Slice(rs, func(a, b int) bool { return rs[a].OpsPerSec < rs[b].OpsPerSec })
		med := rs[len(rs)/2]
		rows[k] = row{
			Stack: stack.Name, NP: c.np, Splits: *splits, Batches: *batches,
			Workers: c.workers, InFlight: med.InFlight, CollStormResult: med,
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			log.Fatal(err)
		}
		checkAllocs(rows, *maxAllocs)
		return
	}

	fmt.Printf("collective storm (%d splits, %d batches, %s)\n\n",
		*splits, *batches, stack.Name)
	fmt.Printf("%4s %4s %10s %10s %12s %12s %12s %10s %22s\n",
		"np", "wrk", "in-flight", "ops", "ops/sec", "ns/op", "allocs/op", "req-peak", "pools req/op hit%")
	for _, r := range rows {
		cs := r.Counters
		reqPct := pct(cs.ReqPoolHits, cs.ReqPoolMisses)
		opPct := pct(cs.OpPoolHits, cs.OpPoolMisses)
		fmt.Printf("%4d %4d %10d %10d %12.0f %12.0f %12.1f %10d %12s/%-8s\n",
			r.NP, r.Workers, r.InFlight, r.Ops, r.OpsPerSec, r.NsPerOp, r.AllocsPerOp,
			cs.ReqInFlight, reqPct, opPct)
	}

	// Depth-flatness verdict over the base-worker depth sweep.
	var base []row
	for _, r := range rows[:len(rows)-npRows] {
		if r.Workers == workerCounts[0] {
			base = append(base, r)
		}
	}
	if len(base) > 1 {
		lo, hi := base[0], base[len(base)-1]
		ratio := hi.NsPerOp / lo.NsPerOp
		verdict := "flat matching/pooling (within 2x)"
		if ratio > 2 {
			verdict = "REGRESSION: per-op host cost grows with depth"
		}
		fmt.Printf("\nper-op host time %d -> %d in flight: %.2fx — %s\n",
			lo.InFlight, hi.InFlight, ratio, verdict)
	}

	// NP-flatness verdict over the -npsweep rows. One op's host cost
	// legitimately grows O(log NP) — the collective runs that many more
	// rounds, and the engine schedules proportionally more events — so the
	// quantity pinned is host time per engine event: flat per-event cost
	// means matching, pooling and per-rank state carry no NP-dependent
	// terms, which is exactly what lazy wiring and lazy cell pools buy.
	if npRows > 1 {
		nps := rows[len(rows)-npRows:]
		lo, hi := nps[0], nps[len(nps)-1]
		ratio := hi.NsPerEvent / lo.NsPerEvent
		verdict := "flat per-event host cost (within 2x)"
		if ratio > 2 {
			verdict = "REGRESSION: super-linear host cost vs simulated work"
		}
		fmt.Printf("\nnp sweep %d -> %d at depth %d: per-op %.2fx, events/op %.2fx, per-event host cost %.2fx — %s\n",
			lo.NP, hi.NP, lo.InFlight,
			hi.NsPerOp/lo.NsPerOp,
			(float64(hi.Events)/float64(hi.Ops))/(float64(lo.Events)/float64(lo.Ops)),
			ratio, verdict)
	}

	// Worker-scaling verdict at the deepest swept window: the depth sweep's
	// last block holds one row per worker count, all at depths[len-1].
	if len(workerCounts) > 1 {
		deep := rows[len(rows)-npRows-len(workerCounts) : len(rows)-npRows]
		fmt.Printf("\nworker scaling at %d in flight (np=%d):\n", deep[0].InFlight, *np)
		first := deep[0]
		for _, r := range deep {
			mark := ""
			if r.Workers != first.Workers && first.OpsPerSec > 0 {
				mark = fmt.Sprintf("  (%.2fx vs %d worker)", r.OpsPerSec/first.OpsPerSec, first.Workers)
			}
			fmt.Printf("  workers=%d: %10.0f ops/sec, virtual %.4fs, %d engine events%s\n",
				r.Workers, r.OpsPerSec, r.VirtualS, r.Events, mark)
		}
	}
	checkAllocs(rows, *maxAllocs)
}

// checkAllocs enforces the cached-steady-state allocation bound.
func checkAllocs(rows []row, bound float64) {
	if bound <= 0 {
		return
	}
	for _, r := range rows {
		if r.CachedAllocsPerOp > bound {
			fmt.Fprintf(os.Stderr,
				"collstorm: np=%d workers=%d depth=%d cached allocs/op %.1f exceeds bound %.1f\n",
				r.NP, r.Workers, r.InFlight, r.CachedAllocsPerOp, bound)
			os.Exit(1)
		}
	}
}

// intList parses a comma-separated list of positive ints.
func intList(s, what string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			log.Fatalf("bad %s %q", what, f)
		}
		out = append(out, n)
	}
	return out
}

// pct formats a hit percentage from hit/miss counters.
func pct(hits, misses int64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(hits+misses))
}
