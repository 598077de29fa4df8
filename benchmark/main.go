// Command benchmark is the repository's two-clock benchmark: seven
// workloads, end-to-end metrics on the host and the virtual clock, and
// per-layer metrics from counters, micro-probes and a traced pass. See
// README.md in this directory.
//
//	bash benchmark/run.sh                       # every workload, both passes
//	bash benchmark/run.sh -smoke                # the same at 1/100 of the work
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh -spread 10            # run-to-run acceptance check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// DefaultSeed is the seed every committed number uses; HeldOutSeed is
// reserved for checking a later claim on inputs it was not developed on.
const (
	DefaultSeed = 20090525
	HeldOutSeed = 74755
)

// wallCapSeconds is the contract's cap on all driver runs together.
const wallCapSeconds = 3420

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the driver's one-line JSON (default: all workloads, full report)")
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "seeds payloads, sizes inside each class, vector lengths, skews and orders")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "time box of each workload's timed section")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "1/100 of the work, two batches, probes at 3 repetitions")
	fs.StringVar(&o.outDir, "out", defaultOutDir(), "directory for result.json and trace-<workload>.json")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; exit 1 on any 'worse'")
	spread := fs.Int("spread", 0, "run every workload this many times with consecutive seeds and report each metric's quartile spread against its bound")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json as declared in spec.go")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The engine runs one simulated process at a time and hands control
	// between goroutines over channels. With two Ps a handoff may wake the
	// other P (slow) or stay on this one (fast), at the scheduler's whim:
	// measured on the 2-core reference, pingpong_net is 30 % slower and its
	// batch times spread 5x wider at GOMAXPROCS=2 than at 1. One P makes the
	// host clock measure the simulator's work; vtime.probe.switch_ns_2p
	// keeps the two-P handoff cost in view.
	runtime.GOMAXPROCS(1)

	switch {
	case *printSpec:
		stdout.Write(specJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *spread > 0:
		return spreadRuns(o, *spread, stdout, stderr)
	case o.workload != "":
		return driverRun(o, stdout, stderr)
	}
	return fullRun(o, stdout, stderr)
}

// defaultOutDir is benchmark/out whether the command runs from the
// repository root or from this directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one JSON object the driver reads from the last line.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// driverRun measures one workload the way the driver asks: --trace 0 gives
// the end-to-end metrics of a time-boxed untraced run, --trace 1 the
// per-layer metrics of the fixed-work counted and traced passes.
func driverRun(o options, stdout, stderr io.Writer) int {
	wl := workloadByName(o.workload)
	if wl == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	var res *workloadResult
	var err error
	if o.trace == 0 {
		res, err = measureEndToEnd(wl, o)
	} else {
		res, err = measurePerLayer(wl, o, newProbeSet(o.smoke))
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.Name, err)
		return 1
	}
	metrics := res.EndToEnd
	if o.trace != 0 {
		metrics = res.PerLayer
	}
	printMetrics(stdout, wl.Name, metrics)
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", wl.Name, p)
	}
	line, err := json.Marshal(driverLine{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed != 0 {
		return 1
	}
	return 0
}

// printMetrics lists metrics by name with their unit, in declaration order.
func printMetrics(w io.Writer, workload string, metrics map[string]value) {
	for _, tab := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range tab {
			if v, ok := metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-18s %-38s %16.6g %-6s %s\n", workload, d.Name, v.Value, v.Unit, d.Clock)
			}
		}
	}
}

// environment is recorded with every full result.
type environment struct {
	GoVersion   string   `json:"go_version"`
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Commit      string   `json:"git_commit"`
	Seed        int64    `json:"seed"`
	HeldOutSeed int64    `json:"held_out_seed"`
	Smoke       bool     `json:"smoke"`
	WallSeconds float64  `json:"wall_seconds"`
	Warnings    []string `json:"warnings,omitempty"`
}

// result is the full report -compare reads.
type result struct {
	Env       environment       `json:"environment"`
	Workloads []*workloadResult `json:"workloads,omitempty"`
	// Samples holds a -spread run: workload → metric → one value per seed.
	Samples map[string]map[string][]float64 `json:"samples,omitempty"`
}

// gitCommit asks git for HEAD; a checkout that is not a repository reports
// "unknown".
func gitCommit() string {
	outb, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outb))
}

// fullRun measures every workload, both passes, prints every metric by name
// and writes result.json plus one host-span trace per workload.
func fullRun(o options, stdout, stderr io.Writer) int {
	start := time.Now()
	res := &result{Env: environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: gitCommit(), Seed: o.seed, HeldOutSeed: HeldOutSeed, Smoke: o.smoke,
	}}
	if runtime.NumCPU() < 2 {
		res.Env.Warnings = append(res.Env.Warnings, "nproc < 2: host metrics are not comparable with the 2-core reference")
	}
	probes := newProbeSet(o.smoke)
	failed := false
	for i := range workloads {
		wl := &workloads[i]
		e2e, err := measureEndToEnd(wl, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.Name, err)
			return 1
		}
		layers, err := measurePerLayer(wl, o, probes)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s (per-layer pass): %v\n", wl.Name, err)
			return 1
		}
		e2e.PerLayer = layers.PerLayer
		e2e.Attempted += layers.Attempted
		e2e.Failed += layers.Failed
		e2e.Problems = append(e2e.Problems, layers.Problems...)
		printMetrics(stdout, wl.Name, e2e.EndToEnd)
		printMetrics(stdout, wl.Name, e2e.PerLayer)
		fmt.Fprintf(stdout, "%-18s attempted %d failed %d, %d batches, lower decile %.2f ms, median %.2f ms, timed %.2f s\n\n",
			wl.Name, e2e.Attempted, e2e.Failed, e2e.Batches, e2e.BatchQuietMs, e2e.BatchMedianMs, e2e.TimedSeconds)
		for _, p := range e2e.Problems {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", wl.Name, p)
		}
		failed = failed || e2e.Failed != 0
		res.Workloads = append(res.Workloads, e2e)
	}
	res.Env.WallSeconds = time.Since(start).Seconds()
	if runs := 4 + 22*len(workloads); res.Env.WallSeconds/float64(2*len(workloads))*float64(runs) > wallCapSeconds && !o.smoke {
		res.Env.Warnings = append(res.Env.Warnings, fmt.Sprintf(
			"at this pace the driver's %d runs would exceed its %d s cap", runs, wallCapSeconds))
	}
	for _, w := range res.Env.Warnings {
		fmt.Fprintf(stderr, "benchmark: warning: %s\n", w)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.MkdirAll(o.outDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(o.outDir+"/result.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "go %s, nproc %d, GOMAXPROCS %d, commit %s, seed %d, wall %.1f s → %s/result.json\n",
		res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Commit, o.seed, res.Env.WallSeconds, o.outDir)
	if failed {
		return 1
	}
	return 0
}
