// Command colltune calibrates collective algorithm selection for one MPI
// stack (or all presets): it sweeps op × payload × candidate algorithm
// through the collbench harness, derives the crossover thresholds, and
// emits a coll.Table as JSON — loadable via Config.Coll.LoadTable and
// embedded per stack in internal/coll/tune. Virtual time is deterministic,
// so the emitted tables are byte-reproducible.
//
//	colltune                          # calibrate mpich2-nmad-ib, table on stdout
//	colltune -stack all -out DIR      # regenerate every embedded table
//	colltune -check                   # assert tuned ≤ default on every swept point
//	colltune -smoke -out table.json   # tiny CI grid, implies -check
//	colltune -diff stackA stackB      # selection disagreements between two tables
//
// -diff takes two embedded stack names (or paths to colltune-emitted JSON
// files) and prints every (op, size) of the sweep grid where the two
// calibrations select differently — the paper's crossover-shift argument
// made directly visible.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/bench"
	"repro/cluster"
	"repro/internal/coll"
	"repro/internal/coll/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("colltune: ")
	stackFlag := flag.String("stack", "mpich2-nmad-ib",
		"stack preset to calibrate, or \"all\" for every preset")
	np := flag.Int("np", 8, "number of ranks (block-placed)")
	npsFlag := flag.String("nps", "",
		"comma-separated rank counts, one table band each (overrides -np; e.g. 8,64)")
	iters := flag.Int("iters", 4, "iterations per measurement")
	sizesFlag := flag.String("sizes", "", "comma-separated per-rank payload sizes in bytes (default 256B..1MB ladder)")
	opsFlag := flag.String("ops", "", "comma-separated operations to tune (default every byte-tunable op)")
	out := flag.String("out", "-",
		"output file (\"-\" = stdout); a directory with -stack all (one <stack>.json each)")
	check := flag.Bool("check", false,
		"verify the tuned table is never slower than the defaults on any swept point")
	smoke := flag.Bool("smoke", false,
		"tiny CI grid (np=4, iters=2, two sizes); implies -check")
	segsFlag := flag.String("segs", "",
		"comma-separated pipeline segment sizes in bytes swept for the segmented algorithms (default 4K,16K,64K)")
	stripesFlag := flag.String("stripes", "",
		"comma-separated rail-stripe widths swept for the rail-striped algorithms on multirail stacks (0 = unstriped, always included; default 0 and the rail count; ignored on single-rail stacks)")
	diff := flag.Bool("diff", false,
		"compare two tables: colltune -diff stackA stackB (embedded stack names or JSON files)")
	flag.Parse()

	opts := tune.Options{NP: *np, Iters: *iters}
	if *npsFlag != "" {
		for _, f := range strings.Split(*npsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				log.Fatalf("bad rank count %q", f)
			}
			opts.NPs = append(opts.NPs, n)
		}
	}
	if *segsFlag != "" {
		for _, f := range strings.Split(*segsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				log.Fatalf("bad segment size %q", f)
			}
			opts.Segs = append(opts.Segs, n)
		}
	}
	if *stripesFlag != "" {
		for _, f := range strings.Split(*stripesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 0 {
				log.Fatalf("bad stripe width %q", f)
			}
			opts.Stripes = append(opts.Stripes, n)
		}
	}
	if *sizesFlag != "" {
		for _, f := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				log.Fatalf("bad size %q", f)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}
	if *opsFlag != "" {
		for _, f := range strings.Split(*opsFlag, ",") {
			name := strings.TrimSpace(f)
			op, err := coll.OpKindByName(name)
			if err != nil {
				// Also accept the collbench harness spellings
				// ("reducescatter"), so op names move between the two
				// tools unchanged.
				if k, berr := bench.OpKindOf(name); berr == nil {
					op = k
				} else {
					log.Fatal(err)
				}
			}
			opts.Ops = append(opts.Ops, op)
		}
	}
	if *diff {
		if flag.NArg() != 2 {
			log.Fatal("-diff needs exactly two arguments: embedded stack names or table files")
		}
		if n := diffTables(os.Stdout, loadTableArg(flag.Arg(0)), loadTableArg(flag.Arg(1)), opts); n > 0 {
			log.Printf("%d selection disagreements", n)
		} else {
			log.Print("tables agree on the whole grid")
		}
		return
	}

	// -smoke shrinks the grid but never overrides a flag the user set
	// explicitly (the table's selector-space coordinates depend on -np).
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *smoke {
		*check = true
		if !set["np"] {
			opts.NP = 4
		}
		if !set["iters"] {
			opts.Iters = 2
		}
		if len(opts.Sizes) == 0 {
			opts.Sizes = []int{1 << 10, 64 << 10}
		}
	}

	var stacks []cluster.Stack
	if *stackFlag == "all" {
		stacks = tune.PresetStacks()
		if *out == "-" {
			log.Fatal("-stack all needs -out DIR (one table file per stack)")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	} else {
		s, ok := tune.StackByName(*stackFlag)
		if !ok {
			var names []string
			for _, p := range tune.PresetStacks() {
				names = append(names, p.Name)
			}
			log.Fatalf("unknown stack %q (presets: %s, or \"all\")",
				*stackFlag, strings.Join(names, ", "))
		}
		stacks = []cluster.Stack{s}
	}

	runSweeps(stacks, opts, *stackFlag, *out, *check)
}

// loadTableArg resolves a -diff argument: an embedded per-stack
// calibration by name, or a colltune-emitted JSON file by path.
func loadTableArg(arg string) *coll.Table {
	if t := tune.TableFor(arg); t != nil {
		return t
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		log.Fatalf("%q is neither an embedded stack (%s) nor a readable table file: %v",
			arg, strings.Join(tune.CalibratedStacks(), ", "), err)
	}
	t, err := coll.ParseTable(data)
	if err != nil {
		log.Fatal(err)
	}
	return t
}

// diffTables prints every (op, size) of the sweep grid where the two
// calibrations decide differently — algorithm or segment size — resolving
// both through the same Tuning.Decide mpi uses (so builder fallbacks at
// this -np are honoured), and returns the disagreement count.
func diffTables(w io.Writer, ta, tb *coll.Table, opts tune.Options) int {
	tunA := &coll.Tuning{Table: ta, Stack: ta.Stack}
	tunB := &coll.Tuning{Table: tb, Stack: tb.Stack}
	np := opts.NP
	if np == 0 {
		np = 8
	}
	sizes := opts.Sizes
	if len(sizes) == 0 {
		sizes = []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	ops := opts.Ops
	if len(ops) == 0 {
		ops = tune.DefaultOps()
	}
	label := func(d coll.Decision) string {
		if d.Seg > 0 {
			return fmt.Sprintf("%s(seg=%d)", d.Algo, d.Seg)
		}
		return d.Algo.String()
	}
	fmt.Fprintf(w, "selection diff %s vs %s (np=%d, selector-space bytes)\n",
		ta.Stack, tb.Stack, np)
	fmt.Fprintf(w, "%-14s %-10s %-28s %-28s\n", "op", "size", ta.Stack, tb.Stack)
	n := 0
	for _, op := range ops {
		for _, bytes := range sizes {
			sel := tune.SelectorBytes(op, np, bytes)
			dA := tunA.Decide(op, np, sel, false)
			dB := tunB.Decide(op, np, sel, false)
			if dA == dB {
				continue
			}
			n++
			fmt.Fprintf(w, "%-14s %-10s %-28s %-28s\n",
				op, bench.SizeLabel(float64(sel)), label(dA), label(dB))
		}
	}
	return n
}

func runSweeps(stacks []cluster.Stack, opts tune.Options, stackFlag, out string, check bool) {
	for _, s := range stacks {
		res, err := tune.Sweep(s, opts)
		if err != nil {
			log.Fatal(err)
		}
		if check {
			if viols := tune.Check(res); len(viols) > 0 {
				for _, v := range viols {
					log.Printf("%s: VIOLATION %s", s.Name, v)
				}
				log.Fatalf("%s: tuned table slower than defaults on %d of %d swept points",
					s.Name, len(viols), len(res.Points))
			}
			log.Printf("%s: check ok — tuned ≤ default on all %d swept points",
				s.Name, len(res.Points))
		}
		data, err := res.Table.JSON()
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case stackFlag == "all":
			path := filepath.Join(out, s.Name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("%s: wrote %s (%d points, %d ops)",
				s.Name, path, len(res.Points), len(res.Table.OpNames()))
		case out == "-":
			fmt.Print(string(data))
		default:
			if err := os.WriteFile(out, data, 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("%s: wrote %s (%d points, %d ops)",
				s.Name, out, len(res.Points), len(res.Table.OpNames()))
		}
	}
}
