// Package tune calibrates collective algorithm selection per MPI stack: it
// sweeps op × payload size × candidate algorithm through the collbench
// harness (deterministic virtual time, so calibration is reproducible to
// the byte), detects the crossover points where the winning algorithm
// changes, and emits a coll.Table of per-operation size thresholds. The
// paper's observation motivates the whole exercise: swapping the
// communication subsystem under MPICH2 (NewMadeleine/PIOMan vs a classic
// packet module) moves the latency/bandwidth crossovers, so thresholds
// hard-coded for one stack mis-select on another.
//
// Calibrated tables for the preset stacks ship embedded (tables.go,
// regenerated by `go run ./cmd/colltune -stack all -out internal/coll/tune/tables`);
// TableFor retrieves them by stack name. Check verifies the tuned table
// never selects a slower algorithm than the defaults on any swept point.
package tune

import (
	"fmt"
	"sort"

	"repro/bench"
	"repro/cluster"
	"repro/internal/coll"
)

// Candidates lists the flat algorithms worth sweeping per operation — the
// same pools the selector chooses from (two-level is topology's decision,
// not a size tradeoff, so it is never swept here). The segmented
// (pipelined) candidates additionally sweep the Options.Segs segment-size
// dimension, so calibration finds segment-size × algorithm crossovers, not
// just algorithm crossovers. cmd/collbench derives its sweep grid from
// this map too, so the two stay in lockstep.
var Candidates = map[coll.OpKind][]coll.Algo{
	coll.OpBcast:         {coll.AlgoBinomial, coll.AlgoScatterAllgather, coll.AlgoChain, coll.AlgoSegBinomial},
	coll.OpAllreduce:     {coll.AlgoRecDoubling, coll.AlgoRabenseifner, coll.AlgoSegRing},
	coll.OpAllgather:     {coll.AlgoBruck, coll.AlgoRing},
	coll.OpAlltoall:      {coll.AlgoPairwise},
	coll.OpAllgatherv:    {coll.AlgoBruck, coll.AlgoRing},
	coll.OpReduceScatter: {coll.AlgoRecHalving, coll.AlgoPairwise},
	coll.OpAlltoallv:     {coll.AlgoPairwise, coll.AlgoRing},
}

// DefaultOps are the operations whose selection is a byte-threshold
// tradeoff, i.e. expressible as table entries — derived from
// coll.ByteTunable over the registry (operation-major order), so the sweep
// grid and table validation can never drift.
func DefaultOps() []coll.OpKind {
	var ops []coll.OpKind
	seen := make(map[coll.OpKind]bool)
	for _, r := range coll.Registrations() {
		if !seen[r.Op] && coll.ByteTunable(r.Op) {
			seen[r.Op] = true
			ops = append(ops, r.Op)
		}
	}
	return ops
}

// Options shapes one calibration sweep.
type Options struct {
	// NP is the rank count the sweep runs at (default 8). Ignored when NPs
	// is set.
	NP int
	// NPs are the rank counts calibrated, ascending; each becomes one
	// rank-count band of the emitted table (crossovers measured at one NP
	// say nothing about another — banding records the calibration's own
	// validity range). Default {NP}.
	NPs []int
	// Iters averages each measurement (default 4).
	Iters int
	// Sizes are the per-rank payload bytes swept, ascending (default a
	// 256 B .. 1 MB ladder).
	Sizes []int
	// Ops restricts the sweep (default DefaultOps).
	Ops []coll.OpKind
	// Segs are the pipeline segment sizes (bytes) swept for the segmented
	// candidate algorithms (default a 4 KiB .. 64 KiB ladder). Non-segmented
	// algorithms measure once with seg 0.
	Segs []int
	// Stripes are the rail-stripe widths swept for the rail-striped
	// candidate algorithms on multirail stacks (0 = unstriped, which is
	// always swept so the crossover against no striping is measured).
	// Default {0, rail count}. Ignored — everything measures unstriped —
	// when the stack has fewer than two rails, so single-rail sweeps are
	// byte-identical with or without the option.
	Stripes []int
}

func (o Options) withDefaults() Options {
	if o.NP == 0 {
		o.NP = 8
	}
	if len(o.NPs) == 0 {
		o.NPs = []int{o.NP}
	}
	nps := append([]int(nil), o.NPs...)
	sort.Ints(nps)
	o.NPs = nps[:1]
	for _, np := range nps[1:] {
		if np != o.NPs[len(o.NPs)-1] {
			o.NPs = append(o.NPs, np)
		}
	}
	if o.Iters == 0 {
		o.Iters = 4
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	sizes := append([]int(nil), o.Sizes...)
	sort.Ints(sizes)
	o.Sizes = sizes
	if len(o.Ops) == 0 {
		o.Ops = DefaultOps()
	}
	if len(o.Segs) == 0 {
		o.Segs = []int{4 << 10, 16 << 10, 64 << 10}
	}
	segs := append([]int(nil), o.Segs...)
	sort.Ints(segs)
	o.Segs = segs
	return o
}

// stripeLadder resolves the stripe widths swept on a stack with rails
// rails: {0} when striping cannot apply (fewer than two rails), the
// normalized Options.Stripes otherwise (0 forced in, widths beyond the rail
// count dropped — they would measure identically to full width), defaulting
// to {0, rails}.
func stripeLadder(opts []int, rails int) []int {
	if rails < 2 {
		return []int{0}
	}
	if len(opts) == 0 {
		return []int{0, rails}
	}
	ws := append([]int{0}, opts...)
	sort.Ints(ws)
	out := ws[:0]
	for _, w := range ws {
		if w < 0 || w > rails {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == w {
			continue
		}
		out = append(out, w)
	}
	return out
}

// Point is one measurement of the sweep.
type Point struct {
	Op coll.OpKind `json:"op"`
	// NP is the rank count this point was measured at.
	NP int `json:"np"`
	// Algo is the forced algorithm (normalized: points are only taken for
	// algorithms that actually build at the swept rank count). AlgoTwoLevel
	// points calibrate the flat-vs-two-level crossover, not a flat
	// threshold.
	Algo coll.Algo `json:"algo"`
	// Seg is the forced pipeline segment size for segmented algorithms
	// (0 for the monolithic ones).
	Seg int `json:"seg,omitempty"`
	// Stripe is the forced rail-stripe width for the rail-striped
	// algorithms on multirail stacks (0 = unstriped).
	Stripe int `json:"stripe,omitempty"`
	// Bytes is the per-rank benchmark payload; SelBytes is the same point
	// in the selector's size space (payloadBytes in the registry) — the
	// coordinate table thresholds live in.
	Bytes    int     `json:"bytes"`
	SelBytes int     `json:"sel_bytes"`
	PerOpUS  float64 `json:"per_op_us"`
}

// Result is one stack's calibration: the emitted table plus every
// measurement behind it.
type Result struct {
	Stack string `json:"stack"`
	NPs   []int  `json:"nps"`
	Iters int    `json:"iters"`
	// Stripes is the resolved stripe-width ladder the sweep actually ran
	// (always {0} on single-rail stacks).
	Stripes []int       `json:"stripes,omitempty"`
	Table   *coll.Table `json:"table"`
	Points  []Point     `json:"points"`
}

// benchName maps a registry op to the collbench harness name.
func benchName(op coll.OpKind) (string, error) {
	switch op {
	case coll.OpBcast:
		return "bcast", nil
	case coll.OpAllreduce:
		return "allreduce", nil
	case coll.OpAllgather:
		return "allgather", nil
	case coll.OpAlltoall:
		return "alltoall", nil
	case coll.OpAlltoallv:
		return "alltoallv", nil
	case coll.OpAllgatherv:
		return "allgatherv", nil
	case coll.OpReduceScatter:
		return "reducescatter", nil
	}
	return "", fmt.Errorf("tune: op %s has no benchmark harness", op)
}

// SelectorBytes converts a per-rank benchmark payload into the selector's
// size space for op at np ranks — mirroring both payloadBytes (registry.go)
// and the buffer layouts CollBenchOnce builds.
func SelectorBytes(op coll.OpKind, np, bytes int) int {
	switch op {
	case coll.OpBcast:
		return bytes
	case coll.OpAllreduce:
		return 8 * (bytes / 8)
	case coll.OpAllgather:
		return bytes * (np + 1) // mine + one block per rank
	case coll.OpAllgatherv:
		return bytes * np // sum of the uniform recvcounts
	case coll.OpReduceScatter:
		return 8 * (bytes / 8) * np // 8·len(x), uniform segments
	}
	return bytes
}

// Sweep measures every candidate algorithm for every (np, op, size) of the
// grid on one stack and derives the rank-count-banded crossover table.
// Operations with a hierarchical variant additionally measure the two-level
// algorithm at every point, calibrating the flat-vs-two-level crossover
// (Table.TwoLevelMin). Deterministic: virtual time depends only on the
// simulated configuration, so two sweeps of the same options emit
// byte-identical tables.
func Sweep(stack cluster.Stack, o Options) (*Result, error) {
	o = o.withDefaults()
	stripes := stripeLadder(o.Stripes, len(stack.Rails))
	res := &Result{Stack: stack.Name, NPs: o.NPs, Iters: o.Iters, Stripes: stripes}
	measure := func(np int, op coll.OpKind, name string, bytes int, algo coll.Algo, seg, stripe int, twoLevel bool) error {
		r, err := bench.CollBenchOnce(stack, bench.CollBenchOptions{
			Op: name, Bytes: bytes, Iters: o.Iters, NP: np, Algo: algo, Seg: seg, Stripe: stripe, TwoLevel: twoLevel,
		})
		if err != nil {
			return fmt.Errorf("tune: %s/%s/seg%d/stripe%d/%dB/np%d on %s: %v", op, algo, seg, stripe, bytes, np, stack.Name, err)
		}
		res.Points = append(res.Points, Point{
			Op: op, NP: np, Algo: algo, Seg: seg, Stripe: stripe, Bytes: bytes,
			SelBytes: SelectorBytes(op, np, bytes),
			PerOpUS:  r.PerOp * 1e6,
		})
		return nil
	}
	for _, np := range o.NPs {
		for _, op := range o.Ops {
			if !coll.ByteTunable(op) {
				return nil, fmt.Errorf("tune: selection for %s does not key on payload size", op)
			}
			cands := Candidates[op]
			if len(cands) == 0 {
				return nil, fmt.Errorf("tune: no candidate algorithms for %s", op)
			}
			name, err := benchName(op)
			if err != nil {
				return nil, err
			}
			for _, bytes := range o.Sizes {
				for _, algo := range cands {
					if coll.FallsBack(op, algo, np) {
						continue // the builder would silently construct another algorithm
					}
					segs := []int{0}
					if coll.Segmented(algo) {
						segs = o.Segs
					}
					strs := []int{0}
					if coll.Striped(op, algo) {
						strs = stripes
					}
					for _, seg := range segs {
						for _, stripe := range strs {
							if err := measure(np, op, name, bytes, algo, seg, stripe, false); err != nil {
								return nil, err
							}
						}
					}
				}
				if coll.HasTwoLevel(op) {
					if err := measure(np, op, name, bytes, coll.AlgoTwoLevel, 0, 0, true); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	table, err := buildTable(stack.Name, o, stripes, res.Points)
	if err != nil {
		return nil, err
	}
	res.Table = table
	return res, nil
}

// npBytes addresses one sweep cell: rank count × benchmark bytes.
type npBytes struct {
	NP, Bytes int
}

// indexPoints arranges sweep measurements as op → (np, bytes) → measured
// configuration → per-op µs, the shape both buildTable and Check consume.
// A configuration is keyed as the coll.Decision that selects it: an
// algorithm plus its pipeline segment size (0 for the monolithic
// algorithms) and its rail-stripe width (0 for unstriped measurements).
func indexPoints(points []Point) map[coll.OpKind]map[npBytes]map[coll.Decision]float64 {
	times := make(map[coll.OpKind]map[npBytes]map[coll.Decision]float64)
	for _, p := range points {
		if times[p.Op] == nil {
			times[p.Op] = make(map[npBytes]map[coll.Decision]float64)
		}
		cell := npBytes{p.NP, p.Bytes}
		if times[p.Op][cell] == nil {
			times[p.Op][cell] = make(map[coll.Decision]float64)
		}
		times[p.Op][cell][coll.Decision{Algo: p.Algo, Seg: p.Seg, Stripe: p.Stripe}] = p.PerOpUS
	}
	return times
}

// candConfigs enumerates the (algo, seg, stripe) configurations swept for
// op, in deterministic preference order: candidate order first
// (latency-optimal algorithms lead), ascending segment sizes within a
// segmented candidate, ascending stripe widths within a segment size — so
// an exact tie keeps the unstriped configuration.
func candConfigs(op coll.OpKind, segs, stripes []int) []coll.Decision {
	var cs []coll.Decision
	for _, algo := range Candidates[op] {
		strs := []int{0}
		if coll.Striped(op, algo) {
			strs = stripes
		}
		if coll.Segmented(algo) {
			for _, seg := range segs {
				for _, stripe := range strs {
					cs = append(cs, coll.Decision{Algo: algo, Seg: seg, Stripe: stripe})
				}
			}
			continue
		}
		for _, stripe := range strs {
			cs = append(cs, coll.Decision{Algo: algo, Stripe: stripe})
		}
	}
	return cs
}

// flatWinner picks the fastest measured flat configuration of a sweep cell.
// Ties keep the earlier configuration — deterministic, and candConfigs
// order puts the latency-optimal algorithm first.
func flatWinner(op coll.OpKind, byCfg map[coll.Decision]float64, segs, stripes []int) (coll.Decision, float64, bool) {
	var winner coll.Decision
	best := 0.0
	found := false
	for _, cfg := range candConfigs(op, segs, stripes) {
		t, ok := byCfg[cfg]
		if !ok {
			continue
		}
		if !found || t < best {
			winner, best, found = cfg, t, true
		}
	}
	return winner, best, found
}

// bandMax assigns the rank-count bound of the i-th calibrated band: the
// midpoint to the next calibrated NP, and twice the largest calibrated NP
// for the final band — beyond which the calibration claims nothing and the
// rank-count-aware defaults take over.
func bandMax(nps []int, i int) int {
	if i == len(nps)-1 {
		return 2 * nps[i]
	}
	return (nps[i] + nps[i+1]) / 2
}

// buildTable turns the sweep's per-size winners into rank-count-banded
// threshold entries: within each calibrated NP, consecutive sizes won by
// the same flat (algorithm, segment size, stripe width) merge into one
// entry whose bound is the last size of the run (in selector space,
// inclusive); the final run is open-ended. Operations with a hierarchical
// variant also derive TwoLevelMin — the selector-space payload above which
// two-level first beats the flat winner at the largest calibrated NP
// (-1: it never does).
func buildTable(stackName string, o Options, stripes []int, points []Point) (*coll.Table, error) {
	times := indexPoints(points)
	table := &coll.Table{Stack: stackName, Bands: make(map[string][]coll.NPBand)}
	for _, op := range o.Ops {
		var bands []coll.NPBand
		for i, np := range o.NPs {
			var entries []coll.TableEntry
			for _, bytes := range o.Sizes {
				winner, _, found := flatWinner(op, times[op][npBytes{np, bytes}], o.Segs, stripes)
				if !found {
					return nil, fmt.Errorf("tune: no measurements for %s at %dB, np %d", op, bytes, np)
				}
				sel := SelectorBytes(op, np, bytes)
				if n := len(entries); n > 0 && entries[n-1].Algo == winner.Algo && entries[n-1].Seg == winner.Seg && entries[n-1].Stripe == winner.Stripe {
					entries[n-1].MaxBytes = sel // extend the run
				} else {
					entries = append(entries, coll.TableEntry{MaxBytes: sel, Algo: winner.Algo, Seg: winner.Seg, Stripe: winner.Stripe})
				}
			}
			entries[len(entries)-1].MaxBytes = -1 // final run is open-ended
			bands = append(bands, coll.NPBand{MaxNP: bandMax(o.NPs, i), Entries: entries})
		}
		table.Bands[op.String()] = bands

		if coll.HasTwoLevel(op) {
			npMax := o.NPs[len(o.NPs)-1]
			min, calibrated := -1, false
			prevSel := 0
			for _, bytes := range o.Sizes {
				byCfg := times[op][npBytes{npMax, bytes}]
				tl, ok := byCfg[coll.Decision{Algo: coll.AlgoTwoLevel}]
				if !ok {
					break // two-level not swept; leave the structural default
				}
				calibrated = true
				_, best, found := flatWinner(op, byCfg, o.Segs, stripes)
				if found && tl < best {
					min = prevSel // two-level first wins here: flat up to the previous size
					break
				}
				prevSel = SelectorBytes(op, npMax, bytes)
			}
			if calibrated {
				if table.TwoLevelMin == nil {
					table.TwoLevelMin = make(map[string]int)
				}
				table.TwoLevelMin[op.String()] = min
			}
		}
	}
	if err := table.Validate(); err != nil {
		return nil, fmt.Errorf("tune: emitted table invalid: %v", err)
	}
	return table, nil
}

// Violation is one swept point where the tuned table selected a slower
// configuration than the built-in defaults — Check returning any is a
// calibration bug.
type Violation struct {
	Op                 coll.OpKind
	NP                 int
	Bytes              int
	Tuned, Default     coll.Decision
	TunedUS, DefaultUS float64
}

func (v Violation) String() string {
	seg := ""
	if v.Tuned.Seg > 0 {
		seg = fmt.Sprintf("/seg%d", v.Tuned.Seg)
	}
	if v.Tuned.Stripe > 0 {
		seg += fmt.Sprintf("/stripe%d", v.Tuned.Stripe)
	}
	return fmt.Sprintf("%s @ %dB np%d: tuned %s%s (%.2fµs) > default %s (%.2fµs)",
		v.Op, v.Bytes, v.NP, v.Tuned.Algo, seg, v.TunedUS, v.Default.Algo, v.DefaultUS)
}

// Check replays selection over every swept point and asserts the tuned
// table's decision — algorithm plus segment size plus stripe width — is
// never slower than the default one. Both are resolved by
// coll.Tuning.Decide, with the stack's rails bound so striped table
// entries resolve: the same code path mpi uses, so builder fallback
// normalization is honoured.
func Check(res *Result) []Violation {
	tuned := &coll.Tuning{Table: res.Table, Stack: res.Stack}
	if s, ok := StackByName(res.Stack); ok {
		tuned.Rails = stackRails(s)
	}
	var def *coll.Tuning
	times := indexPoints(res.Points)
	var viols []Violation
	for op, byCell := range times {
		for cell, byCfg := range byCell {
			sel := SelectorBytes(op, cell.NP, cell.Bytes)
			v := Violation{Op: op, NP: cell.NP, Bytes: cell.Bytes,
				Tuned: tuned.Decide(op, cell.NP, sel, false), Default: def.Decide(op, cell.NP, sel, false)}
			tt, tok := byCfg[v.Tuned]
			dt, dok := byCfg[v.Default]
			if !tok || !dok {
				// A selection outside the measured candidate pool means the
				// sweep grid and the selector disagree — surface it.
				viols = append(viols, v)
				continue
			}
			if tt > dt {
				v.TunedUS, v.DefaultUS = tt, dt
				viols = append(viols, v)
			}
		}
	}
	sort.Slice(viols, func(i, j int) bool {
		if viols[i].Op != viols[j].Op {
			return viols[i].Op < viols[j].Op
		}
		if viols[i].NP != viols[j].NP {
			return viols[i].NP < viols[j].NP
		}
		return viols[i].Bytes < viols[j].Bytes
	})
	return viols
}

// stackRails describes s's rails as selection sees them — what mpi.Run
// puts in coll.Tuning.Rails.
func stackRails(s cluster.Stack) []coll.RailInfo {
	var rails []coll.RailInfo
	for _, rp := range s.Rails {
		rails = append(rails, coll.RailInfo{
			Name: rp.Name, LatencyNS: int64(rp.Latency), BytesPerSec: rp.BytesPerSec,
		})
	}
	return rails
}

// PresetStacks enumerates the stack models worth calibrating.
func PresetStacks() []cluster.Stack {
	return []cluster.Stack{
		cluster.MPICH2NmadIB(),
		cluster.MPICH2NmadMX(),
		cluster.MPICH2NmadMulti(),
		cluster.MVAPICH2(),
		cluster.OpenMPIIB(),
		cluster.OpenMPIBTLMX(),
		cluster.OpenMPICMMX(),
		cluster.MPICH2NemesisGeneric(),
	}
}

// StackByName resolves a preset stack.
func StackByName(name string) (cluster.Stack, bool) {
	for _, s := range PresetStacks() {
		if s.Name == name {
			return s, true
		}
	}
	return cluster.Stack{}, false
}
