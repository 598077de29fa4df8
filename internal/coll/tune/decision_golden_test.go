package tune

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/coll"
)

// stackTuning is the tuning mpi.Run installs for a preset stack with its
// embedded table: the table, the stack name and the stack's rails.
func stackTuning(t *testing.T, name string) *coll.Tuning {
	t.Helper()
	s, ok := StackByName(name)
	if !ok {
		t.Fatalf("no preset stack %q", name)
	}
	return &coll.Tuning{Table: TableFor(name), Stack: name, Rails: stackRails(s)}
}

// decisionGrid renders every selection decision over a fixed grid: the nil
// tuning, each embedded table with its stack's rails, and one tuning with
// every override set; all operations; a spread of rank counts; selector
// bytes at 0 and at every default and embedded threshold ±1; two-level
// requested or not. Only the rows where the decision changes along bytes
// are printed.
func decisionGrid(t *testing.T) string {
	type named struct {
		name string
		tn   *coll.Tuning
	}
	tunings := []named{{"nil", nil}}
	for _, s := range CalibratedStacks() {
		tunings = append(tunings, named{s, stackTuning(t, s)})
	}
	forced := stackTuning(t, "mpich2-nmad-multi-mx-ib")
	forced.Force = map[coll.OpKind]coll.Algo{
		coll.OpBcast:         coll.AlgoChain,
		coll.OpAllreduce:     coll.AlgoTwoLevel,
		coll.OpAllgather:     coll.AlgoRing,
		coll.OpAlltoallv:     coll.AlgoPairwise,
		coll.OpReduceScatter: coll.AlgoAuto,
	}
	forced.SegBytes = 16 << 10
	forced.StripeWidth = 3
	tunings = append(tunings, named{"forced", forced})

	// The built-in size switch's thresholds, then every calibrated one.
	thresholds := []int{12 << 10, 4 << 10, 32 << 10}
	for _, s := range CalibratedStacks() {
		tab := TableFor(s)
		for _, bands := range tab.Bands {
			for _, b := range bands {
				for _, e := range b.Entries {
					thresholds = append(thresholds, e.MaxBytes)
				}
			}
		}
		for _, m := range tab.TwoLevelMin {
			thresholds = append(thresholds, m)
		}
	}
	sizes := []int{0}
	for _, x := range thresholds {
		if x >= 0 {
			sizes = append(sizes, max(x-1, 0), x, x+1)
		}
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)

	nps := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 1024}
	var sb strings.Builder
	for _, tc := range tunings {
		for op := coll.OpBarrier; op <= coll.OpReduceScatter; op++ {
			for _, np := range nps {
				for _, twoLevel := range []bool{false, true} {
					prev := ""
					for _, b := range sizes {
						d := tc.tn.Decide(op, np, b, twoLevel)
						cur := fmt.Sprintf("%s seg=%d stripe=%d", d.Algo, d.Seg, d.Stripe)
						if cur == prev {
							continue
						}
						prev = cur
						fmt.Fprintf(&sb, "%s %s np=%d two-level=%t bytes>=%d: %s\n",
							tc.name, op, np, twoLevel, b, cur)
					}
				}
			}
		}
	}
	return sb.String()
}

// TestDecisionGolden pins every selection decision over the grid to
// testdata/decisions.txt. Regenerate with -update only when selection is
// meant to change.
func TestDecisionGolden(t *testing.T) {
	path := filepath.Join("testdata", "decisions.txt")
	got := decisionGrid(t)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, golden has %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("got %d lines, golden has %d", len(gl), len(wl))
	}
}
