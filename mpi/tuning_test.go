package mpi

import (
	"strings"
	"testing"

	"repro/cluster"
	"repro/internal/coll"
)

// TestRunRejectsMalformedTuning: misconfigured tuning fails Run with a
// helpful error instead of panicking mid-collective or silently selecting
// defaults.
func TestRunRejectsMalformedTuning(t *testing.T) {
	cfg := xeonCfg(2, cluster.MPICH2NmadIB())
	cfg.Coll.Force = map[coll.OpKind]coll.Algo{coll.OpBarrier: coll.AlgoRing}
	_, err := Run(cfg, func(c *Comm) {})
	if err == nil || !strings.Contains(err.Error(), "no such builder") {
		t.Fatalf("forced ring barrier: err = %v, want builder complaint", err)
	}

	cfg2 := xeonCfg(2, cluster.MPICH2NmadIB())
	cfg2.Coll.Table = &coll.Table{Stack: "x", Bands: map[string][]coll.NPBand{
		"bcast": {{MaxNP: -1, Entries: []coll.TableEntry{{MaxBytes: 4096, Algo: coll.AlgoBinomial}}}}, // no unbounded tail
	}}
	_, err = Run(cfg2, func(c *Comm) {})
	if err == nil || !strings.Contains(err.Error(), "must be unbounded") {
		t.Fatalf("invalid table: err = %v, want unbounded complaint", err)
	}

	var tn coll.Tuning
	if err := tn.LoadTable([]byte(`{"stack":`)); err == nil {
		t.Fatal("LoadTable accepted truncated JSON")
	}
}

// TestTableChangesExecution: a calibrated table redirects the executed
// algorithm end to end — virtual time under the table matches the forced
// algorithm the table names, and differs from the default selection.
func TestTableChangesExecution(t *testing.T) {
	stack := cluster.MPICH2NmadIB()
	const bytes = 64 << 10 // default bcast selection: scatter-allgather
	measure := func(mut func(*Config)) float64 {
		cfg := xeonCfg(8, stack)
		mut(&cfg)
		rep, err := Run(cfg, func(c *Comm) {
			data := make([]byte, bytes)
			c.Bcast(0, data)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	binomialOnly := &coll.Table{Stack: stack.Name, Bands: map[string][]coll.NPBand{
		"bcast": {{MaxNP: -1, Entries: []coll.TableEntry{{MaxBytes: -1, Algo: coll.AlgoBinomial}}}},
	}}

	tDefault := measure(func(*Config) {})
	tTable := measure(func(cfg *Config) { cfg.Coll.Table = binomialOnly })
	tBinomial := measure(func(cfg *Config) {
		cfg.Coll.Force = map[coll.OpKind]coll.Algo{coll.OpBcast: coll.AlgoBinomial}
	})
	tSag := measure(func(cfg *Config) {
		cfg.Coll.Force = map[coll.OpKind]coll.Algo{coll.OpBcast: coll.AlgoScatterAllgather}
	})

	if tDefault != tSag {
		t.Errorf("default bcast at 64KB = %.3gs, forced scatter-allgather = %.3gs — expected identical", tDefault, tSag)
	}
	if tTable != tBinomial {
		t.Errorf("tabled bcast = %.3gs, forced binomial = %.3gs — table not honoured", tTable, tBinomial)
	}
	if tTable == tDefault {
		t.Errorf("table did not change execution (both %.3gs)", tTable)
	}
}

// The complementary integration test — the shipped embedded calibration
// running through mpi.Run — lives in internal/coll/tune/tune_test.go:
// importing tune here would cycle (tune → bench → mpi).
