package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSpecIsBenchmarkJSON keeps the committed BENCHMARK.json and the tables
// in spec.go one declaration: regenerate with `go run . -print-spec`.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, specJSON()) {
		t.Fatal("BENCHMARK.json differs from spec.go; run `go run . -print-spec > ../BENCHMARK.json`")
	}
}

// TestSpecWithinContract checks the limits a BENCHMARK.json is refused for.
func TestSpecWithinContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, tab := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, m := range tab {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("metric %s: bound %v", m.Name, m.Bound)
			}
		}
	}
	for _, m := range endToEndDefs {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	if len(specJSON()) > 64<<10 {
		t.Error("BENCHMARK.json exceeds 64 KiB")
	}
}

// smokeResult runs the whole benchmark at smoke scale and returns its report.
func smokeResult(t *testing.T) *result {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("traced pass of %s left no span file: %v", w.Name, err)
		}
	}
	return &res
}

// TestSmoke runs every workload and probe at 1/100 of the work, twice: every
// declared metric is emitted with its unit, nothing fails, and the two runs
// agree exactly on every virtual and count metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark twice at smoke scale")
	}
	a, b := smokeResult(t), smokeResult(t)
	if len(a.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, %d declared", len(a.Workloads), len(workloads))
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Name != workloads[i].Name {
			t.Errorf("workload %d is %s, declared %s", i, wa.Name, workloads[i].Name)
		}
		if wa.Failed != 0 || !wa.Correct || wa.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", wa.Name, wa.Attempted, wa.Failed, wa.Problems)
		}
		for _, tab := range []struct {
			defs []metricDef
			a, b map[string]value
		}{{endToEndDefs, wa.EndToEnd, wb.EndToEnd}, {perLayerDefs, wa.PerLayer, wb.PerLayer}} {
			if len(tab.a) != len(tab.defs) {
				t.Errorf("%s: %d metrics emitted, %d declared", wa.Name, len(tab.a), len(tab.defs))
			}
			for _, d := range tab.defs {
				va, ok := tab.a[d.Name]
				if !ok || va.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or in unit %q, want %q", wa.Name, d.Name, va.Unit, d.Unit)
					continue
				}
				if vb := tab.b[d.Name]; d.Clock != host && va.Value != vb.Value {
					t.Errorf("%s: %s metric %s does not repeat: %v then %v", wa.Name, d.Clock, d.Name, va.Value, vb.Value)
				}
			}
		}
	}
}
