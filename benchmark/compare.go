package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// absFloor is, per metric, the absolute change below which two runs count as
// the same whatever the ratio: a 2 ms set-up doubles on scheduler noise, and
// the two-rank worlds hold 0.1 MB, where 10 % is a pool's initial capacity.
var absFloor = map[string]float64{"setup_s": 0.005, "live_heap_mb": 0.1}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// method the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spreadOf is the distance between the first and third quartile as a share
// of the median: the run-to-run noise the bounds are judged against.
func spreadOf(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// samplesOf returns what a result holds for one (workload, metric): the
// repeated measurements of a -spread run, or the single value of a full run.
func (r *result) samplesOf(workload, metric string) ([]float64, bool) {
	if xs, ok := r.Samples[workload][metric]; ok {
		return xs, true
	}
	for _, w := range r.Workloads {
		if w.Name == workload {
			if v, ok := w.EndToEnd[metric]; ok {
				return []float64{v.Value}, true
			}
			if v, ok := w.PerLayer[metric]; ok {
				return []float64{v.Value}, true
			}
		}
	}
	return nil, false
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges B against A for one end-to-end metric.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := mb - ma // positive: B is worse
	if d.Better == "higher" {
		worse = -worse
	}
	rel := ratio(worse, ma)
	if d.Clock != host {
		// Virtual and count metrics repeat bit-for-bit on one seed.
		switch {
		case ma == mb:
			return "same", 0
		case worse > 0:
			return "worse", rel
		}
		return "better", rel
	}
	if sa, sb := spreadOf(a), spreadOf(b); sa > d.Bound || sb > d.Bound {
		return "unresolved", rel
	}
	if floor := absFloor[d.Name]; worse < floor && worse > -floor {
		return "same", rel
	}
	switch {
	case rel > d.Bound:
		return "worse", rel
	case rel < -d.Bound:
		return "better", rel
	}
	return "same", rel
}

// compareFiles prints, per workload and end-to-end metric, B's change
// against A with a verdict, then every exact per-layer metric that differs.
// It exits 1 if any end-to-end metric is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", errors.Join(errA, errB))
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *result, stdout io.Writer) int {
	sameSeed := a.Env.Seed == b.Env.Seed && len(a.Samples) == 0 && len(b.Samples) == 0
	if !sameSeed {
		fmt.Fprintln(stdout, "seeds differ or results are multi-seed: virtual and count metrics are compared as medians, not bit for bit")
	}
	nWorse, nDiffer := 0, 0
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			xa, okA := a.samplesOf(wl.Name, d.Name)
			xb, okB := b.samplesOf(wl.Name, d.Name)
			if !okA || !okB {
				continue
			}
			dd := d
			if !sameSeed && d.Clock != host {
				dd.Clock = host // judge against the bound instead of exactly
			}
			v, rel := verdict(dd, xa, xb)
			if v == "worse" {
				nWorse++
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				wl.Name, d.Name, median(xa), median(xb), 100*rel, 100*d.Bound, v)
		}
		if !sameSeed {
			continue
		}
		for _, d := range perLayerDefs {
			xa, okA := a.samplesOf(wl.Name, d.Name)
			xb, okB := b.samplesOf(wl.Name, d.Name)
			if d.Clock != host && okA && okB && xa[0] != xb[0] {
				nDiffer++
				fmt.Fprintf(stdout, "%-18s %-38s %.9g -> %.9g  differs (%s, exact)\n", wl.Name, d.Name, xa[0], xb[0], d.Clock)
			}
		}
	}
	fmt.Fprintf(stdout, "%d end-to-end metrics worse, %d exact per-layer metrics differ\n", nWorse, nDiffer)
	if nWorse > 0 {
		return 1
	}
	return 0
}

// spreadRuns is the run-to-run acceptance check: it runs every workload n
// times as the driver would — one process per run, consecutive seeds — and
// reports each end-to-end metric's quartile spread against its bound. The
// samples are written to spread.json, which -compare reads like a result.
func spreadRuns(o options, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res := &result{Env: environment{Seed: o.seed, Commit: gitCommit()}, Samples: map[string]map[string][]float64{}}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	}
	status := 0
	for _, name := range names {
		res.Samples[name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(o.seed+int64(i)),
				"--seconds", fmt.Sprint(o.seconds), "--trace", "0", "-out", o.outDir)
			cmd.Stderr = stderr
			outb, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", name, o.seed+int64(i), err)
				return 1
			}
			var line driverLine
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: last line is not the result object: %v\n", name, err)
				return 1
			}
			for m, v := range line.Metrics {
				res.Samples[name][m] = append(res.Samples[name][m], v.Value)
			}
		}
		for _, d := range endToEndDefs {
			xs := res.Samples[name][d.Name]
			sp := spreadOf(xs)
			note := "ok"
			switch {
			case d.Name == "setup_s":
				note = "not judged"
			case sp > d.Bound:
				note = "FAILS its bound"
				status = 1
			case sp > d.Bound/3:
				note = "above a third of its bound"
			}
			fmt.Fprintf(stdout, "%-18s %-18s median %14.6g  spread %6.2f%%  bound %4.0f%%  %s\n",
				name, d.Name, median(xs), 100*sp, 100*d.Bound, note)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.MkdirAll(o.outDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(o.outDir+"/spread.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return status
}
