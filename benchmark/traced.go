package main

import (
	"sort"
	"strings"

	"repro/internal/trace"
)

// Virtual self-time per layer, from the program's existing trace. The
// program records spans only for MPI entry points (cat "mpi") and progress
// passes (cat "pioman"), completed slices for collective rounds (cat
// "round") and instants for everything below; spans inside the lower
// layers are a later issue. So each rank's timeline is partitioned by the
// innermost thing known to be active, in this order:
//
//  1. a progress pass (on the application thread or a PIOMan worker): its
//     self time is divided evenly among the instants recorded inside it —
//     packet submissions and arrivals (nmad), cell traffic (nemesis),
//     shared-memory protocol steps (ch3) — or stays with pioman when it
//     handled nothing;
//  2. an MPI call other than Compute and the Wait family, divided the same
//     way (a send's time is the ch3 software cost plus the nmad submission),
//     or left with mpi;
//  3. Compute;
//  4. a collective round in flight with the rank otherwise blocked: coll;
//  5. nothing: idle (blocked in a Wait for the wire or a peer).
//
// Shares are fractions of rank-seconds (ranks × run length), so they sum to
// exactly 1 with compute and idle included.

type seg struct {
	lo, hi int64
	layer  string
}

// instantLayer maps an instant's category to the layer that emitted it.
func instantLayer(cat, name string) string {
	switch cat {
	case "nmad":
		return "nmad"
	case "nemesis":
		return "nemesis"
	case "sched":
		return "coll"
	case "proto":
		if strings.HasPrefix(name, "net-") {
			return "nmad"
		}
		return "ch3"
	}
	return ""
}

// spanLayer classifies an open span: its own layer and its priority class
// (1 progress, 2 MPI call, 3 compute, 0 not attributed — the Wait family,
// whose self time is blocked time).
func spanLayer(cat, name string) (layer string, class int) {
	switch {
	case cat == "pioman":
		return "pioman", 1
	case cat != "mpi":
		return "", 0
	case name == "Compute":
		return "compute", 3
	case strings.HasPrefix(name, "Wait"):
		return "", 0
	}
	return "mpi", 2
}

type openSpan struct {
	layer    string
	class    int
	self     [][2]int64 // self intervals closed so far
	cursor   int64      // where the next self interval starts
	instants []string   // layers of the instants recorded in this span's self time
}

// virtShares folds traced worlds into per-layer shares of rank-seconds.
func virtShares(traces []*trace.Trace) map[string]float64 {
	total := make(map[string]int64)
	var rankNs int64
	for _, t := range traces {
		length := worldShares(t, total)
		rankNs += length * int64(t.NP())
	}
	shares := make(map[string]float64)
	var attributed int64
	for layer, ns := range total {
		shares[layer] = ratio(float64(ns), float64(rankNs))
		attributed += ns
	}
	shares["idle"] = ratio(float64(rankNs-attributed), float64(rankNs))
	return shares
}

// worldShares adds one world's attributed nanoseconds per layer to total
// and returns the world's length in virtual nanoseconds.
func worldShares(t *trace.Trace, total map[string]int64) int64 {
	type track struct{ rank, tid int }
	stacks := make(map[track][]*openSpan)
	classes := make([][4][]seg, t.NP()) // per rank, per class (4 = rounds)
	var length int64

	closeSpan := func(rank int, s *openSpan, end int64) {
		if end > s.cursor {
			s.self = append(s.self, [2]int64{s.cursor, end})
		}
		if s.class == 0 {
			return
		}
		c := &classes[rank][s.class]
		if len(s.instants) == 0 {
			for _, iv := range s.self {
				*c = append(*c, seg{iv[0], iv[1], s.layer})
			}
			return
		}
		// Divide the self time evenly, in order, among the instants.
		var selfNs int64
		for _, iv := range s.self {
			selfNs += iv[1] - iv[0]
		}
		per := selfNs / int64(len(s.instants))
		k, left := 0, per
		for _, iv := range s.self {
			lo := iv[0]
			for lo < iv[1] {
				hi := iv[1]
				last := k == len(s.instants)-1
				if !last && hi-lo > left {
					hi = lo + left
				}
				*c = append(*c, seg{lo, hi, s.instants[k]})
				left -= hi - lo
				lo = hi
				if left == 0 && !last {
					k, left = k+1, per
				}
			}
		}
	}

	events := t.Events()
	for i := range events {
		ev := &events[i]
		ts := int64(ev.Ts)
		if end := ts + int64(ev.Dur); end > length {
			length = end
		}
		tr := track{ev.Rank, ev.Tid}
		switch ev.Ph {
		case 'B':
			st := stacks[tr]
			if n := len(st); n > 0 {
				p := st[n-1]
				if ts > p.cursor {
					p.self = append(p.self, [2]int64{p.cursor, ts})
				}
			}
			layer, class := spanLayer(ev.Cat, ev.Name)
			stacks[tr] = append(st, &openSpan{layer: layer, class: class, cursor: ts})
		case 'E':
			st := stacks[tr]
			if len(st) == 0 {
				continue
			}
			s := st[len(st)-1]
			stacks[tr] = st[:len(st)-1]
			closeSpan(ev.Rank, s, ts)
			if n := len(st) - 1; n > 0 {
				st[n-1].cursor = ts
			}
		case 'i':
			if l := instantLayer(ev.Cat, ev.Name); l != "" {
				if st := stacks[tr]; len(st) > 0 {
					st[len(st)-1].instants = append(st[len(st)-1].instants, l)
				}
			}
		case 'X':
			if ev.Cat == "round" && ev.Dur > 0 {
				classes[ev.Rank][0] = append(classes[ev.Rank][0], seg{ts, ts + int64(ev.Dur), "coll"})
			}
		}
	}

	for rank := range classes {
		c := &classes[rank]
		var covered []seg // disjoint, sorted: time already attributed
		for _, class := range []int{1, 2, 3, 0} {
			segs := c[class]
			sort.Slice(segs, func(i, j int) bool { return segs[i].lo < segs[j].lo })
			fresh := subtract(segs, covered)
			for _, s := range fresh {
				total[s.layer] += s.hi - s.lo
			}
			covered = merge(covered, fresh)
		}
	}
	return length
}

// subtract returns the parts of segs (sorted by lo, possibly overlapping
// each other) not covered by mask (sorted, disjoint) nor by an earlier seg.
func subtract(segs, mask []seg) []seg {
	var out []seg
	var reach int64 // everything below reach is already emitted or masked
	j := 0
	for _, s := range segs {
		lo := s.lo
		if lo < reach {
			lo = reach
		}
		for lo < s.hi {
			for j < len(mask) && mask[j].hi <= lo {
				j++
			}
			if j == len(mask) || mask[j].lo >= s.hi {
				out = append(out, seg{lo, s.hi, s.layer})
				break
			}
			if mask[j].lo > lo {
				out = append(out, seg{lo, mask[j].lo, s.layer})
			}
			lo = mask[j].hi
		}
		if s.hi > reach {
			reach = s.hi
		}
	}
	return out
}

// merge combines two sorted disjoint lists that do not overlap each other.
func merge(a, b []seg) []seg {
	out := make([]seg, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].lo <= b[0].lo {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
