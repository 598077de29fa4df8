// Package alloctest counts the heap allocations the module's own code makes,
// for allocation gates that must not see the Go runtime's.
//
// A process-wide counter (runtime.MemStats.Mallocs, testing.AllocsPerRun)
// also counts what the runtime allocates for itself on any goroutine: the
// background scavenger growing a P's timer heap, for one, which shows up in
// a zero-allocation bracket now and then under -race. A Bracket instead
// profiles every allocation (runtime.MemProfileRate = 1) and counts only
// those with a frame of module repro on their stack. Every allocation the
// simulator causes has one — an explicit new or make, a map's growth, a new
// goroutine, an interface box, the runtime's type-assertion cache — while
// the runtime's own background work has none.
package alloctest

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// modulePrefix marks a frame of this module's code.
const modulePrefix = "repro/"

// self is this package's path: its own allocations are not counted.
const self = modulePrefix + "internal/alloctest."

// Bracket is one counting window, from Start to Stop. Allocations on every
// goroutine count, so a bracket opened on one rank's proc sees all ranks'.
// Brackets do not nest: Stop restores the profiling rate Start found.
type Bracket struct {
	rate int
	base map[[32]uintptr]count // allocations per stack at Start
}

// count is the allocations recorded at one stack, over all object sizes.
type count struct{ objects, bytes int64 }

// Result is what a bracket counted.
type Result struct {
	Objects, Bytes int64
	// Sites lists the counted allocations by stack, most objects first.
	Sites []Site
}

// Site is one allocating stack: its frames' functions, innermost first.
type Site struct {
	Objects, Bytes int64
	Stack          []string
}

// Start opens a bracket: it turns on profiling of every allocation,
// collects garbage so that the profile is current, and reads it.
func Start() *Bracket {
	b := &Bracket{rate: runtime.MemProfileRate}
	runtime.MemProfileRate = 1
	runtime.GC()
	b.base = profile()
	return b
}

// Stop closes the bracket: it collects garbage, which publishes the profile
// of every allocation made before it, restores the profiling rate, and
// returns the allocations made since Start whose stack has a frame of
// module repro outside this package.
func (b *Bracket) Stop() Result {
	runtime.GC()
	now := profile()
	runtime.MemProfileRate = b.rate
	var res Result
	for stk, c := range now {
		n, bytes := c.objects-b.base[stk].objects, c.bytes-b.base[stk].bytes
		if n == 0 {
			continue
		}
		stack, ours := frames(stk[:])
		if !ours {
			continue
		}
		res.Objects += n
		res.Bytes += bytes
		res.Sites = append(res.Sites, Site{Objects: n, Bytes: bytes, Stack: stack})
	}
	sort.SliceStable(res.Sites, func(i, j int) bool { return res.Sites[i].Objects > res.Sites[j].Objects })
	return res
}

// String names the counted allocations and their three largest sites.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d objects (%d B)", r.Objects, r.Bytes)
	for i, s := range r.Sites {
		if i == 3 {
			fmt.Fprintf(&sb, "\n  ... %d more sites", len(r.Sites)-i)
			break
		}
		fmt.Fprintf(&sb, "\n  %d objects (%d B) at %s", s.Objects, s.Bytes, strings.Join(s.Stack, " <- "))
	}
	return sb.String()
}

// profile reads the allocation profile, summed per stack: the runtime keeps
// one record per stack and object size.
func profile() map[[32]uintptr]count {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for ok := false; !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	m := make(map[[32]uintptr]count, n)
	for _, r := range recs[:n] {
		c := m[r.Stack0]
		c.objects += r.AllocObjects
		c.bytes += r.AllocBytes
		m[r.Stack0] = c
	}
	return m
}

// frames resolves a profiled stack to function names and reports whether
// the module made the allocation: a frame of module repro, and none of this
// package's own.
func frames(pcs []uintptr) (stack []string, ours bool) {
	for len(pcs) > 0 && pcs[len(pcs)-1] == 0 {
		pcs = pcs[:len(pcs)-1]
	}
	fs := runtime.CallersFrames(pcs)
	for {
		f, more := fs.Next()
		if strings.HasPrefix(f.Function, self) {
			return nil, false
		}
		if strings.HasPrefix(f.Function, modulePrefix) {
			ours = true
		}
		stack = append(stack, f.Function)
		if !more {
			return stack, ours
		}
	}
}
