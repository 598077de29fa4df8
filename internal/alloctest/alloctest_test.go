package alloctest_test

import (
	"testing"

	"repro/internal/alloctest"
)

var sink []*[64]byte

//go:noinline
func alloc(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink[:0], new([64]byte))
	}
}

// TestCountsModuleAllocations: a bracket sees each allocation the module's
// code makes, and nothing when it makes none.
func TestCountsModuleAllocations(t *testing.T) {
	sink = make([]*[64]byte, 0, 1)
	for _, n := range []int{0, 1, 7} {
		b := alloctest.Start()
		alloc(n)
		r := b.Stop()
		if r.Objects != int64(n) || r.Bytes != int64(n*64) {
			t.Errorf("%d allocations of 64 B counted as %v", n, r)
		}
		if n > 0 && (len(r.Sites) != 1 || r.Sites[0].Stack[0] != "repro/internal/alloctest_test.alloc") {
			t.Errorf("%d allocations: sites %+v, want one at alloc", n, r.Sites)
		}
	}
}
