package bufpool

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestClassOf: every size lands in the smallest class that holds it, class
// capacities ascend four to the octave, and a capacity maps back to itself —
// past maxSize too, where the Pool keeps nothing but larger stores do.
func TestClassOf(t *testing.T) {
	prevIdx, prevSize := -1, 0
	total := 0
	for n := 1; n <= 4*maxSize; n++ {
		idx, size := ClassOf(n)
		if size < n || (n > minSize && size-n >= size/4) {
			t.Fatalf("ClassOf(%d) = class %d of %d bytes", n, idx, size)
		}
		if idx != prevIdx {
			if idx != prevIdx+1 || size <= prevSize {
				t.Fatalf("class %d (%d B) follows class %d (%d B)", idx, size, prevIdx, prevSize)
			}
			if i, s := ClassOf(size); i != idx || s != size {
				t.Fatalf("capacity %d maps to class %d of %d bytes, want itself", size, i, s)
			}
			prevIdx, prevSize = idx, size
			if size <= strongMax {
				total += size
			}
		}
	}
	if last, size := ClassOf(maxSize); last != nClasses-1 || size != maxSize {
		t.Fatalf("maxSize in class %d of %d bytes, want the last, %d", last, size, nClasses-1)
	}
	if last, size := ClassOf(strongMax); last != nStrong-1 || size != strongMax {
		t.Fatalf("strongMax in class %d of %d bytes, want the last strong one, %d", last, size, nStrong-1)
	}
	if total*perClass != Budget {
		t.Fatalf("strong classes sum to %d bytes x %d, Budget says %d", total, perClass, Budget)
	}
}

// TestPoolLifecycle: a burst deeper than a class keeps, handed back and
// taken again — every buffer has the length asked for, no buffer is out
// twice at once, a strong class (up to strongMax) never keeps more than
// perClass, a weak class keeps what it was handed, and what the first burst
// returned serves the second. The collector is off, so nothing empties the
// weak classes between the bursts; under -race, though, a sync.Pool drops a
// random share of what it is handed, so there the weak classes' reuse is
// bounded, not exact.
func TestPoolLifecycle(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool
	sizes := []int{1, 64, 65, 100, 1000, 4000, 6000, 6000, 6144, 40000, maxSize, maxSize + 1}
	const depth = perClass + 5
	burst := func() [][]byte {
		out := make(map[*byte]bool)
		var bufs [][]byte
		for i := 0; i < depth; i++ {
			for _, n := range sizes {
				b := p.Get(n)
				if len(b) != n || out[&b[0]] {
					t.Fatalf("Get(%d): %d bytes, already out = %v", n, len(b), out[&b[0]])
				}
				out[&b[0]] = true
				for j := range b {
					b[j] = byte(n)
				}
				bufs = append(bufs, b)
			}
		}
		return bufs
	}
	first := burst()
	misses := p.Misses
	if misses != int64(len(first)) || p.Retained() != 0 {
		t.Fatalf("empty pool: %d misses for %d gets, %d bytes retained", misses, len(first), p.Retained())
	}
	for _, b := range first {
		p.Put(b)
	}
	if p.Gets != p.Puts {
		t.Fatalf("%d gets, %d puts", p.Gets, p.Puts)
	}
	for i, list := range p.free {
		if len(list) > perClass {
			t.Fatalf("class %d keeps %d buffers", i, len(list))
		}
	}
	if got := p.Retained(); got == 0 || got > Budget {
		t.Fatalf("%d bytes retained, budget %d", got, Budget)
	}
	if PoisonOnPut && (first[len(sizes)-2][0] != 0xdb || first[4][0] != 0xdb) {
		t.Fatal("a retained buffer was not poisoned")
	}
	burst()
	// Sizes that share a class (1 and 64; 6000 and 6144) draw on one class's
	// kept buffers; a strong class serves perClass of them, a weak class all
	// of them, and maxSize+1 is never kept.
	strong := make(map[int]bool)
	var weakGets int64
	for _, n := range sizes[:len(sizes)-1] {
		if idx, _ := ClassOf(n); idx < nStrong {
			strong[idx] = true
		} else {
			weakGets += depth
		}
	}
	want := int64(len(first)) - int64(perClass*len(strong)) - weakGets
	got := p.Misses - misses
	if got < want || got > want+weakGets || (!PoisonOnPut && got != want) {
		t.Fatalf("second burst allocated %d buffers, want %d (up to %d under -race)", got, want, want+weakGets)
	}
	p.Put(nil)
	p.Put(make([]byte, 100)) // not one of ours: dropped
	if p.Get(0) != nil {
		t.Fatal("Get(0) must not hand out a buffer")
	}
}

// TestLargeTierReclaimable: a buffer above strongMax handed back and taken
// again allocates nothing while no collection runs in between, and two
// collections empty the weak classes — an idle world retains only the
// strong classes' Budget. Under -race a sync.Pool drops a random share of
// what it is handed, so the zero-allocation half runs without it.
func TestLargeTierReclaimable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool
	const large, small = 32 << 10, 1 << 10
	p.Put(p.Get(large))
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get(large)
		if len(b) != large {
			t.Fatalf("Get(%d) returned %d bytes", large, len(b))
		}
		p.Put(b)
	})
	if !PoisonOnPut && allocs != 0 {
		t.Fatalf("a %d-byte put/get cycle allocates %.2f objects, want 0", large, allocs)
	}
	p.Put(p.Get(small))
	p.Put(p.Get(large))
	runtime.GC()
	runtime.GC()
	if got := p.Retained(); got != small {
		t.Fatalf("%d bytes retained after two collections, want the %d-byte strong buffer only", got, small)
	}
	misses := p.Misses
	p.Get(large)
	p.Get(small)
	if p.Misses != misses+1 {
		t.Fatalf("after two collections: %d misses for a large and a small get, want the large one only", p.Misses-misses)
	}
}

// TestRecords: records come back zeroed, and the list keeps a bounded number.
func TestRecords(t *testing.T) {
	type rec struct {
		a int
		b []byte
	}
	var rs Records[rec]
	var out []*rec
	for i := 0; i < maxRecords+10; i++ {
		r := rs.Get()
		*r = rec{a: i, b: make([]byte, 1)}
		out = append(out, r)
	}
	for _, r := range out {
		rs.Put(r)
	}
	if rs.list.Len() != maxRecords {
		t.Fatalf("list keeps %d records, cap %d", rs.list.Len(), maxRecords)
	}
	if r := rs.Get(); r.a != 0 || r.b != nil {
		t.Fatalf("recycled record not zeroed: %+v", *r)
	}
}

// TestListPutNeverGrows: every object made has its slot reserved, so handing
// them all back — in any order, after any interleaving of gets — never grows
// the list.
func TestListPutNeverGrows(t *testing.T) {
	var l List[int]
	var out []*int
	for round := 1; round <= 5; round++ {
		for len(out) < 3*round {
			v := l.Get()
			if v == nil {
				l.Made()
				v = new(int)
			}
			out = append(out, v)
		}
		c := cap(l.free)
		for len(out) > round { // hand most back, oldest first
			l.Put(out[0])
			out = out[1:]
		}
		if cap(l.free) != c {
			t.Fatalf("round %d: Put grew the list from %d to %d slots", round, c, cap(l.free))
		}
	}
	if l.Len()+len(out) != l.made {
		t.Fatalf("%d free and %d out, %d made", l.Len(), len(out), l.made)
	}
	// Objects that never come back stop reserving at maxRecords.
	for i := 0; i < 10*maxRecords; i++ {
		if l.Get() == nil {
			l.Made()
		}
	}
	if cap(l.free) > 2*maxRecords {
		t.Fatalf("%d slots reserved for objects that never came back", cap(l.free))
	}
}
