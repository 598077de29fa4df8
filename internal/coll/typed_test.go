package coll

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// TestReduceLoopsMatchOperators: the direct loops RunLocal runs for the
// standard operators give bit for bit what calling the operator gives —
// NaN, infinities and signed zeros included — and a custom operator (even
// one that computes a sum) keeps going through its call.
func TestReduceLoopsMatchOperators(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308}
	var acc, in []float64
	for _, a := range vals {
		for _, b := range vals {
			acc, in = append(acc, a), append(in, b)
		}
	}
	custom := Op(func(a, b float64) float64 { return a + b })
	for name, op := range map[string]Op{"sum": OpSum, "max": OpMax, "min": OpMin, "custom": custom} {
		got := append([]float64(nil), acc...)
		pr := reduceP(got, in, op)
		if wantDirect := name != "custom"; (pr.fold != foldCall) != wantDirect {
			t.Fatalf("%s: dispatched as %d", name, pr.fold)
		}
		RunLocal(&pr)
		for i := range got {
			if want := op(acc[i], in[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s(%v, %v) = %v through RunLocal, %v through the operator", name, acc[i], in[i], got[i], want)
			}
		}
	}
}

// TestSendPayloadIsView: a float send is the vector's own memory — every
// transport copies a payload by the time its send completes, so no private
// image is needed — in the bytes of the wire codec; a byte send goes out as
// it is, and a float receive lands in the vector's memory.
func TestSendPayloadIsView(t *testing.T) {
	x := []float64{1, -2.5, math.Pi, 1e-300}
	wire := F64Bytes(x)
	pr := sendF64(1, x)
	got := SendPayload(&pr)
	if !bytes.Equal(got, wire) {
		t.Fatalf("payload %x, wire format %x", got, wire)
	}
	if unsafe.SliceData(got) != (*byte)(unsafe.Pointer(&x[0])) {
		t.Fatal("a float send must go out as the vector's memory")
	}
	static := sendP(1, wire)
	if got := SendPayload(&static); unsafe.SliceData(got) != unsafe.SliceData(wire) {
		t.Fatal("a byte send must go out as it is")
	}

	y := make([]float64, len(x))
	rv := recvF64(0, y)
	copy(RecvBuf(&rv), wire)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("received %v, sent %v", y, x)
		}
	}
}

// TestBufArgsSame: identical region lists and operator compare the same;
// any other buffer, length or operator does not.
func TestBufArgsSame(t *testing.T) {
	data, x := make([]byte, 64), make([]float64, 8)
	base := Args{Data: data, X: x, Op: OpSum}.BufArgs()
	custom := Op(func(a, b float64) float64 { return a + b })
	for _, tc := range []struct {
		name string
		a    Args
		same bool
	}{
		{"same", Args{Data: data, X: x, Op: OpSum}, true},
		{"other bytes", Args{Data: make([]byte, 64), X: x, Op: OpSum}, false},
		{"shorter bytes", Args{Data: data[:32], X: x, Op: OpSum}, false},
		{"shifted floats", Args{Data: data, X: x[1:], Op: OpSum}, false},
		{"other floats", Args{Data: data, X: make([]float64, 8), Op: OpSum}, false},
		{"other operator", Args{Data: data, X: x, Op: OpMax}, false},
		{"custom operator", Args{Data: data, X: x, Op: custom}, false},
		{"fewer regions", Args{X: x, Op: OpSum}, false},
	} {
		if got := tc.a.BufArgs().Same(base); got != tc.same {
			t.Errorf("%s: Same = %v, want %v", tc.name, got, tc.same)
		}
	}
}

// TestKeyShapeExact: scalar and uniform-block shapes key on fixed-width
// fields alone (no signature string), every differing count yields a
// different key, and a signature memo changes nothing but the cost — a
// repeated vector shape builds its key without allocating.
func TestKeyShapeExact(t *testing.T) {
	blocks := func(lens ...int) [][]byte {
		bs := make([][]byte, len(lens))
		for i, n := range lens {
			bs[i] = make([]byte, n)
		}
		return bs
	}
	x := make([]float64, 24)
	shapes := []struct {
		op OpKind
		a  Args
	}{
		{OpBcast, Args{Size: 4, Data: make([]byte, 100)}},
		{OpBcast, Args{Size: 4, Data: make([]byte, 101)}},
		{OpAllreduce, Args{Size: 4, X: x, Op: OpSum}},
		{OpAllreduce, Args{Size: 4, X: x[:23], Op: OpSum}},
		{OpAlltoall, Args{Size: 4, Send: blocks(8, 8, 8, 8), Recv: blocks(8, 8, 8, 8)}},
		{OpAlltoall, Args{Size: 4, Send: blocks(9, 9, 9, 9), Recv: blocks(9, 9, 9, 9)}},
		{OpAllgather, Args{Size: 4, Mine: make([]byte, 8), Out: blocks(8, 8, 8, 8)}},
		{OpAlltoallv, Args{Size: 4, Send: blocks(1, 2, 3, 4), Recv: blocks(4, 3, 2, 1)}},
		{OpAlltoallv, Args{Size: 4, Send: blocks(1, 2, 3, 4), Recv: blocks(4, 3, 2, 2)}},
		{OpAlltoallv, Args{Size: 4, Send: blocks(12, 3, 4), Recv: blocks(4, 3, 2, 1)}},
		{OpAlltoallv, Args{Size: 4, Send: blocks(1, 2, 3, 4), Recv: blocks(4, 3, 2, 1), SDispls: []int{0, 1, 2, 3}}},
		{OpAlltoallv, Args{Size: 4, Send: blocks(1, 2, 3, 4), Recv: blocks(4, 3, 2, 1), SDispls: []int{0, 1, 2, 4}}},
		{OpReduceScatter, Args{Size: 4, X: x, RecvF64: x[:6], RCounts: []int{6, 6, 6, 6}, Op: OpSum}},
		{OpReduceScatter, Args{Size: 4, X: x, RecvF64: x[:6], RCounts: []int{6, 5, 7, 6}, Op: OpSum}},
	}
	seen := make(map[Key]int)
	var memo SigMemo
	for i, sh := range shapes {
		k := KeyFor(nil, sh.op, sh.a, false)
		if j, dup := seen[k]; dup {
			t.Fatalf("shapes %d and %d share key %+v", j, i, k)
		}
		seen[k] = i
		fixed := sh.op != OpAlltoallv && sh.op != OpReduceScatter
		if fixed != (k.Sig == "") {
			t.Errorf("shape %d (%s): Sig = %q", i, sh.op, k.Sig)
		}
		sh.a.Sigs = &memo
		for rep := 0; rep < 2; rep++ {
			if km := KeyFor(nil, sh.op, sh.a, false); km != k {
				t.Fatalf("shape %d: memo key %+v, plain key %+v", i, km, k)
			}
		}
	}
	for i, sh := range shapes {
		sh.a.Sigs = &memo
		if n := testing.AllocsPerRun(10, func() { KeyFor(nil, sh.op, sh.a, false) }); n != 0 {
			t.Errorf("shape %d (%s): a repeated key allocates %.0f objects", i, sh.op, n)
		}
	}
	// One more shape than the memo holds: it starts over instead of growing.
	for n := 1; n <= sigMemoCap+1; n++ {
		KeyFor(nil, OpAlltoallv, Args{Size: 2, Send: blocks(n, n+1), Recv: blocks(n+1, n), Sigs: &memo}, false)
	}
	if len(memo.seen) > sigMemoCap {
		t.Fatalf("memo holds %d signatures, cap %d", len(memo.seen), sigMemoCap)
	}
}
