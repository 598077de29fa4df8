package coll

import (
	"fmt"
	"unsafe"
)

// Persistent-schedule support: a compiled schedule references two kinds of
// memory — the caller's argument buffers (bcast payload, reduce vector,
// allgather blocks, ...) and scratch the builder allocated privately
// (receive staging, wire aggregates). Rebind retargets every prim field that
// aliases an old argument region — including sub-slices, which the
// large-message algorithms take liberally — onto the corresponding new
// region, leaving scratch untouched. A cached schedule rebound to fresh
// buffers re-executes with zero compile work, which is what makes repeated
// collectives on one communicator compile exactly once.

// BufArgs lists one invocation's caller-owned buffer regions, in the
// canonical order Args.BufArgs produces. Two invocations with the same
// cache key yield positionally identical region lists.
type BufArgs struct {
	Bytes [][]byte
	F64   [][]float64
	// Op is the reduction operator; Rebind rewrites reduce prims with it.
	Op Op
}

// BufArgs flattens the invocation's caller-owned buffers for rebinding.
// Zero-length buffers are dropped (not just nil ones): the cache key only
// encodes lengths, so nil and empty must flatten identically for two
// same-key invocations to produce positionally matching region lists —
// and rebindBytes ignores zero-length regions anyway.
func (a Args) BufArgs() BufArgs {
	var ba BufArgs
	a.BufArgsInto(&ba)
	return ba
}

// BufArgsInto is BufArgs flattening into a caller-provided value, reusing
// its slice capacity — the schedule cache's hot path flattens into a
// per-entry scratch so a rebind allocates nothing.
func (a Args) BufArgsInto(ba *BufArgs) {
	ba.Bytes = ba.Bytes[:0]
	ba.F64 = ba.F64[:0]
	ba.Op = a.Op
	add := func(b []byte) {
		if len(b) > 0 {
			ba.Bytes = append(ba.Bytes, b)
		}
	}
	add(a.Data)
	add(a.Mine)
	for _, b := range a.Out {
		add(b)
	}
	for _, b := range a.Send {
		add(b)
	}
	for _, b := range a.Recv {
		add(b)
	}
	if len(a.X) > 0 {
		ba.F64 = append(ba.F64, a.X)
	}
	if len(a.RecvF64) > 0 {
		ba.F64 = append(ba.F64, a.RecvF64)
	}
}

// Rebind retargets the schedule from the old argument regions to the new
// ones (positionally matched; shapes must be identical, which the cache key
// guarantees). Safe only while no execution of s is in flight.
func (s *Schedule) Rebind(old, new BufArgs) {
	if len(old.Bytes) != len(new.Bytes) || len(old.F64) != len(new.F64) {
		panic(fmt.Sprintf("coll: Rebind shape mismatch: %d/%d byte regions, %d/%d f64 regions",
			len(old.Bytes), len(new.Bytes), len(old.F64), len(new.F64)))
	}
	fold := foldOf(new.Op)
	for ri := range s.Rounds {
		rd := &s.Rounds[ri]
		rebindPrims(rd.Comm, old, new, fold)
		rebindPrims(rd.Local, old, new, fold)
	}
}

func rebindPrims(prims []Prim, old, new BufArgs, fold foldKind) {
	for i := range prims {
		pr := &prims[i]
		pr.Buf = rebindBytes(pr.Buf, old.Bytes, new.Bytes)
		pr.Dst = rebindBytes(pr.Dst, old.Bytes, new.Bytes)
		pr.AccF64 = rebindF64(pr.AccF64, old.F64, new.F64)
		pr.SrcF64 = rebindF64(pr.SrcF64, old.F64, new.F64)
		if pr.Op != nil && new.Op != nil {
			pr.Op, pr.fold = new.Op, fold
		}
	}
}

// Same reports whether ba names exactly the regions and operator o does —
// base pointer and length, region by region — in which case a schedule
// bound to o is already bound to ba and Rebind(o, ba) would write nothing.
func (ba BufArgs) Same(o BufArgs) bool {
	if len(ba.Bytes) != len(o.Bytes) || len(ba.F64) != len(o.F64) || opID(ba.Op) != opID(o.Op) {
		return false
	}
	for i, b := range ba.Bytes {
		if len(b) != len(o.Bytes[i]) || unsafe.SliceData(b) != unsafe.SliceData(o.Bytes[i]) {
			return false
		}
	}
	for i, x := range ba.F64 {
		if len(x) != len(o.F64[i]) || unsafe.SliceData(x) != unsafe.SliceData(o.F64[i]) {
			return false
		}
	}
	return true
}

// rebindBytes maps sl onto the new region when it lies inside one of the
// old ones (same offset, same length); scratch falls through unchanged.
func rebindBytes(sl []byte, old, new [][]byte) []byte {
	if len(sl) == 0 {
		return sl
	}
	p := uintptr(unsafe.Pointer(&sl[0]))
	for i, ob := range old {
		if len(ob) == 0 {
			continue
		}
		base := uintptr(unsafe.Pointer(&ob[0]))
		if p >= base && p+uintptr(len(sl)) <= base+uintptr(len(ob)) {
			off := int(p - base)
			if off+len(sl) > len(new[i]) {
				panic(fmt.Sprintf("coll: Rebind region %d: [%d:%d) exceeds new length %d",
					i, off, off+len(sl), len(new[i])))
			}
			return new[i][off : off+len(sl)]
		}
	}
	return sl
}

// rebindF64 is rebindBytes for float64 regions (8-byte elements).
func rebindF64(sl []float64, old, new [][]float64) []float64 {
	if len(sl) == 0 {
		return sl
	}
	const esz = unsafe.Sizeof(float64(0))
	p := uintptr(unsafe.Pointer(&sl[0]))
	for i, ob := range old {
		if len(ob) == 0 {
			continue
		}
		base := uintptr(unsafe.Pointer(&ob[0]))
		if p >= base && p+uintptr(len(sl))*esz <= base+uintptr(len(ob))*esz {
			off := int((p - base) / esz)
			if off+len(sl) > len(new[i]) {
				panic(fmt.Sprintf("coll: Rebind f64 region %d: [%d:%d) exceeds new length %d",
					i, off, off+len(sl), len(new[i])))
			}
			return new[i][off : off+len(sl)]
		}
	}
	return sl
}
