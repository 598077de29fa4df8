// Package coll implements the collective algorithms the NAS kernels and the
// benchmark harnesses need, expressed over an abstract point-to-point layer.
// The algorithm set spans the classic MPICH2 latency-optimal choices
// (dissemination barrier, binomial broadcast/reduce, recursive-doubling
// allreduce, ring allgather, pairwise-exchange alltoall), their
// bandwidth-optimal large-message counterparts (van de Geijn
// scatter-allgather broadcast, Rabenseifner allreduce, Bruck allgather) and
// topology-aware two-level variants. A registry plus size/topology-based
// selector (registry.go, see README.md for the table) picks per invocation,
// and Rebind (rebind.go) gives compiled schedules persistent-collective
// semantics for the mpi layer's per-communicator cache.
package coll

import (
	"encoding/binary"
	"math"
)

// PtPt is the point-to-point substrate collectives run over (implemented by
// mpi.Comm). Every send carries the rail placement hint the striped
// builders stamp onto their send prims (encoding as on Prim.Rail: 0 auto,
// k > 0 pins rail k-1, -w < 0 stripes over the first w rails). Substrates
// without rail placement — shared-memory paths, the conformance harness's
// in-memory peer, single-rail stacks — ignore it, so striped schedules
// execute there identically to unstriped ones.
type PtPt interface {
	Rank() int
	Size() int
	// SendT / RecvT are blocking tagged transfers on the collective context.
	SendT(dst int, tag int32, data []byte, rail int)
	RecvT(src int, tag int32, buf []byte) int
	// SendRecvT runs a concurrent send+receive (deadlock-free exchange);
	// rail is the send half's hint.
	SendRecvT(dst int, sdata []byte, src int, rbuf []byte, tag int32, rail int) int
}

// Op is a reduction operator over float64 values applied elementwise.
type Op func(acc, in float64) float64

// Standard operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	}
	OpMin Op = func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	}
)

// F64Bytes encodes a float64 vector for the wire.
func F64Bytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesF64 decodes len(dst) float64 values from b into dst.
func BytesF64(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
