// Package nas implements the NAS Parallel Benchmark kernels the paper uses
// for its application evaluation (§4.2, Fig. 8): BT, CG, EP, FT, SP, MG and
// LU — plus IS, which the paper omits (MPICH2-NewMadeleine lacked datatype
// support at the time) and this reproduction includes as an extension now
// that its alltoallv runs on the schedule engine.
//
// Each kernel reproduces the *communication structure* of the original NPB
// code — process grids, exchange partners, message sizes and counts derived
// from the class problem sizes — while computation is charged analytically
// through mpi.Comm.ComputeFlops using per-kernel effective operation counts
// calibrated against the class C execution times the paper reports on the
// Grid5000 testbed. Message payloads are real bytes moving through the full
// stack (matching, protocols, rails); their numeric content is synthetic,
// and every kernel verifies message sizes and sources as a routing check.
package nas

import (
	"fmt"

	"repro/mpi"
)

// Class selects a problem size. S is a tiny testing class; A, B and C follow
// the NPB scaling the paper uses (§4.2 runs class C).
type Class byte

// Problem classes.
const (
	ClassS Class = 'S'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// MarshalJSON encodes a class as its letter ("S"), not its byte value.
func (c Class) MarshalJSON() ([]byte, error) {
	return []byte(`"` + string(c) + `"`), nil
}

// classScale returns the effective-operation scale factor relative to C.
func classScale(c Class) float64 {
	switch c {
	case ClassS:
		return 1.0 / 50000
	case ClassA:
		return 1.0 / 16
	case ClassB:
		return 1.0 / 3.8
	case ClassC:
		return 1
	default:
		panic(fmt.Sprintf("nas: unknown class %c", c))
	}
}

// sizeScale returns the linear mesh-size factor relative to C (cube root of
// the work ratio, clamped to sane minimums by the kernels).
func sizeScale(c Class) float64 {
	switch c {
	case ClassS:
		return 1.0 / 16
	case ClassA:
		return 1.0 / 3.2 // 162->~51, 512->160, matches NPB A meshes loosely
	case ClassB:
		return 1.0 / 1.6
	case ClassC:
		return 1
	default:
		panic(fmt.Sprintf("nas: unknown class %c", c))
	}
}

// Result is one kernel execution outcome.
type Result struct {
	Kernel   string
	Class    Class
	NP       int
	Seconds  float64 // virtual execution time
	Verified bool    // message routing/size checks passed
	Messages int64   // point-to-point messages this rank initiated (rank 0)
}

// Kernel is one NAS benchmark.
type Kernel struct {
	Name string
	// ValidNP reports whether the kernel accepts this process count (BT and
	// SP need squares; CG, FT, MG and LU need powers of two).
	ValidNP func(np int) bool
	// AdjustNP maps a requested count to the nearest valid one, the way the
	// paper replaces 8 and 32 with 9 and 36 for BT/SP.
	AdjustNP func(np int) int
	// Run executes the kernel; it must be called from every rank.
	Run func(c *mpi.Comm, class Class) Result
}

// Kernels returns all implemented kernels: the paper's Fig. 8 set in its
// presentation order, then IS — the extension the paper could not run,
// enabled here by the engine-compiled vector collectives.
func Kernels() []Kernel {
	return []Kernel{BT(), CG(), EP(), FT(), SP(), MG(), LU(), IS()}
}

// KernelByName returns the named kernel.
func KernelByName(name string) (Kernel, error) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("nas: unknown kernel %q", name)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func isSquare(n int) bool {
	for q := 1; q*q <= n; q++ {
		if q*q == n {
			return true
		}
	}
	return false
}

func isqrt(n int) int {
	for q := 1; ; q++ {
		if q*q >= n {
			return q
		}
	}
}

func pow2Below(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

func nextSquareAtLeast(n int) int {
	q := 1
	for q*q < n {
		q++
	}
	return q * q
}

func log2(n int) int {
	l := 0
	for 1<<uint(l+1) <= n {
		l++
	}
	return l
}

// split2 factors a power-of-two np into (rows, cols) with cols >= rows,
// matching NPB CG's grid.
func split2(np int) (rows, cols int) {
	l := log2(np)
	rows = 1 << uint(l/2)
	cols = np / rows
	return rows, cols
}

// split3 factors a power-of-two np into three near-equal power-of-two dims.
func split3(np int) (x, y, z int) {
	l := log2(np)
	lx := (l + 2) / 3
	ly := (l - lx + 1) / 2
	lz := l - lx - ly
	return 1 << uint(lx), 1 << uint(ly), 1 << uint(lz)
}

// ws is a per-rank message workspace: a shared read-only zero buffer for
// payloads and a scratch receive buffer, so class C exchange volumes do not
// require materializing class C arrays.
type ws struct {
	send    []byte
	scratch []byte
	scalar  [1]float64
	errors  int
	msgs    int64
}

// one returns the workspace's scalar reset to 1, the value each kernel's
// scalar reductions start from; reusing it keeps them allocation-free.
func (w *ws) one() []float64 {
	w.scalar[0] = 1
	return w.scalar[:]
}

func newWS() *ws { return &ws{} }

func (w *ws) sendBuf(n int) []byte {
	if cap(w.send) < n {
		w.send = make([]byte, n)
	}
	return w.send[:n]
}

func (w *ws) recvBuf(n int) []byte {
	if cap(w.scratch) < n {
		w.scratch = make([]byte, n)
	}
	return w.scratch[:n]
}

// exchange performs a sendrecv of n bytes with the two partners and checks
// the receive length and source.
func (w *ws) exchange(c *mpi.Comm, dst, src, tag, n int) {
	st := c.Sendrecv(dst, tag, w.sendBuf(n), src, tag, w.recvBuf(n))
	w.msgs++
	if st.Len != n || st.Source != src {
		w.errors++
	}
}

// sendTo / recvFrom are one-directional checked transfers.
func (w *ws) sendTo(c *mpi.Comm, dst, tag, n int) {
	c.Send(dst, tag, w.sendBuf(n))
	w.msgs++
}

func (w *ws) recvFrom(c *mpi.Comm, src, tag, n int) {
	st := c.Recv(src, tag, w.recvBuf(n))
	if st.Len != n || (src != mpi.AnySource && st.Source != src) {
		w.errors++
	}
}

func (w *ws) result(c *mpi.Comm, name string, class Class, elapsed float64) Result {
	ok := []float64{0}
	if w.errors > 0 {
		ok[0] = 1
	}
	c.AllreduceF64(ok, mpi.OpSum)
	return Result{
		Kernel:   name,
		Class:    class,
		NP:       c.Size(),
		Seconds:  elapsed,
		Verified: ok[0] == 0,
		Messages: w.msgs,
	}
}
