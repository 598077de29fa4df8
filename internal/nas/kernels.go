package nas

import (
	"math"

	"repro/mpi"
)

// Effective class C operation counts, calibrated so that the simulated
// Grid5000 testbed (2.4 GF/s sustained per core) reproduces the class C
// execution times of Fig. 8 at 8/9 processes. See EXPERIMENTS.md.
const (
	effOpsBT = 1.099e13
	effOpsCG = 7.296e12
	effOpsEP = 1.824e12
	effOpsFT = 6.336e12
	effOpsSP = 8.03e12
	effOpsMG = 2.688e12
	effOpsLU = 8.69e12
)

// ---- EP: embarrassingly parallel -------------------------------------------

// EP generates Gaussian pairs independently on every rank and combines the
// counts with three small allreduces. It also runs a real (scaled-down)
// Marsaglia rejection loop so the combined statistics are verifiable.
func EP() Kernel {
	return Kernel{
		Name:     "EP",
		ValidNP:  func(np int) bool { return np >= 1 },
		AdjustNP: func(np int) int { return np },
		Run: func(c *mpi.Comm, class Class) Result {
			w := newWS()
			c.Barrier()
			t0 := c.Wtime()

			// Real (scaled) sample: deterministic LCG per rank.
			const realPairs = 1 << 12
			seed := uint64(271828183)*uint64(c.Rank()+1) + 31337
			lcg := func() float64 {
				seed = seed*6364136223846793005 + 1442695040888963407
				return float64(seed>>11) / float64(1<<53)
			}
			var sx, sy float64
			var q [10]float64
			accepted := 0.0
			for i := 0; i < realPairs; i++ {
				x := 2*lcg() - 1
				y := 2*lcg() - 1
				t := x*x + y*y
				if t <= 1 && t > 0 {
					f := math.Sqrt(-2 * math.Log(t) / t)
					gx, gy := x*f, y*f
					sx += gx
					sy += gy
					m := int(math.Max(math.Abs(gx), math.Abs(gy)))
					if m < 10 {
						q[m]++
					}
					accepted++
				}
			}

			// Analytic charge for the full class volume.
			c.ComputeFlops(effOpsCGClass(class, effOpsEP) / float64(c.Size()))

			// The three combination steps of the original kernel.
			sums := []float64{sx, sy, accepted}
			c.AllreduceF64(sums, mpi.OpSum)
			c.AllreduceF64(q[:], mpi.OpSum)
			maxT := []float64{float64(c.Rank())}
			c.AllreduceF64(maxT, mpi.OpMax)

			elapsed := c.Wtime() - t0
			// Verify: acceptance ratio must be ≈ π/4, and the bin counts
			// must sum to the accepted total.
			total := 0.0
			for _, b := range q {
				total += b
			}
			ratio := sums[2] / float64(realPairs*c.Size())
			if math.Abs(ratio-math.Pi/4) > 0.02 || total != sums[2] {
				w.errors++
			}
			return w.result(c, "EP", class, elapsed)
		},
	}
}

func effOpsCGClass(class Class, base float64) float64 { return base * classScale(class) }

// ---- CG: conjugate gradient --------------------------------------------------

// CG runs the NPB conjugate-gradient communication structure on a 2D
// process grid (rows × cols, cols ≥ rows): per matvec, a log(cols) sum
// reduction across the row exchanging vector segments, a transpose exchange,
// and two scalar allreduces per inner iteration.
func CG() Kernel {
	return Kernel{
		Name:     "CG",
		ValidNP:  isPow2,
		AdjustNP: pow2Below,
		Run: func(c *mpi.Comm, class Class) Result {
			np := c.Size()
			rank := c.Rank()
			rows, cols := split2(np)

			n := int(150000 * sizeScale(class))
			niter := 75
			if class == ClassS {
				niter = 4
			}
			const inner = 25
			opsPerInner := effOpsCGClass(class, effOpsCG) / float64(niter*inner)

			myRow := rank / cols
			myCol := rank % cols
			segBytes := (n / rows) * 8

			w := newWS()
			c.Barrier()
			t0 := c.Wtime()
			for it := 0; it < niter; it++ {
				for j := 0; j < inner; j++ {
					c.ComputeFlops(opsPerInner / float64(np))
					// Sum-reduce across the process row, halving distance.
					for d := cols / 2; d >= 1; d /= 2 {
						partnerCol := myCol ^ d
						partner := myRow*cols + partnerCol
						w.exchange(c, partner, partner, 10+it%2, segBytes)
					}
					// Transpose exchange (skip when the grid is square and
					// the rank sits on the diagonal).
					tr := (rank * rows) % (np - 1 + boolToInt(np == 1))
					if np > 1 {
						tr = transposePartner(rank, rows, cols)
						if tr != rank {
							w.exchange(c, tr, tr, 12, segBytes)
						}
					}
					// Two scalar reductions (rho, alpha).
					s := w.one()
					c.AllreduceF64(s, mpi.OpSum)
					c.AllreduceF64(s, mpi.OpSum)
				}
				// Residual norm.
				s := w.one()
				c.AllreduceF64(s, mpi.OpSum)
			}
			elapsed := c.Wtime() - t0
			return w.result(c, "CG", class, elapsed)
		},
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// transposePartner mirrors the NPB CG exchange_proc: the partner in the
// transposed grid position.
func transposePartner(rank, rows, cols int) int {
	r := rank / cols
	cl := rank % cols
	// Map (r, c) to (c mod rows, ...) conservatively: pair ranks across the
	// diagonal of the largest square subgrid.
	pr := cl % rows
	pc := r + (cl/rows)*rows
	if pc >= cols {
		pc = cl
		pr = r
	}
	return pr*cols + pc
}

// ---- FT: 3D FFT ----------------------------------------------------------------

// FT runs the spectral kernel: per iteration an evolve+FFT compute phase and
// one global transpose implemented as all-to-all, exchanging total/np²-byte
// blocks, plus a small checksum reduction.
func FT() Kernel {
	return Kernel{
		Name:     "FT",
		ValidNP:  isPow2,
		AdjustNP: pow2Below,
		Run: func(c *mpi.Comm, class Class) Result {
			np := c.Size()
			nx := int(512 * sizeScale(class))
			if nx < 16 {
				nx = 16
			}
			totalBytes := float64(nx) * float64(nx) * float64(nx) * 16
			blockBytes := int(totalBytes / float64(np*np))
			niter := 20
			if class == ClassS {
				niter = 2
			}
			opsPerIter := effOpsCGClass(class, effOpsFT) / float64(niter)

			w := newWS()
			c.Barrier()
			t0 := c.Wtime()
			for it := 0; it < niter; it++ {
				c.ComputeFlops(opsPerIter / float64(np))
				// Global transpose: pairwise exchange schedule, same as
				// coll.Alltoall but with checked workspace buffers.
				if np&(np-1) == 0 {
					for i := 1; i < np; i++ {
						partner := c.Rank() ^ i
						w.exchange(c, partner, partner, 20, blockBytes)
					}
				}
				// Checksum.
				s := []float64{1, 2}
				c.AllreduceF64(s, mpi.OpSum)
			}
			elapsed := c.Wtime() - t0
			return w.result(c, "FT", class, elapsed)
		},
	}
}

// ---- MG: multigrid --------------------------------------------------------------

// MG runs V-cycles on a 3D-partitioned mesh: per level, halo exchanges with
// the six neighbours (sizes shrinking 4× per level), then back up.
func MG() Kernel {
	return Kernel{
		Name:     "MG",
		ValidNP:  isPow2,
		AdjustNP: pow2Below,
		Run: func(c *mpi.Comm, class Class) Result {
			np := c.Size()
			rank := c.Rank()
			px, py, pz := split3(np)
			n := int(512 * sizeScale(class))
			if n < 32 {
				n = 32
			}
			niter := 20
			if class == ClassS {
				niter = 2
			}
			levels := 0
			for (n >> uint(levels+1)) >= 4 {
				levels++
			}
			opsPerIter := effOpsCGClass(class, effOpsMG) / float64(niter)

			ix := rank % px
			iy := (rank / px) % py
			iz := rank / (px * py)
			neighbor := func(dx, dy, dz int) int {
				nx := (ix + dx + px) % px
				ny := (iy + dy + py) % py
				nz := (iz + dz + pz) % pz
				return nz*(px*py) + ny*px + nx
			}

			w := newWS()
			c.Barrier()
			t0 := c.Wtime()
			for it := 0; it < niter; it++ {
				// Down and up the V-cycle: 2 passes over the levels.
				for pass := 0; pass < 2; pass++ {
					for l := 0; l < levels; l++ {
						dim := n >> uint(l)
						if dim < 4 {
							break
						}
						face := (dim / max(px, 1)) * (dim / max(py, 1)) * 8
						if face < 64 {
							face = 64
						}
						c.ComputeFlops(opsPerIter / float64(2*levels) / float64(np))
						if px > 1 {
							w.exchange(c, neighbor(1, 0, 0), neighbor(-1, 0, 0), 30, face)
							w.exchange(c, neighbor(-1, 0, 0), neighbor(1, 0, 0), 31, face)
						}
						if py > 1 {
							w.exchange(c, neighbor(0, 1, 0), neighbor(0, -1, 0), 32, face)
							w.exchange(c, neighbor(0, -1, 0), neighbor(0, 1, 0), 33, face)
						}
						if pz > 1 {
							w.exchange(c, neighbor(0, 0, 1), neighbor(0, 0, -1), 34, face)
							w.exchange(c, neighbor(0, 0, -1), neighbor(0, 0, 1), 35, face)
						}
					}
				}
				// Norm check.
				s := w.one()
				c.AllreduceF64(s, mpi.OpSum)
			}
			elapsed := c.Wtime() - t0
			return w.result(c, "MG", class, elapsed)
		},
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
