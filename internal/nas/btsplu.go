package nas

import (
	"repro/mpi"
)

// ---- BT and SP: ADI / block-tridiagonal solvers -------------------------------
//
// Both kernels run on a square process grid q×q and perform, per iteration,
// three directional sweep phases (x, y, z). Each directional phase is a
// q-stage pipeline along the grid rows/columns (multi-partition scheme):
// every rank receives the incoming boundary from its predecessor, computes
// its cells, and forwards the boundary to its successor, then the back
// substitution runs the pipeline in reverse.

func adiKernel(name string, effOps float64, niter int, faceVars int) Kernel {
	return Kernel{
		Name:     name,
		ValidNP:  isSquare,
		AdjustNP: nextSquareAtLeast,
		Run: func(c *mpi.Comm, class Class) Result {
			np := c.Size()
			q := isqrt(np)
			rank := c.Rank()
			row := rank / q
			col := rank % q

			iters := niter
			if class == ClassS {
				iters = 3
			}
			mesh := int(162 * sizeScale(class))
			if mesh < 12 {
				mesh = 12
			}
			// Boundary plane exchanged per pipeline stage: a cell face of
			// (mesh/q)² points times faceVars solution variables.
			cell := mesh / q
			if cell < 2 {
				cell = 2
			}
			faceBytes := cell * cell * faceVars * 8
			opsPerPhase := effOpsCGClass(class, effOps) / float64(iters*3*2)

			w := newWS()
			c.Barrier()
			t0 := c.Wtime()

			// sweep runs one pipelined directional phase with the
			// multi-partition scheme: each rank owns q sub-blocks along the
			// sweep direction, so it computes one sub-block per pipeline
			// stage and all ranks stay busy once the pipeline fills (the
			// property that makes BT/SP scale).
			sweep := func(along, tag int, reverse bool) {
				var pos, n int
				if along == 0 {
					pos, n = col, q
				} else {
					pos, n = row, q
				}
				pred, succ := -1, -1
				if pos > 0 {
					if along == 0 {
						pred = row*q + (col - 1)
					} else {
						pred = (row-1)*q + col
					}
				}
				if pos < n-1 {
					if along == 0 {
						succ = row*q + (col + 1)
					} else {
						succ = (row+1)*q + col
					}
				}
				if reverse {
					pred, succ = succ, pred
				}
				stageOps := opsPerPhase / float64(np) / float64(q)
				for s := 0; s < q; s++ {
					if pred >= 0 {
						w.recvFrom(c, pred, tag, faceBytes)
					}
					c.ComputeFlops(stageOps)
					if succ >= 0 {
						w.sendTo(c, succ, tag, faceBytes)
					}
				}
			}

			for it := 0; it < iters; it++ {
				for dir := 0; dir < 3; dir++ {
					along := dir % 2
					tag := 40 + dir
					sweep(along, tag, false)  // forward elimination
					sweep(along, tag+3, true) // back substitution
				}
			}
			// Final residual verification reduce.
			s := []float64{1, 2, 3, 4, 5}
			c.AllreduceF64(s, mpi.OpSum)
			elapsed := c.Wtime() - t0
			return w.result(c, name, class, elapsed)
		},
	}
}

// BT is the block-tridiagonal ADI solver (200 iterations at class C, large
// boundary faces).
func BT() Kernel { return adiKernel("BT", effOpsBT, 200, 25) }

// SP is the scalar-pentadiagonal ADI solver (400 iterations at class C,
// smaller per-stage faces).
func SP() Kernel { return adiKernel("SP", effOpsSP, 400, 5) }

// ---- LU: SSOR wavefront ----------------------------------------------------------
//
// LU partitions the x-y plane over a 2D grid and pipelines the SSOR sweeps
// over blocks of k-planes: each block triggers small north/west receives and
// south/east sends — the many-small-messages behaviour the paper points at
// when explaining Open MPI's LU lag.

// LU is the SSOR solver.
func LU() Kernel {
	return Kernel{
		Name:     "LU",
		ValidNP:  isPow2,
		AdjustNP: pow2Below,
		Run: func(c *mpi.Comm, class Class) Result {
			np := c.Size()
			rank := c.Rank()
			rows, cols := split2(np)
			row := rank / cols
			col := rank % cols

			mesh := int(162 * sizeScale(class))
			if mesh < 12 {
				mesh = 12
			}
			niter := 250
			if class == ClassS {
				niter = 3
			}
			const kBlock = 6 // k-planes per pipeline block
			blocks := (mesh + kBlock - 1) / kBlock
			// Pencil edge exchanged per block: (mesh/dim) points × 5 vars ×
			// kBlock planes.
			edgeX := (mesh / cols) * 5 * 8 * kBlock
			edgeY := (mesh / rows) * 5 * 8 * kBlock
			if edgeX < 40 {
				edgeX = 40
			}
			if edgeY < 40 {
				edgeY = 40
			}
			opsPerSweep := effOpsCGClass(class, effOpsLU) / float64(niter*2)

			north := -1
			if row > 0 {
				north = (row-1)*cols + col
			}
			south := -1
			if row < rows-1 {
				south = (row+1)*cols + col
			}
			west := -1
			if col > 0 {
				west = row*cols + (col - 1)
			}
			east := -1
			if col < cols-1 {
				east = row*cols + (col + 1)
			}

			w := newWS()
			c.Barrier()
			t0 := c.Wtime()
			for it := 0; it < niter; it++ {
				// Lower-triangular sweep: wavefront from (0,0).
				for b := 0; b < blocks; b++ {
					if north >= 0 {
						w.recvFrom(c, north, 50, edgeX)
					}
					if west >= 0 {
						w.recvFrom(c, west, 51, edgeY)
					}
					c.ComputeFlops(opsPerSweep / float64(blocks) / float64(np))
					if south >= 0 {
						w.sendTo(c, south, 50, edgeX)
					}
					if east >= 0 {
						w.sendTo(c, east, 51, edgeY)
					}
				}
				// Upper-triangular sweep: wavefront from the far corner.
				for b := 0; b < blocks; b++ {
					if south >= 0 {
						w.recvFrom(c, south, 52, edgeX)
					}
					if east >= 0 {
						w.recvFrom(c, east, 53, edgeY)
					}
					c.ComputeFlops(opsPerSweep / float64(blocks) / float64(np))
					if north >= 0 {
						w.sendTo(c, north, 52, edgeX)
					}
					if west >= 0 {
						w.sendTo(c, west, 53, edgeY)
					}
				}
			}
			s := w.one()
			c.AllreduceF64(s, mpi.OpSum)
			elapsed := c.Wtime() - t0
			return w.result(c, "LU", class, elapsed)
		},
	}
}
