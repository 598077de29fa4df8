package coll

// This file holds the vector (per-rank-count) collective builders: alltoallv
// pairwise exchanges with zero-block elision, the first-class reduce-scatter
// (recursive halving for power-of-two sizes, rotated pairwise otherwise) that
// the Rabenseifner allreduce shares, and the Blocks helper slicing MPI-style
// (buffer, counts, displacements) arguments into the per-rank views every
// builder consumes. Allgatherv, gatherv and scatterv need no dedicated
// builders: the ring, Bruck, two-level and linear builders already operate on
// per-rank block views of any length, so the registry points the vector ops
// at them directly.
//
// Algorithm selection for vector ops must stay globally consistent even
// though counts differ per rank (a rank picking Bruck while its peer picks
// ring deadlocks). The selector therefore keys only on globally agreed
// inputs: the rank count for alltoallv and reduce-scatter (every rank knows
// only its own rows of the count matrix, so payload-size selection is
// unavailable), and the full recvcounts vector — which MPI_Allgatherv
// mandates on every rank — for allgatherv. The same constraint rules out
// Bruck-style store-and-forward for alltoallv: an intermediate hop would
// need the sizes of relayed blocks, which are other ranks' private counts.

// Blocks slices buf into per-rank views: block r is
// buf[displs[r] : displs[r]+counts[r]]. A nil displs packs the blocks
// back-to-back in rank order. Views are capacity-limited so a builder bug
// cannot silently bleed into a neighbouring block.
func Blocks(buf []byte, counts, displs []int) [][]byte {
	bs := make([][]byte, len(counts))
	off := 0
	for r, n := range counts {
		if displs != nil {
			off = displs[r]
		}
		bs[r] = buf[off : off+n : off+n]
		off += n
	}
	return bs
}

// prefixSums returns the len(counts)+1 ascending boundary array of counts:
// segment r spans [win[r], win[r+1]).
func prefixSums(counts []int) []int {
	win := make([]int, len(counts)+1)
	for r, n := range counts {
		win[r+1] = win[r] + n
	}
	return win
}

// BuildAlltoallv compiles the pairwise-exchange alltoallv over per-rank
// block views (XOR partner order when xor is set and size is a power of two,
// rotated shifts otherwise). Zero-length transfers are elided: both ends of
// a transfer see the same count (my send to p is p's receive from me), so
// the elision is symmetric and the schedules stay matched.
func BuildAlltoallv(rank, size int, send, recv [][]byte, xor bool) *Schedule {
	s := &Schedule{}
	if len(send[rank]) > 0 {
		rd := s.round()
		rd.Local = append(rd.Local, copyP(recv[rank], send[rank]))
	}
	if size == 1 {
		return s
	}
	if xor && size&(size-1) != 0 {
		xor = false
	}
	for i := 1; i < size; i++ {
		dst, src := (rank+i)%size, (rank-i+size)%size
		if xor {
			dst = rank ^ i
			src = dst
		}
		doSend, doRecv := len(send[dst]) > 0, len(recv[src]) > 0
		if !doSend && !doRecv {
			continue
		}
		rd := s.round()
		if doSend {
			rd.Comm = append(rd.Comm, sendP(dst, send[dst]))
		}
		if doRecv {
			rd.Comm = append(rd.Comm, recvP(src, recv[src]))
		}
	}
	return s
}

// halvingReduceScatter appends the recursive-halving reduce-scatter rounds:
// size must be a power of two and win an ascending size+1 element boundary
// array. After the rounds, x[win[rank]:win[rank+1]] holds the fully reduced
// segment (the rest of x is clobbered). Each step exchanges the half of the
// current window the partner keeps and folds the received half in; partners
// share identical window histories because they only differ in the current
// mask bit. rbuf must hold the largest incoming half. Commutative op only.
func halvingReduceScatter(s *Schedule, rank, size int, x []float64, win []int, rbuf []float64, op Op) {
	rlo, rhi := 0, size
	for mask := size >> 1; mask >= 1; mask >>= 1 {
		partner := rank ^ mask
		rmid := (rlo + rhi) / 2
		lo, mid, hi := win[rlo], win[rmid], win[rhi]
		keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
		if rank&mask != 0 {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		rd := s.round()
		rd.Comm = append(rd.Comm,
			sendF64(partner, x[sendLo:sendHi]),
			recvF64(partner, rbuf[:keepHi-keepLo]))
		rd.Local = append(rd.Local, reduceP(x[keepLo:keepHi], rbuf, op))
		if rank&mask != 0 {
			rlo = rmid
		} else {
			rhi = rmid
		}
	}
}

// BuildReduceScatterHalving compiles the recursive-halving reduce-scatter:
// x (length sum(counts), clobbered as scratch) is reduced elementwise across
// ranks and rank r's segment of counts[r] elements lands in recv. log p
// rounds for power-of-two sizes; anything else falls back to the pairwise
// algorithm. Commutative op only.
func BuildReduceScatterHalving(rank, size int, x, recv []float64, counts []int, op Op) *Schedule {
	if size&(size-1) != 0 {
		return BuildReduceScatterPairwise(rank, size, x, recv, counts, op)
	}
	s := &Schedule{}
	win := prefixSums(counts)
	if size == 1 {
		rd := s.round()
		rd.Local = append(rd.Local, copyF64P(recv, x[:counts[0]]))
		return s
	}
	// Irregular boundaries can put almost the whole vector in one half, so
	// the scratch covers the full length.
	rbuf := make([]float64, win[size])
	halvingReduceScatter(s, rank, size, x, win, rbuf, op)
	rd := s.round()
	rd.Local = append(rd.Local, copyF64P(recv, x[win[rank]:win[rank+1]]))
	return s
}

// BuildReduceScatterPairwise compiles the rotated pairwise reduce-scatter
// (any size): recv starts as the rank's own segment of x, then step i sends
// the segment owned by rank+i and folds in the segment received from
// rank-i. p-1 rounds moving ~sum(counts) elements per rank; x is read-only.
// Zero-length segments are elided symmetrically (a segment's length is its
// owner's count, which both ends know). Commutative op only.
func BuildReduceScatterPairwise(rank, size int, x, recv []float64, counts []int, op Op) *Schedule {
	s := &Schedule{}
	win := prefixSums(counts)
	rd := s.round()
	rd.Local = append(rd.Local, copyF64P(recv, x[win[rank]:win[rank+1]]))
	if size == 1 {
		return s
	}
	rbuf := make([]float64, counts[rank])
	for i := 1; i < size; i++ {
		dst := (rank + i) % size
		src := (rank - i + size) % size
		doSend, doRecv := counts[dst] > 0, counts[rank] > 0
		if !doSend && !doRecv {
			continue
		}
		rd := s.round()
		if doSend {
			rd.Comm = append(rd.Comm, sendF64(dst, x[win[dst]:win[dst+1]]))
		}
		if doRecv {
			rd.Comm = append(rd.Comm, recvF64(src, rbuf))
			rd.Local = append(rd.Local, reduceP(recv, rbuf, op))
		}
	}
	return s
}
