package coll

// This file holds the segmented (pipelined) large-message builders: the
// payload is split into S pipeline segments and the rounds carry
// per-segment transfers so segment k+1 moves while segment k is being
// forwarded or reduced on the next rank. The schedule model needs no new
// primitive kinds for this — segmentation is purely a round-program shape —
// which is the point: the same schedules execute blocking (ExecBlocking
// turns each send+recv round into a SendRecvT exchange) and nonblocking,
// where every per-segment round is another in-flight operation for PIOMan
// to progress. That is exactly the paper's overlap story: the more
// independent transfers the progress engine can see, the more of the
// collective advances while the application computes.
//
// Three builders live here:
//
//   - BuildBcastChain: the pipelined chain broadcast (the large-message
//     workhorse of Open MPI's tuned tables) — ranks form a chain in
//     root-relative order and forward segment k downstream while receiving
//     segment k+1, so the pipeline fills in p-1 segment times and then
//     streams;
//   - BuildBcastSegBinomial: the segmented binomial tree — segments flow
//     down the binomial tree back to back, with each interior node's
//     receive of segment k+1 overlapped (SendRecvT) with its first forward
//     of segment k;
//   - BuildAllreduceSegRing: the segmented ring allreduce — a ring
//     reduce-scatter over per-rank windows followed by a ring allgather
//     (prefixSums windows, as the vector builders use), each window moved
//     in pipeline segments so the local reduction of one segment overlaps
//     the transfer of the next across ranks.
//
// Segment size arrives through Args.Seg (resolved by KeyFor: Tuning's
// SegBytes > table entry seg > DefSegBytes); every builder treats a
// non-positive value as DefSegBytes so direct construction — the
// conformance harness builds with a zero Args — still works.

// segBounds splits [0, n) into ascending segment boundaries of at most seg
// bytes each (the last segment takes the remainder). There is always at
// least one segment, so zero-length payloads still compile the one-segment
// schedule and keep the collective's synchronization.
func segBounds(n, seg int) []int {
	if seg <= 0 {
		seg = DefSegBytes
	}
	bounds := []int{0}
	for off := seg; off < n; off += seg {
		bounds = append(bounds, off)
	}
	return append(bounds, n)
}

// BuildBcastChain compiles the pipelined chain broadcast: ranks order
// themselves root, root+1, ..., root-1 and each forwards segment k to its
// successor while receiving segment k+1 from its predecessor (one
// SendRecvT round per segment once the pipe is full). The critical path
// carries n·(1 + (p-2)/S) bytes instead of the binomial tree's n·log2(p),
// which is why the chain wins for large payloads despite its p-1 latency
// terms.
func BuildBcastChain(rank, size, root int, data []byte, seg int) *Schedule {
	return BuildBcastChainStriped(rank, size, root, data, seg, Striping{})
}

// BuildBcastChainStriped is BuildBcastChain with the chain's per-segment
// forwards dealt across rails (see stripe.go); the zero Striping compiles
// the identical unstriped schedule.
func BuildBcastChainStriped(rank, size, root int, data []byte, seg int, st Striping) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	segs := segBounds(len(data), seg)
	S := len(segs) - 1
	vr := (rank - root + size) % size
	prev := (rank - 1 + size) % size
	next := (rank + 1) % size
	for k := 0; k <= S; k++ {
		rd := Round{}
		if vr < size-1 && k >= 1 {
			rd.Comm = append(rd.Comm, sendP(next, data[segs[k-1]:segs[k]]))
		}
		if vr > 0 && k < S {
			rd.Comm = append(rd.Comm, recvP(prev, data[segs[k]:segs[k+1]]))
		}
		if len(rd.Comm) > 0 {
			s.Rounds = append(s.Rounds, rd)
		}
	}
	stampRails(s, 0, st)
	return s
}

// BuildBcastSegBinomial compiles the segmented binomial broadcast: the
// usual binomial tree (over root-relative ranks), but segments stream down
// it back to back — an interior node forwards segment k to its subtrees
// while already receiving segment k+1 from its parent (the receive rides
// the first child round as a SendRecvT). Latency stays logarithmic like
// the monolithic binomial tree, but a node's children stop waiting for the
// whole payload to land before the forwarding starts.
func BuildBcastSegBinomial(rank, size, root int, data []byte, seg int) *Schedule {
	return BuildBcastSegBinomialStriped(rank, size, root, data, seg, Striping{})
}

// BuildBcastSegBinomialStriped is BuildBcastSegBinomial with each node's
// per-segment forwards dealt across rails — consecutive child sends ride
// different rails, so an interior node's fan-out streams in parallel over
// the stack. The zero Striping compiles the identical unstriped schedule.
func BuildBcastSegBinomialStriped(rank, size, root int, data []byte, seg int, st Striping) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	segs := segBounds(len(data), seg)
	S := len(segs) - 1
	segSl := func(k int) []byte { return data[segs[k]:segs[k+1]] }

	vr := (rank - root + size) % size
	parent := -1
	mask := 1
	for mask < size {
		if vr&mask != 0 {
			parent = (vr - mask + root) % size
			break
		}
		mask <<= 1
	}
	var children []int // decreasing-mask order, the binomial forward order
	for cm := mask >> 1; cm > 0; cm >>= 1 {
		if vr+cm < size {
			children = append(children, (vr+cm+root)%size)
		}
	}

	if parent >= 0 {
		rd := s.round()
		rd.Comm = append(rd.Comm, recvP(parent, segSl(0)))
	}
	for k := 0; k < S; k++ {
		if len(children) == 0 {
			// Leaf: nothing to forward, just keep draining segments.
			if parent >= 0 && k+1 < S {
				rd := s.round()
				rd.Comm = append(rd.Comm, recvP(parent, segSl(k+1)))
			}
			continue
		}
		for ci, child := range children {
			rd := s.round()
			rd.Comm = append(rd.Comm, sendP(child, segSl(k)))
			if ci == 0 && parent >= 0 && k+1 < S {
				rd.Comm = append(rd.Comm, recvP(parent, segSl(k+1)))
			}
		}
	}
	stampRails(s, 0, st)
	return s
}

// BuildAllreduceSegRing compiles the segmented ring allreduce: the vector
// is split into p near-uniform windows (prefixSums, as the reduce-scatter
// builders use), a p-1 step ring reduce-scatter leaves rank r owning the
// fully reduced window (r+1) mod p, and a p-1 step ring allgather streams
// the reduced windows back around. Each window additionally moves in
// pipeline segments of at most seg bytes, so the elementwise reduction of
// segment l overlaps the transfer of segment l+1 on the neighbouring rank.
// Bandwidth-optimal (~2n elements per rank, like Rabenseifner) at any rank
// count, power of two or not. Commutative op only.
func BuildAllreduceSegRing(rank, size int, x []float64, op Op, seg int) *Schedule {
	return BuildAllreduceSegRingStriped(rank, size, x, op, seg, Striping{})
}

// BuildAllreduceSegRingStriped is BuildAllreduceSegRing with the ring's
// per-sub-segment sends dealt across rails; the zero Striping compiles the
// identical unstriped schedule.
func BuildAllreduceSegRingStriped(rank, size int, x []float64, op Op, seg int, st Striping) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	n := len(x)
	counts := make([]int, size)
	for r := range counts {
		counts[r] = n / size
		if r < n%size {
			counts[r]++
		}
	}
	win := prefixSums(counts)

	// L sub-segments per window, sized so no sub-segment exceeds seg bytes.
	if seg <= 0 {
		seg = DefSegBytes
	}
	segElems := seg / 8
	if segElems < 1 {
		segElems = 1
	}
	L := 1
	if counts[0] > 0 {
		L = (counts[0] + segElems - 1) / segElems
	}
	// sub returns the element window of sub-segment l of window w
	// (near-uniform integer split — globally agreed, so elision of empty
	// sub-segments is symmetric on both ends of a transfer).
	sub := func(w, l int) (lo, hi int) {
		c := counts[w]
		return win[w] + l*c/L, win[w] + (l+1)*c/L
	}
	// The near-uniform split yields sub-segments of floor(c/L) or ceil(c/L)
	// elements, and counts[0] is the largest window, so the scratch needs
	// exactly ceil(counts[0]/L) elements.
	rbuf := make([]float64, (counts[0]+L-1)/L)
	right := (rank + 1) % size
	left := (rank - 1 + size) % size

	// exchange streams window ws to the right and takes window wr from the
	// left, sub-segment by sub-segment: folded into x through rbuf when
	// reduce is set, landed in x otherwise.
	exchange := func(ws, wr int, reduce bool) {
		for l := 0; l < L; l++ {
			sLo, sHi := sub(ws, l)
			rLo, rHi := sub(wr, l)
			if sHi == sLo && rHi == rLo {
				continue
			}
			rd := s.round()
			if sHi > sLo {
				rd.Comm = append(rd.Comm, sendF64(right, x[sLo:sHi]))
			}
			if rHi > rLo && reduce {
				rd.Comm = append(rd.Comm, recvF64(left, rbuf[:rHi-rLo]))
				rd.Local = append(rd.Local, reduceP(x[rLo:rHi], rbuf, op))
			} else if rHi > rLo {
				rd.Comm = append(rd.Comm, recvF64(left, x[rLo:rHi]))
			}
		}
	}

	// Phase 1: ring reduce-scatter. Step t sends window rank-t and folds
	// the incoming window rank-t-1 into x, so after p-1 steps rank owns the
	// fully reduced window (rank+1) mod p.
	for t := 0; t < size-1; t++ {
		ws := ((rank-t)%size + size) % size
		wr := ((rank-t-1)%size + size) % size
		exchange(ws, wr, true)
	}
	// Phase 2: ring allgather. Step t streams window rank+1-t onward and
	// lands the incoming reduced window rank-t.
	for t := 0; t < size-1; t++ {
		ws := ((rank+1-t)%size + size) % size
		wr := ((rank-t)%size + size) % size
		exchange(ws, wr, false)
	}
	stampRails(s, 0, st)
	return s
}
