package coll

// This file holds the size-tuned algorithm variants the selector (registry.go)
// picks between: the van de Geijn scatter-allgather broadcast and the
// Rabenseifner allreduce for large payloads, the Bruck allgather for small
// ones, a linear scatter schedule, and the two-level (topology-aware)
// allgather and alltoall that aggregate per node so only the per-node leaders
// touch the network rails.

// BuildBcastScatterAllgather compiles the van de Geijn large-message
// broadcast: root scatters data in size chunks down a binomial tree, then a
// ring allgather (over relative ranks) reassembles the full buffer on every
// rank. Bandwidth-optimal for large payloads, at the price of ~2(p-1)/p
// extra latency terms.
func BuildBcastScatterAllgather(rank, size, root int, data []byte) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	n, p := len(data), size
	real := func(v int) int { return (v + root) % p }
	chunk := func(i, j int) []byte { return data[i*n/p : j*n/p] }
	vr := (rank - root + p) % p

	// Scatter phase: rank vr receives its subtree's chunks [vr, vr+cnt)
	// from its binomial parent, then halves them down to its children.
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			cnt := mask
			if p-vr < cnt {
				cnt = p - vr
			}
			rd := s.round()
			rd.Comm = append(rd.Comm, recvP(real(vr-mask), chunk(vr, vr+cnt)))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			cnt := mask
			if p-(vr+mask) < cnt {
				cnt = p - (vr + mask)
			}
			rd := s.round()
			rd.Comm = append(rd.Comm, sendP(real(vr+mask), chunk(vr+mask, vr+mask+cnt)))
		}
		mask >>= 1
	}

	// Allgather phase: ring over relative ranks, one chunk per step.
	right, left := real(vr+1), real((vr-1+p)%p)
	for step := 0; step < p-1; step++ {
		si := (vr - step + p) % p
		ri := (vr - step - 1 + 2*p) % p
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(right, chunk(si, si+1)), recvP(left, chunk(ri, ri+1)))
	}
	return s
}

// rabWindow returns the element window [lo, hi) that rank owns after the
// recursive-halving reduce-scatter phase of the Rabenseifner allreduce
// (size must be a power of two). Windows are contiguous and ascend with
// rank, which the allgather phase relies on.
func rabWindow(rank, size, n int) (lo, hi int) {
	lo, hi = 0, n
	for mask := size >> 1; mask >= 1; mask >>= 1 {
		mid := lo + (hi-lo)/2
		if rank&mask == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// rabBoundaries expands rabWindow into the size+1 ascending boundary array
// the shared reduce-scatter builder consumes: rank r owns [win[r], win[r+1]).
func rabBoundaries(size, n int) []int {
	win := make([]int, size+1)
	for r := 0; r < size; r++ {
		win[r], _ = rabWindow(r, size, n)
	}
	win[size] = n
	return win
}

// BuildAllreduceRabenseifner compiles the large-vector allreduce:
// reduce-scatter by recursive halving (the shared first-class builder in
// vector.go), then allgather by recursive doubling, moving ~2n elements per
// rank instead of recursive doubling's n·log p. Power-of-two sizes only;
// anything else falls back to recursive doubling. Commutative op only.
func BuildAllreduceRabenseifner(rank, size int, x []float64, op Op) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	if size&(size-1) != 0 {
		rdAllreduce(s, identGroup(size), rank, x, op)
		return s
	}
	n := len(x)
	win := rabBoundaries(size, n)
	rbuf := make([]float64, (n+1)/2)

	// Phase 1: reduce-scatter by recursive halving over the rabWindow
	// boundaries — the same builder the first-class ReduceScatter op uses.
	halvingReduceScatter(s, rank, size, x, win, rbuf, op)

	// Phase 2: allgather by recursive doubling. At step mask each rank holds
	// the union of the final windows of its aligned block of mask ranks and
	// swaps it with the partner block's union.
	for mask := 1; mask < size; mask <<= 1 {
		partner := rank ^ mask
		myLo, myHi := win[rank&^(mask-1)], win[(rank|(mask-1))+1]
		pLo, pHi := win[partner&^(mask-1)], win[(partner|(mask-1))+1]
		rd := s.round()
		rd.Comm = append(rd.Comm,
			sendF64(partner, x[myLo:myHi]),
			recvF64(partner, x[pLo:pHi]))
	}
	return s
}

// BuildAllgatherBruck compiles the Bruck allgather: ceil(log2 p) rounds of
// doubling block counts, concatenated into per-round wire buffers so the
// message count stays logarithmic — the small-payload winner against the
// ring's p-1 messages. Position j of the Bruck order is rank (me+j) mod p,
// so blocks land directly in their out slots with no final rotation.
func BuildAllgatherBruck(rank, size int, mine []byte, out [][]byte) *Schedule {
	s := &Schedule{}
	rd := s.round()
	rd.Local = append(rd.Local, copyP(out[rank], mine))
	if size == 1 {
		return s
	}
	blockAt := func(j int) []byte { return out[(rank+j)%size] }
	prev := rd
	for k := 1; k < size; k <<= 1 {
		cnt := k
		if size-k < cnt {
			cnt = size - k
		}
		slen, rlen := 0, 0
		for j := 0; j < cnt; j++ {
			slen += len(blockAt(j))
			rlen += len(blockAt(k + j))
		}
		// The send buffer concatenates positions [0, cnt) once the previous
		// round's blocks have landed (prev is still addressable: no round
		// has been appended since it was created).
		sbuf := make([]byte, slen)
		off := 0
		for j := 0; j < cnt; j++ {
			b := blockAt(j)
			prev.Local = append(prev.Local, copyP(sbuf[off:off+len(b)], b))
			off += len(b)
		}
		rbuf := make([]byte, rlen)
		rd := s.round()
		rd.Comm = append(rd.Comm,
			sendP((rank-k+size)%size, sbuf),
			recvP((rank+k)%size, rbuf))
		off = 0
		for j := 0; j < cnt; j++ {
			b := blockAt(k + j)
			rd.Local = append(rd.Local, copyP(b, rbuf[off:off+len(b)]))
			off += len(b)
		}
		prev = rd
	}
	return s
}

// BuildScatter compiles the linear scatter: root sends blocks[r] to rank r
// (blocks is only read on root); every rank lands its block in buf.
func BuildScatter(rank, size, root int, blocks [][]byte, buf []byte) *Schedule {
	s := &Schedule{}
	if rank == root {
		rd := s.round()
		for r := 0; r < size; r++ {
			if r != root {
				rd.Comm = append(rd.Comm, sendP(r, blocks[r]))
			}
		}
		rd.Local = append(rd.Local, copyP(buf, blocks[root]))
		return s
	}
	rd := s.round()
	rd.Comm = append(rd.Comm, recvP(root, buf))
	return s
}

// BuildAllgatherTwoLevel compiles the hierarchical allgather: locals hand
// their block to the node leader over shared memory, leaders exchange
// per-node aggregates pairwise over the network (one message per leader
// pair instead of one per block), then each leader fans every aggregate
// back out to its locals.
func BuildAllgatherTwoLevel(rank int, nodes []int, mine []byte, out [][]byte) *Schedule {
	s := &Schedule{}
	size := len(nodes)
	rd := s.round()
	rd.Local = append(rd.Local, copyP(out[rank], mine))
	if size == 1 {
		return s
	}
	leaders, byNode := leadersOf(nodes, -1)
	local := byNode[nodes[rank]]
	lead := leaderFor(nodes, byNode, -1, rank)
	L := len(leaders)

	nodeRanks := make([][]int, L)
	nodeLen := make([]int, L)
	for j, l := range leaders {
		nodeRanks[j] = byNode[nodes[l]]
		for _, r := range nodeRanks[j] {
			nodeLen[j] += len(out[r])
		}
	}
	li := indexIn(leaders, lead)

	if rank != lead {
		// Upload my block, then collect every node's aggregate back in
		// leader-index order (matching the leader's fan-out rounds).
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(lead, mine))
		for j := 0; j < L; j++ {
			rbuf := make([]byte, nodeLen[j])
			rd := s.round()
			rd.Comm = append(rd.Comm, recvP(lead, rbuf))
			off := 0
			for _, r := range nodeRanks[j] {
				rd.Local = append(rd.Local, copyP(out[r], rbuf[off:off+len(out[r])]))
				off += len(out[r])
			}
		}
		return s
	}

	// Leader: gather local blocks, concatenate the node aggregate.
	if len(local) > 1 {
		rd := s.round()
		for _, r := range local {
			if r != lead {
				rd.Comm = append(rd.Comm, recvP(r, out[r]))
			}
		}
	}
	wbuf := make([]byte, nodeLen[li])
	{
		rd := s.round()
		off := 0
		for _, r := range local {
			rd.Local = append(rd.Local, copyP(wbuf[off:off+len(out[r])], out[r]))
			off += len(out[r])
		}
	}

	// Rotated pairwise exchange of aggregates among leaders: step t sends to
	// the t-th leader to the right and receives from the t-th to the left.
	aggs := make([][]byte, L)
	aggs[li] = wbuf
	for t := 1; t < L; t++ {
		dj, sj := (li+t)%L, (li-t+L)%L
		aggs[sj] = make([]byte, nodeLen[sj])
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(leaders[dj], wbuf), recvP(leaders[sj], aggs[sj]))
		off := 0
		for _, r := range nodeRanks[sj] {
			rd.Local = append(rd.Local, copyP(out[r], aggs[sj][off:off+len(out[r])]))
			off += len(out[r])
		}
	}

	// Fan every aggregate (own node's included, so locals see their
	// neighbours' blocks) out to the locals over shared memory.
	if len(local) > 1 {
		for j := 0; j < L; j++ {
			rd := s.round()
			for _, r := range local {
				if r != lead {
					rd.Comm = append(rd.Comm, sendP(r, aggs[j]))
				}
			}
		}
	}
	return s
}

// BuildAlltoallTwoLevel compiles the hierarchical alltoall for uniform block
// sizes: same-node blocks move by direct pairwise exchange over shared
// memory; off-node blocks are uploaded to the node leader, exchanged between
// leaders as one aggregate message per leader pair (source-major ×
// destination layout), and fanned back out to the destination locals. Only
// leaders touch the rails, with L·(L-1) messages instead of the pairwise
// exchange's per-rank-pair traffic.
func BuildAlltoallTwoLevel(rank int, nodes []int, send, recv [][]byte) *Schedule {
	s := &Schedule{}
	size := len(nodes)
	rd := s.round()
	rd.Local = append(rd.Local, copyP(recv[rank], send[rank]))
	if size == 1 {
		return s
	}
	b := len(send[0]) // uniform block size (the selector guarantees it)
	leaders, byNode := leadersOf(nodes, -1)
	local := byNode[nodes[rank]]
	lead := leaderFor(nodes, byNode, -1, rank)
	L := len(leaders)
	m := len(local)
	mi := indexIn(local, rank)

	nodeRanks := make([][]int, L)
	nodeIdx := make([]int, size)   // rank -> leader index of its node
	idxInNode := make([]int, size) // rank -> position within its node
	for j, l := range leaders {
		nodeRanks[j] = byNode[nodes[l]]
		for di, r := range nodeRanks[j] {
			nodeIdx[r] = j
			idxInNode[r] = di
		}
	}
	li := nodeIdx[rank]

	// Intra-node rotated pairwise exchange.
	for t := 1; t < m; t++ {
		dst := local[(mi+t)%m]
		src := local[(mi-t+m)%m]
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(dst, send[dst]), recvP(src, recv[src]))
	}
	if L == 1 {
		return s
	}

	if rank != lead {
		// Upload off-node blocks (global destination-ascending, the order
		// the leader posts its receives in), then collect per-source blocks
		// back (leader-index-major, source-ascending within a node).
		rd := s.round()
		for d := 0; d < size; d++ {
			if nodeIdx[d] != li {
				rd.Comm = append(rd.Comm, sendP(lead, send[d]))
			}
		}
		rd = s.round()
		for j := 0; j < L; j++ {
			if j == li {
				continue
			}
			for _, src := range nodeRanks[j] {
				rd.Comm = append(rd.Comm, recvP(lead, recv[src]))
			}
		}
		return s
	}

	// Leader wire buffers: wbuf[j] carries every local source's blocks for
	// node j (source-major, destinations ascending within a source); rbuf[j]
	// arrives with the symmetric layout from node j's leader.
	wbuf := make([][]byte, L)
	rbuf := make([][]byte, L)
	for j := 0; j < L; j++ {
		if j != li {
			wbuf[j] = make([]byte, b*m*len(nodeRanks[j]))
			rbuf[j] = make([]byte, b*len(nodeRanks[j])*m)
		}
	}
	slotW := func(j, si, di int) []byte {
		off := (si*len(nodeRanks[j]) + di) * b
		return wbuf[j][off : off+b]
	}
	slotR := func(j, si, di int) []byte {
		off := (si*m + di) * b
		return rbuf[j][off : off+b]
	}

	// Gather the locals' uploads into the wire buffers and copy in the
	// leader's own off-node blocks.
	rd = s.round()
	for si, src := range local {
		if src == lead {
			for d := 0; d < size; d++ {
				if nodeIdx[d] != li {
					rd.Local = append(rd.Local, copyP(slotW(nodeIdx[d], si, idxInNode[d]), send[d]))
				}
			}
			continue
		}
		for d := 0; d < size; d++ {
			if nodeIdx[d] != li {
				rd.Comm = append(rd.Comm, recvP(src, slotW(nodeIdx[d], si, idxInNode[d])))
			}
		}
	}

	// Rotated pairwise aggregate exchange between leaders.
	for t := 1; t < L; t++ {
		dj, sj := (li+t)%L, (li-t+L)%L
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(leaders[dj], wbuf[dj]), recvP(leaders[sj], rbuf[sj]))
	}

	// Deliver per-source blocks to the destination locals and unpack the
	// leader's own, one round per remote node in leader-index order.
	for j := 0; j < L; j++ {
		if j == li {
			continue
		}
		rd := s.round()
		for si, src := range nodeRanks[j] {
			for _, d := range local {
				if d != lead {
					rd.Comm = append(rd.Comm, sendP(d, slotR(j, si, idxInNode[d])))
				}
			}
			rd.Local = append(rd.Local, copyP(recv[src], slotR(j, si, idxInNode[lead])))
		}
	}
	return s
}
