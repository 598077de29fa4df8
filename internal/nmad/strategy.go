package nmad

import (
	"fmt"

	"repro/internal/simnet"
	"repro/internal/vtime"
)

// StrategyKind selects a packet scheduling strategy.
type StrategyKind int

const (
	// StratDefault submits every pack immediately as its own packet wrapper
	// on the rail with the best estimated transfer time for its size.
	StratDefault StrategyKind = iota
	// StratAggreg behaves like StratDefault on an idle NIC but, when the
	// NIC is busy, accumulates pending packs and submits them as a single
	// aggregated packet wrapper once the NIC drains (§2.2: "when a network
	// becomes idle, it has the possibility to apply optimizations on the
	// accumulated communication requests").
	StratAggreg
	// StratSplitBalance adds multirail distribution: small messages go to
	// the lowest-latency rail, large rendezvous payloads are split across
	// all rails with a sampling-derived ratio so that every rail finishes
	// at the same time (§2.2, [4]).
	StratSplitBalance
	// StratSplitStatic is the naive multirail baseline: rendezvous payloads
	// are split in equal shares regardless of rail performance (the
	// ablation foil for the sampling-derived ratio).
	StratSplitStatic
)

func (k StrategyKind) String() string {
	switch k {
	case StratDefault:
		return "default"
	case StratAggreg:
		return "aggreg"
	case StratSplitBalance:
		return "split_balance"
	case StratSplitStatic:
		return "split_static"
	}
	return fmt.Sprintf("strategy(%d)", int(k))
}

// Share is one rail's portion of a split rendezvous payload.
type Share struct {
	Rail   int
	Offset int
	Len    int
}

// Strategy decides how packs on a gate's outlist become wire packets and how
// rendezvous payloads are distributed over rails.
type Strategy interface {
	Name() string
	// Schedule consumes packs from g's outlist and submits packet wrappers.
	// Runs in progress context.
	Schedule(c *Core, g *Gate)
	// SplitRdv partitions size bytes of rendezvous payload into rail shares.
	// The result lives in c's split scratch: it is valid until the next
	// split on c.
	SplitRdv(c *Core, size int) []Share
}

func newStrategy(k StrategyKind) Strategy {
	switch k {
	case StratDefault:
		return stratDefault{}
	case StratAggreg:
		return stratAggreg{}
	case StratSplitBalance:
		return stratSplit{}
	case StratSplitStatic:
		return stratSplitStatic{}
	default:
		panic(fmt.Sprintf("nmad: unknown strategy %d", k))
	}
}

// add appends send pack r to the wrapper as its wire entry: an RTS for a
// rendezvous pack, or the eager data — copied into a buffer from the world's
// store (the bounce copy of §2.1.3, which submission already charges), so the
// pack finishes when the wrapper has drained and its sender may reuse its
// memory from then on, however late the receiver parses the wrapper.
func (pw *Packet) add(r *Request) {
	en := Entry{Kind: EntryEager, Tag: r.tag, Seq: r.seq, MsgLen: len(r.data)}
	if r.rdv {
		en.Kind, en.PackID = EntryRTS, r.id
	} else {
		en.Data = pw.core.opt.Bufs.Get(len(r.data))
		copy(en.Data, r.data)
		pw.sends = append(pw.sends, r)
	}
	pw.Entries = append(pw.Entries, en)
}

// ---- strat_default -------------------------------------------------------

type stratDefault struct{}

func (stratDefault) Name() string { return "default" }

func (stratDefault) Schedule(c *Core, g *Gate) {
	for g.outlist.len() > 0 {
		r := g.outlist.pop()
		pw := c.getPacket(g)
		pw.add(r)
		c.submit(pw, c.railFor(r))
	}
}

func (stratDefault) SplitRdv(c *Core, size int) []Share {
	return c.split.whole(c.bestRail(size), size)
}

// ---- strat_aggreg --------------------------------------------------------

type stratAggreg struct{}

func (stratAggreg) Name() string { return "aggreg" }

func (stratAggreg) Schedule(c *Core, g *Gate) {
	for g.outlist.len() > 0 {
		head := g.outlist.front()
		rail := c.railFor(head)
		if c.opt.Rails[rail].Busy(c.node) {
			// NIC busy: keep the window of packets and revisit when idle.
			c.armIdleKick(g, rail)
			return
		}
		// NIC idle: submit the head pack, aggregating as many queued small
		// packs as fit under AggregMax into the same packet wrapper.
		pw := c.getPacket(g)
		payload := 0
		for g.outlist.len() > 0 {
			r := g.outlist.front()
			if r.pin != head.pin {
				// Differently-pinned packs must not share a wrapper: the
				// wrapper rides one rail and cross-aggregating would silently
				// move a pinned pack off its assigned rail.
				break
			}
			sz := len(r.data)
			if r.rdv {
				sz = 0 // RTS entries are header-only
			}
			if len(pw.Entries) > 0 && payload+sz > c.opt.AggregMax {
				break
			}
			pw.add(g.outlist.pop())
			payload += sz
		}
		c.submit(pw, rail)
	}
}

func (stratAggreg) SplitRdv(c *Core, size int) []Share {
	return stratDefault{}.SplitRdv(c, size)
}

// ---- strat_split_balance -------------------------------------------------

type stratSplit struct{}

func (stratSplit) Name() string { return "split_balance" }

// Schedule: control and eager traffic behaves like the aggregation strategy
// (fastest rail, aggregate under pressure).
func (stratSplit) Schedule(c *Core, g *Gate) { stratAggreg{}.Schedule(c, g) }

// SplitRdv solves the water-filling problem min over splits of
// max_i(L_i + s_i/B_i) using the rails' sampling estimates: find t* with
// sum_i max(0, (t*-L_i)*B_i) = size, then s_i = (t*-L_i)*B_i. Rails whose
// share falls below MinSplit are dropped and the remainder recomputed, so
// small messages naturally collapse onto the fastest rail.
func (stratSplit) SplitRdv(c *Core, size int) []Share {
	if size <= 0 {
		return nil
	}
	return balancedShares(c, c.split.firstRails(len(c.opt.Rails)), size)
}

// balancedShares water-fills size bytes over the given rail set, iteratively
// dropping rails whose share falls below MinSplit (but always keeping one),
// so small payloads naturally collapse onto the set's fastest rail. The
// split strategy runs it over every rail; striped sends (Request.pin < 0)
// run it over the stripe's rail prefix only.
func balancedShares(c *Core, active []int, size int) []Share {
	for {
		shares := waterfill(c, active, size)
		kept := active[:0]
		for i, s := range shares {
			if s >= c.opt.MinSplit || len(active) == 1 {
				kept = append(kept, active[i])
			}
		}
		if len(kept) == 0 {
			best := active[0]
			for _, a := range active[1:] {
				if c.opt.Rails[a].Params.EstimateXfer(size) <
					c.opt.Rails[best].Params.EstimateXfer(size) {
					best = a
				}
			}
			kept = append(kept, best)
		}
		if len(kept) == len(active) {
			return c.split.build(active, shares, size)
		}
		active = kept
		if len(active) == 1 {
			return c.split.whole(active[0], size)
		}
	}
}

// ---- strat_split_static ----------------------------------------------------

type stratSplitStatic struct{}

func (stratSplitStatic) Name() string { return "split_static" }

func (stratSplitStatic) Schedule(c *Core, g *Gate) { stratAggreg{}.Schedule(c, g) }

func (stratSplitStatic) SplitRdv(c *Core, size int) []Share {
	n := len(c.opt.Rails)
	if size <= 0 {
		return nil
	}
	if n == 1 || size < n*c.opt.MinSplit {
		return c.split.whole(c.bestRail(size), size)
	}
	per := size / n
	out := c.split.shares[:0]
	off := 0
	for i := 0; i < n; i++ {
		l := per
		if i == n-1 {
			l = size - off
		}
		out = append(out, Share{Rail: i, Offset: off, Len: l})
		off += l
	}
	c.split.shares = out
	return out
}

// SplitPreview returns the shares strategy kind would assign to a
// rendezvous payload of size bytes over rails, without running any traffic
// — the pure sampling-derived split computation of §2.2, exposed so
// benchmark tooling (cmd/multirail -json) can report split ratios
// machine-readably. minSplit 0 means the library default. Each call splits
// on a core of its own, so the result is the caller's.
func SplitPreview(kind StrategyKind, rails []*simnet.Rail, minSplit, size int) []Share {
	if minSplit == 0 {
		minSplit = 4 << 10
	}
	c := &Core{opt: Options{Rails: rails, MinSplit: minSplit}}
	return newStrategy(kind).SplitRdv(c, size)
}

// splitScratch is a core's reusable working memory for splitting one
// rendezvous payload: sendRdvData consumes the shares before it returns, so
// the next split overwrites them.
type splitScratch struct {
	active []int       // candidate rail set
	byLat  []railModel // waterfill's rails in latency order
	sizes  []int       // waterfill's per-rail byte counts
	shares []Share     // the split handed back
}

// railModel is one rail as waterfill sees it.
type railModel struct {
	lat vtime.Duration
	bw  float64
	idx int // position in active
}

// firstRails returns the rail set [0, n).
func (sc *splitScratch) firstRails(n int) []int {
	sc.active = sc.active[:0]
	for i := 0; i < n; i++ {
		sc.active = append(sc.active, i)
	}
	return sc.active
}

// whole returns the split that keeps size bytes on one rail.
func (sc *splitScratch) whole(rail, size int) []Share {
	sc.shares = append(sc.shares[:0], Share{Rail: rail, Offset: 0, Len: size})
	return sc.shares
}

// waterfill returns per-rail byte counts (aligned with active) equalizing
// completion times.
func waterfill(c *Core, active []int, size int) []int {
	// Solve sum_i max(0,(t-L_i))*B_i = size for t by accumulating rails in
	// latency order analytically.
	rails := c.split.byLat[:0]
	for i, a := range active {
		p := c.opt.Rails[a].Params
		rails = append(rails, railModel{lat: p.Latency, bw: p.BytesPerSec, idx: i})
	}
	c.split.byLat = rails
	// Insertion sort by latency (tiny N).
	for i := 1; i < len(rails); i++ {
		for j := i; j > 0 && rails[j].lat < rails[j-1].lat; j-- {
			rails[j], rails[j-1] = rails[j-1], rails[j]
		}
	}
	shares := c.split.sizes[:0]
	for range active {
		shares = append(shares, 0)
	}
	c.split.sizes = shares
	remaining := float64(size)
	// Try using the first k rails for k = len..1: compute t and check that
	// t >= L_k for all used rails.
	for k := len(rails); k >= 1; k-- {
		sumB := 0.0
		sumLB := 0.0
		for i := 0; i < k; i++ {
			sumB += rails[i].bw
			sumLB += rails[i].lat.Seconds() * rails[i].bw
		}
		t := (remaining + sumLB) / sumB // seconds
		if k > 1 && t < rails[k-1].lat.Seconds() {
			continue // slowest-started rail would get negative bytes
		}
		total := 0
		for i := 0; i < k; i++ {
			s := int((t - rails[i].lat.Seconds()) * rails[i].bw)
			if s < 0 {
				s = 0
			}
			shares[rails[i].idx] = s
			total += s
		}
		// Fix rounding drift on the fastest rail.
		shares[rails[0].idx] += size - total
		break
	}
	return shares
}

// build lays the per-rail byte counts out as contiguous shares of total.
func (sc *splitScratch) build(active []int, sizes []int, total int) []Share {
	out := sc.shares[:0]
	off := 0
	for i, a := range active {
		if sizes[i] <= 0 {
			continue
		}
		n := sizes[i]
		if off+n > total {
			n = total - off
		}
		if n <= 0 {
			continue
		}
		out = append(out, Share{Rail: a, Offset: off, Len: n})
		off += n
	}
	if off < total && len(out) > 0 {
		out[len(out)-1].Len += total - off
	}
	sc.shares = out
	return out
}
