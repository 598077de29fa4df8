package coll

import "testing"

func twoRails() []RailInfo {
	return []RailInfo{
		{Name: "ib", LatencyNS: 1200, BytesPerSec: 1.25e9},
		{Name: "mx", LatencyNS: 2000, BytesPerSec: 1.15e9},
	}
}

func TestStripingWidthResolution(t *testing.T) {
	rails := twoRails()
	for _, tc := range []struct {
		st   Striping
		want int
	}{
		{Striping{}, 0},
		{Striping{Width: 2}, 0},               // no known rails
		{Striping{Width: 1, Rails: rails}, 0}, // below two
		{Striping{Width: 2, Rails: rails}, 2},
		{Striping{Width: 5, Rails: rails}, 2},     // clamps to rail count
		{Striping{Width: 2, Rails: rails[:1]}, 0}, // single-rail stack
	} {
		if got := tc.st.width(); got != tc.want {
			t.Errorf("width(%+v) = %d, want %d", tc.st, got, tc.want)
		}
	}
}

func TestStampRailsThresholdAndWidth(t *testing.T) {
	// Only send prims at or above stripeMinBytes get the -width stamp;
	// receives and small sends keep automatic placement.
	s := &Schedule{}
	rd := s.round()
	rd.Comm = append(rd.Comm,
		sendP(1, make([]byte, stripeMinBytes)),
		sendP(2, make([]byte, stripeMinBytes-1)),
		recvP(3, make([]byte, 1<<20)),
		sendF64(4, make([]float64, stripeMinBytes/8)),
	)
	stampRails(s, 0, Striping{Width: 2, Rails: twoRails()})
	want := []int{-2, 0, 0, -2}
	for i, w := range want {
		if got := s.Rounds[0].Comm[i].Rail; got != w {
			t.Errorf("prim %d: Rail = %d, want %d", i, got, w)
		}
	}
}

func TestStampRailsZeroStripingIsNoOp(t *testing.T) {
	s := &Schedule{}
	rd := s.round()
	rd.Comm = append(rd.Comm, sendP(1, make([]byte, 1<<20)))
	stampRails(s, 0, Striping{})
	if s.Rounds[0].Comm[0].Rail != 0 {
		t.Fatal("zero striping must leave every hint at 0")
	}
}

func TestStampRailsRespectsPhaseStart(t *testing.T) {
	// The two-level builders stripe only from their inter-node phase on;
	// rounds before lo must stay untouched.
	s := &Schedule{}
	for i := 0; i < 3; i++ {
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(1, make([]byte, 1<<20)))
	}
	stampRails(s, 2, Striping{Width: 2, Rails: twoRails()})
	for i, want := range []int{0, 0, -2} {
		if got := s.Rounds[i].Comm[0].Rail; got != want {
			t.Errorf("round %d: Rail = %d, want %d", i, got, want)
		}
	}
}

func TestTwoLevelStripedStampsOnlyInterNodePhase(t *testing.T) {
	// Four ranks on two nodes: the leader's inter-node send must carry the
	// stripe, its intra-node fan-out must not (shared memory has no rails).
	nodes := []int{0, 0, 1, 1}
	data := make([]byte, 64<<10)
	s := BuildBcastTwoLevelStriped(0, nodes, 0, data, Striping{Width: 2, Rails: twoRails()})
	var inter, intra int
	for _, rd := range s.Rounds {
		for _, pr := range rd.Comm {
			if pr.Kind != PrimSend {
				continue
			}
			if pr.Peer == 2 { // the other node's leader
				inter++
				if pr.Rail != -2 {
					t.Errorf("inter-node send to %d: Rail = %d, want -2", pr.Peer, pr.Rail)
				}
			} else {
				intra++
				if pr.Rail != 0 {
					t.Errorf("intra-node send to %d: Rail = %d, want 0", pr.Peer, pr.Rail)
				}
			}
		}
	}
	if inter == 0 || intra == 0 {
		t.Fatalf("expected both phases to emit sends: inter=%d intra=%d", inter, intra)
	}
}

// TestStripeForPrecedence: Decide's stripe width — StripeWidth > table
// entry > off, clamped to the rail count, only with two or more rails and
// only for a striped algorithm.
func TestStripeForPrecedence(t *testing.T) {
	rails := twoRails()
	table := &Table{Stack: "s", Bands: map[string][]NPBand{
		"bcast": anyNP(TableEntry{MaxBytes: -1, Algo: AlgoChain, Seg: 32 << 10, Stripe: 2}),
	}}
	chain := map[OpKind]Algo{OpBcast: AlgoChain}
	cases := []struct {
		name string
		tun  *Tuning
		want int
	}{
		{"nil tuning", nil, 0},
		{"single rail", &Tuning{Force: chain, StripeWidth: 2, Rails: rails[:1]}, 0},
		{"no source", &Tuning{Force: chain, Rails: rails}, 0},
		{"forced", &Tuning{Force: chain, StripeWidth: 2, Rails: rails}, 2},
		{"forced clamps", &Tuning{Force: chain, StripeWidth: 7, Rails: rails}, 2},
		{"forced width 1 off", &Tuning{Force: chain, StripeWidth: 1, Rails: rails}, 0},
		{"unstriped algorithm", &Tuning{StripeWidth: 2, Rails: rails}, 0},
		{"table entry", &Tuning{Table: table, Rails: rails}, 2},
		{"force beats table", &Tuning{StripeWidth: 2, Table: table, Rails: rails}, 2},
	}
	for _, tc := range cases {
		if got := tc.tun.Decide(OpBcast, 8, 1<<20, false).Stripe; got != tc.want {
			t.Errorf("%s: stripe = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestKeyForStripeShape(t *testing.T) {
	data := make([]byte, 1<<20)
	a := Args{Size: 8, Root: 0, Data: data}
	multi := &Tuning{Force: map[OpKind]Algo{OpBcast: AlgoChain},
		StripeWidth: 2, Rails: twoRails()}
	k := KeyFor(multi, OpBcast, a, false)
	if k.Stripe != 2 || k.Rails != "ib+mx" {
		t.Fatalf("striped key = %+v, want Stripe=2 Rails=ib+mx", k)
	}

	// Different stripe widths are different cache shapes.
	multi.StripeWidth = 0
	if k0 := KeyFor(multi, OpBcast, a, false); k0 == k {
		t.Fatal("stripe width must be part of the cache key")
	}

	// A single-rail stack yields the zero stripe fields whatever is forced —
	// its keys are byte-identical to the pre-striping era.
	single := &Tuning{Force: map[OpKind]Algo{OpBcast: AlgoChain},
		StripeWidth: 2, Rails: twoRails()[:1]}
	bare := &Tuning{Force: map[OpKind]Algo{OpBcast: AlgoChain}}
	ks := KeyFor(single, OpBcast, a, false)
	if ks.Stripe != 0 || ks.Rails != "" {
		t.Fatalf("single-rail key carries stripe fields: %+v", ks)
	}
	if kb := KeyFor(bare, OpBcast, a, false); ks != kb {
		t.Fatalf("single-rail key %+v differs from rail-less key %+v", ks, kb)
	}
}

func TestStripedScheduleSameDataMovement(t *testing.T) {
	// A striped chain bcast must be the unstriped schedule plus rail hints:
	// same rounds, same prims, same payload bytes — only Rail differs.
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := Build(Key{Op: OpBcast, Algo: AlgoChain}, Args{Rank: 1, Size: 4, Root: 0, Data: cpb(data)})
	striped := Build(Key{Op: OpBcast, Algo: AlgoChain},
		Args{Rank: 1, Size: 4, Root: 0, Data: cpb(data), Stripe: 2, Rails: twoRails()})
	if len(base.Rounds) != len(striped.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(base.Rounds), len(striped.Rounds))
	}
	stamped := 0
	for ri := range base.Rounds {
		b, st := base.Rounds[ri].Comm, striped.Rounds[ri].Comm
		if len(b) != len(st) {
			t.Fatalf("round %d: prim counts differ", ri)
		}
		for i := range b {
			if b[i].Kind != st[i].Kind || b[i].Peer != st[i].Peer ||
				len(SendPayload(&b[i])) != len(SendPayload(&st[i])) {
				t.Fatalf("round %d prim %d: data movement differs", ri, i)
			}
			if st[i].Rail != 0 {
				stamped++
			}
		}
	}
	if stamped == 0 {
		t.Fatal("striped schedule carries no rail stamps")
	}
}
