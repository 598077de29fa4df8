package coll

// This file holds the rail-striping post-pass of the segmented and two-level
// builders: marking which sends of a schedule should split across rails on a
// multirail stack.
//
// The point-to-point layer already splits one large rendezvous payload
// across rails (nmad's water-filling strategy), but a segmented schedule
// defeats that on purpose: it moves the payload as many sub-threshold
// segments, each of which the eager path places whole on the single best
// rail — the pipeline wins the overlap and loses the aggregate bandwidth.
// Striping restores the bandwidth at the schedule level: each large-enough
// send prim is stamped with a negative rail hint, -width, which the nmad
// transport implements by forcing the rendezvous protocol and water-filling
// the payload over the first `width` rails. Every segment of the pipeline
// then uses all striped rails concurrently, so per-segment wire time shrinks
// toward max-share time while the pipeline overlap is untouched.
//
// Splitting *within* a message is the only reorder-safe way to use several
// rails for one (peer, tag) stream: rendezvous chunks carry explicit offsets
// and reassemble correctly however the rails race, whereas dealing whole
// same-tag eager segments across rails lets a later segment overtake an
// earlier one and match the wrong posted receive. (It is also the only
// *profitable* way under a round-synchronized executor: alternating whole
// segments between rails cannot overlap consecutive sends of one rank, so it
// merely averages the rails' speeds instead of adding them.)

// RailInfo describes one rail of the stack a striped schedule runs over.
// The names feed the selection key's rail profile; the capacity fields are
// carried for observability and tuning. mpi.Run fills Tuning.Rails (and the
// builders' Args.Rails) from the stack's rail parameters.
type RailInfo struct {
	Name        string
	LatencyNS   int64
	BytesPerSec float64
}

// Striping carries one resolved stripe decision into a builder: Width is
// the number of rails to stripe sends across (0 or 1 disables striping) and
// Rails the stack's rails. The zero value — what every unstriped invocation
// passes — disables striping entirely, so unstriped schedules compile
// bit-identical to their pre-striping form.
type Striping struct {
	Width int
	Rails []RailInfo
}

// striping bundles an Args' stripe fields for the registered builders.
func (a Args) striping() Striping { return Striping{Width: a.Stripe, Rails: a.Rails} }

// width resolves the effective stripe width: clamped to the known rail
// count, and 0 (striping disabled) below two rails.
func (st Striping) width() int {
	w := st.Width
	if len(st.Rails) > 0 && w > len(st.Rails) {
		w = len(st.Rails)
	}
	if w < 2 || len(st.Rails) < 2 {
		return 0
	}
	return w
}

// stripeMinBytes is the smallest send worth striping. Below it the
// water-fill would collapse back to one rail anyway (nmad drops shares under
// its 4 KiB MinSplit), leaving only the cost of the forced rendezvous
// handshake — so smaller sends keep automatic placement.
const stripeMinBytes = 8 << 10

// sendBytes is a send prim's payload size without materializing it.
func sendBytes(pr *Prim) int {
	if pr.AccF64 != nil {
		return 8 * len(pr.AccF64)
	}
	return len(pr.Buf)
}

// stampRails stamps the send prims of rounds [lo, len) with the stripe hint
// -width — the post-pass the striped builders run over the phase they want
// striped (segmented builders stripe everything; two-level builders stripe
// only the inter-node phase, since shared-memory traffic has no rails).
// Sends below stripeMinBytes, and every send when the striping resolves
// inactive, keep hint 0 (automatic placement).
func stampRails(s *Schedule, lo int, st Striping) {
	w := st.width()
	if w == 0 {
		return
	}
	for ri := lo; ri < len(s.Rounds); ri++ {
		for i := range s.Rounds[ri].Comm {
			if pr := &s.Rounds[ri].Comm[i]; pr.Kind == PrimSend && sendBytes(pr) >= stripeMinBytes {
				pr.Rail = -w
			}
		}
	}
}
