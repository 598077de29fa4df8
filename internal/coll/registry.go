package coll

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// OpKind enumerates the collective operations the registry dispatches.
type OpKind uint8

const (
	OpBarrier OpKind = iota
	OpBcast
	OpReduce
	OpAllreduce
	OpAllgather
	OpAlltoall
	OpGather
	OpScatter
	OpAlltoallv
	OpAllgatherv
	OpGatherv
	OpScatterv
	OpReduceScatter
	numOps
)

var opNames = [numOps]string{
	"barrier", "bcast", "reduce", "allreduce",
	"allgather", "alltoall", "gather", "scatter",
	"alltoallv", "allgatherv", "gatherv", "scatterv", "reduce-scatter",
}

func (o OpKind) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Algo enumerates the schedule algorithms the selector picks between.
type Algo uint8

const (
	// AlgoAuto lets the selector choose from size and topology.
	AlgoAuto Algo = iota
	AlgoDissemination
	AlgoBinomial
	AlgoScatterAllgather
	AlgoRecDoubling
	AlgoRabenseifner
	AlgoRing
	AlgoBruck
	AlgoPairwise
	AlgoLinear
	AlgoTwoLevel
	AlgoRecHalving
	// The segmented (pipelined) algorithms split the payload into pipeline
	// segments so consecutive segments overlap across ranks — the
	// large-message workhorses the schedule engine's per-segment rounds
	// exist for (see segmented.go).
	AlgoChain
	AlgoSegBinomial
	AlgoSegRing
	numAlgos
)

var algoNames = [numAlgos]string{
	"auto", "dissemination", "binomial", "scatter-allgather",
	"recursive-doubling", "rabenseifner", "ring", "bruck",
	"pairwise", "linear", "two-level", "recursive-halving",
	"chain", "segmented-binomial", "segmented-ring",
}

// Segmented reports whether algo pipelines its payload in segments — the
// algorithms whose schedules depend on a segment size (Key.Seg).
func Segmented(a Algo) bool {
	switch a {
	case AlgoChain, AlgoSegBinomial, AlgoSegRing:
		return true
	}
	return false
}

// Striped reports whether (op, algo) can deal its transfers across the
// rails of a multirail stack — the pairs whose schedules depend on a
// stripe width (Key.Stripe). Every segmented algorithm stripes (segments
// are the natural stripe unit), plus the two-level variants whose
// inter-node phase moves bulk payload (bcast's leader tree, allreduce's
// leader exchange); the other two-level ops move per-rank blocks or
// zero-byte tokens between leaders, which striping cannot help.
func Striped(op OpKind, a Algo) bool {
	if Segmented(a) {
		return true
	}
	if a == AlgoTwoLevel {
		switch op {
		case OpBcast, OpAllreduce:
			return true
		}
	}
	return false
}

// LinearDepth reports whether algo's round count grows linearly with the
// rank count — rings, chains, linear rooted fan-in/out, pairwise exchange,
// and the scatter-allgather bcast (its allgather phase is a ring). Their
// per-rank schedules are inherently O(NP), so forcing one at NP in the
// thousands costs O(NP²) total simulation work; harnesses consult this to
// keep large-NP sweeps to the logarithmic-depth pool.
func LinearDepth(a Algo) bool {
	switch a {
	case AlgoRing, AlgoSegRing, AlgoChain, AlgoLinear, AlgoPairwise, AlgoScatterAllgather:
		return true
	}
	return false
}

func (a Algo) String() string {
	if int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("algo(%d)", uint8(a))
}

// Args carries one invocation's parameters into a registered builder. Only
// the fields an operation uses are read: Data for bcast, X/Op for the
// reductions, Mine/Out for allgather and gather, Send for scatter's blocks,
// Send/Recv for alltoall, Nodes for the two-level variants. The vector ops
// add per-rank count vectors: Send/Recv/Out hold the variable-length block
// views (sliced from flat buffers by Blocks) whose lengths the cache
// signature serializes, and reduce-scatter reads the full input vector
// from X, the element counts from RCounts and lands the result segment in
// RecvF64.
type Args struct {
	Rank, Size int
	Root       int
	// Nodes maps comm-local ranks to node ids for the two-level variants
	// (nil selects the flat algorithms).
	Nodes []int

	Data []byte
	X    []float64
	Op   Op
	Mine []byte
	Out  [][]byte
	Send [][]byte
	Recv [][]byte

	// RCounts are the vector ops' per-rank receive counts (bytes; float64
	// elements for reduce-scatter). They drive allgatherv's size-based
	// selection and reduce-scatter's signature and halving windows — the
	// other vector ops' counts are fully carried by their Send/Recv/Out
	// view lengths, which the key records. RecvF64 is the reduce-scatter
	// result segment of RCounts[Rank] elements.
	RCounts []int
	RecvF64 []float64

	// SDispls is set (and folded into the signature) only when the caller's
	// send blocks overlap in the flat buffer — legal for sends, since they
	// are only read. Disjoint layouts rebind positionally whatever their
	// displacements, but overlapping regions make pointer-containment
	// rebinding ambiguous, so aliased layouts key on their exact
	// displacements instead. (Overlapping *receive* blocks are rejected at
	// the mpi entry points: they would corrupt data, not just the cache.)
	SDispls []int

	// Seg is the pipeline segment size in bytes for the segmented builders
	// (0 selects DefSegBytes). It is schedule *shape* — two invocations with
	// different segment sizes compile structurally different round programs
	// — so KeyFor resolves it (Tuning.SegBytes > table entry seg > default)
	// into Key.Seg and the mpi layer copies the resolved value back before
	// building; non-segmented algorithms always run with Seg 0 so their
	// cache keys never fragment.
	Seg int

	// Stripe is the rail-stripe width for the rail-striped algorithms: the
	// number of rails consecutive segments (or inter-node tree edges) are
	// dealt across, 0 or 1 disabling striping. Like Seg it is schedule
	// *shape* — the same segments carrying different rail hints are
	// different compiled programs — so KeyFor resolves it (Tuning.
	// StripeWidth > table entry stripe > off) into Key.Stripe and the mpi
	// layer copies it back before building. Rails carries the per-rail
	// capacities the proportional stripe assigner weighs; builders only
	// read it when Stripe > 1.
	Stripe int
	Rails  []RailInfo

	// Sigs, when set, lets KeyFor find the signature string of a
	// variable-length shape it has keyed before instead of rebuilding it.
	Sigs *SigMemo
}

// Builder compiles one rank's schedule for one (op, algorithm) pair.
type Builder func(a Args) *Schedule

var registry [numOps][numAlgos]Builder

// Register installs a builder; the last registration for a pair wins.
func Register(op OpKind, algo Algo, b Builder) { registry[op][algo] = b }

func init() {
	Register(OpBarrier, AlgoDissemination, func(a Args) *Schedule {
		return BuildBarrier(a.Rank, a.Size)
	})
	Register(OpBarrier, AlgoTwoLevel, func(a Args) *Schedule {
		return BuildBarrierTwoLevel(a.Rank, a.Nodes)
	})
	Register(OpBcast, AlgoBinomial, func(a Args) *Schedule {
		return BuildBcast(a.Rank, a.Size, a.Root, a.Data)
	})
	Register(OpBcast, AlgoScatterAllgather, func(a Args) *Schedule {
		return BuildBcastScatterAllgather(a.Rank, a.Size, a.Root, a.Data)
	})
	Register(OpBcast, AlgoTwoLevel, func(a Args) *Schedule {
		return BuildBcastTwoLevelStriped(a.Rank, a.Nodes, a.Root, a.Data, a.striping())
	})
	Register(OpBcast, AlgoChain, func(a Args) *Schedule {
		return BuildBcastChainStriped(a.Rank, a.Size, a.Root, a.Data, a.Seg, a.striping())
	})
	Register(OpBcast, AlgoSegBinomial, func(a Args) *Schedule {
		return BuildBcastSegBinomialStriped(a.Rank, a.Size, a.Root, a.Data, a.Seg, a.striping())
	})
	Register(OpReduce, AlgoBinomial, func(a Args) *Schedule {
		return BuildReduce(a.Rank, a.Size, a.Root, a.X, a.Op)
	})
	Register(OpAllreduce, AlgoRecDoubling, func(a Args) *Schedule {
		return BuildAllreduce(a.Rank, a.Size, a.X, a.Op)
	})
	Register(OpAllreduce, AlgoRabenseifner, func(a Args) *Schedule {
		return BuildAllreduceRabenseifner(a.Rank, a.Size, a.X, a.Op)
	})
	Register(OpAllreduce, AlgoTwoLevel, func(a Args) *Schedule {
		return BuildAllreduceTwoLevelStriped(a.Rank, a.Nodes, a.X, a.Op, a.striping())
	})
	Register(OpAllreduce, AlgoSegRing, func(a Args) *Schedule {
		return BuildAllreduceSegRingStriped(a.Rank, a.Size, a.X, a.Op, a.Seg, a.striping())
	})
	Register(OpAllgather, AlgoRing, func(a Args) *Schedule {
		return BuildAllgather(a.Rank, a.Size, a.Mine, a.Out)
	})
	Register(OpAllgather, AlgoBruck, func(a Args) *Schedule {
		return BuildAllgatherBruck(a.Rank, a.Size, a.Mine, a.Out)
	})
	Register(OpAllgather, AlgoTwoLevel, func(a Args) *Schedule {
		return BuildAllgatherTwoLevel(a.Rank, a.Nodes, a.Mine, a.Out)
	})
	Register(OpAlltoall, AlgoPairwise, func(a Args) *Schedule {
		return BuildAlltoall(a.Rank, a.Size, a.Send, a.Recv)
	})
	Register(OpAlltoall, AlgoTwoLevel, func(a Args) *Schedule {
		return BuildAlltoallTwoLevel(a.Rank, a.Nodes, a.Send, a.Recv)
	})
	Register(OpGather, AlgoLinear, func(a Args) *Schedule {
		return BuildGather(a.Rank, a.Size, a.Root, a.Mine, a.Out)
	})
	Register(OpScatter, AlgoLinear, func(a Args) *Schedule {
		return BuildScatter(a.Rank, a.Size, a.Root, a.Send, a.Mine)
	})

	// Vector ops. Alltoallv and reduce-scatter have dedicated builders;
	// allgatherv, gatherv and scatterv reuse the block-view builders, which
	// already handle per-rank lengths (zero-length blocks included).
	Register(OpAlltoallv, AlgoPairwise, func(a Args) *Schedule {
		return BuildAlltoallv(a.Rank, a.Size, a.Send, a.Recv, true)
	})
	Register(OpAlltoallv, AlgoRing, func(a Args) *Schedule {
		return BuildAlltoallv(a.Rank, a.Size, a.Send, a.Recv, false)
	})
	Register(OpAllgatherv, AlgoRing, func(a Args) *Schedule {
		return BuildAllgather(a.Rank, a.Size, a.Mine, a.Out)
	})
	Register(OpAllgatherv, AlgoBruck, func(a Args) *Schedule {
		return BuildAllgatherBruck(a.Rank, a.Size, a.Mine, a.Out)
	})
	Register(OpAllgatherv, AlgoTwoLevel, func(a Args) *Schedule {
		return BuildAllgatherTwoLevel(a.Rank, a.Nodes, a.Mine, a.Out)
	})
	Register(OpGatherv, AlgoLinear, func(a Args) *Schedule {
		return BuildGather(a.Rank, a.Size, a.Root, a.Mine, a.Out)
	})
	Register(OpScatterv, AlgoLinear, func(a Args) *Schedule {
		return BuildScatter(a.Rank, a.Size, a.Root, a.Send, a.Mine)
	})
	Register(OpReduceScatter, AlgoRecHalving, func(a Args) *Schedule {
		return BuildReduceScatterHalving(a.Rank, a.Size, a.X, a.RecvF64, a.RCounts, a.Op)
	})
	Register(OpReduceScatter, AlgoPairwise, func(a Args) *Schedule {
		return BuildReduceScatterPairwise(a.Rank, a.Size, a.X, a.RecvF64, a.RCounts, a.Op)
	})
}

// Tuning parameterizes algorithm selection. The zero value (and a nil
// pointer) selects the built-in MPICH-flavoured defaults. Overrides apply
// in ONE precedence order, enforced by Select and asserted by test
// (TestTableBeatsLongOverride):
//
//		Force > topology (two-level) > Table > *Long overrides > defaults
//
//	  - Force pins an operation to one algorithm unconditionally;
//	  - topology: when the caller requests two-level and op has a
//	    hierarchical builder, that structural decision outranks any size
//	    threshold (a table cannot express placement);
//	  - Table supplies calibrated per-operation size thresholds (loaded via
//	    LoadTable from a colltune-emitted JSON file, or taken from the
//	    embedded per-stack calibrations in internal/coll/tune) and replaces
//	    the built-in size switch for the operations it covers — including
//	    the *Long knobs, which a covering table makes dead;
//	  - the *Long fields override individual default byte thresholds when
//	    > 0 — the pre-table tuning knobs, honoured only for operations the
//	    table does not cover.
//
// SegBytes forces the pipeline segment size of the segmented algorithms
// (chain / segmented-binomial / segmented-ring) in bytes; 0 defers to the
// table entry's seg field and then DefSegBytes. Stack names the MPI stack
// selection runs under (cluster.Stack.Name); mpi.Run fills it in
// automatically so the stack identity flows into every coll.Key. Tables
// and forced algorithms are validated by Validate — mpi.Run rejects
// malformed tuning instead of silently falling back.
type Tuning struct {
	Force    map[OpKind]Algo
	Table    *Table
	Stack    string
	SegBytes int

	// StripeWidth forces the rail-stripe width of the rail-striped
	// algorithms (see Striped); 0 defers to the table entry's stripe field,
	// and striping stays off when neither names one — unlike segment size
	// there is no nonzero default, because dealing segments across rails
	// only pays when calibration (or the caller) says the stack's rails
	// add up. Rails describes the rails selection runs over; mpi.Run fills
	// it from the stack configuration. Fewer than two rails disables
	// striping regardless of any override: single-rail stacks must compile
	// bit-identical schedules with or without this PR-era machinery.
	StripeWidth int
	Rails       []RailInfo

	BcastLong     int
	AllreduceLong int
	AllgatherLong int
}

// Default size thresholds (payload bytes) at which the selector switches
// from the latency-optimal to the bandwidth-optimal algorithm, and the
// default pipeline segment size of the segmented algorithms.
const (
	DefBcastLong     = 12 << 10
	DefAllreduceLong = 4 << 10
	DefAllgatherLong = 32 << 10
	DefSegBytes      = 8 << 10
)

// SegFor resolves the pipeline segment size a segmented algorithm runs
// with for op on np ranks at bytes of payload: SegBytes forces it,
// otherwise the calibrated table entry matching this rank count and payload
// supplies it, otherwise DefSegBytes — the same precedence ladder Select
// applies to the algorithm itself.
func (t *Tuning) SegFor(op OpKind, np, bytes int) int {
	if t != nil && t.SegBytes > 0 {
		return t.SegBytes
	}
	if t != nil && t.Table != nil {
		if e, ok := t.Table.LookupEntry(op, np, bytes); ok && e.Seg > 0 {
			return e.Seg
		}
	}
	return DefSegBytes
}

// StripeFor resolves the rail-stripe width a rail-striped algorithm runs
// with for op on np ranks at bytes of payload: fewer than two known rails
// means 0 (no striping, unconditionally), otherwise StripeWidth forces it,
// otherwise the calibrated table entry matching this rank count and payload
// supplies it; with neither, striping stays off. Widths clamp to the rail
// count — a table calibrated on a wider stack cannot make the assigner deal
// to rails that don't exist. The precedence mirrors SegFor minus the
// nonzero default (see Tuning.StripeWidth on why).
func (t *Tuning) StripeFor(op OpKind, np, bytes int) int {
	if t == nil || len(t.Rails) < 2 {
		return 0
	}
	w := 0
	if t.StripeWidth > 0 {
		w = t.StripeWidth
	} else if t.Table != nil {
		if e, ok := t.Table.LookupEntry(op, np, bytes); ok && e.Stripe > 0 {
			w = e.Stripe
		}
	}
	if w > len(t.Rails) {
		w = len(t.Rails)
	}
	if w < 2 {
		return 0
	}
	return w
}

// RailProfile canonicalizes the tuning's rail set for the cache key: rail
// names joined by '+', empty without rails. Part of Key for striped shapes
// so a schedule striped over one rail set never survives into a run over
// another.
func (t *Tuning) RailProfile() string {
	if t == nil || len(t.Rails) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, r := range t.Rails {
		if i > 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(r.Name)
	}
	return sb.String()
}

func (t *Tuning) bcastLong() int {
	if t != nil && t.BcastLong > 0 {
		return t.BcastLong
	}
	return DefBcastLong
}

func (t *Tuning) allreduceLong() int {
	if t != nil && t.AllreduceLong > 0 {
		return t.AllreduceLong
	}
	return DefAllreduceLong
}

func (t *Tuning) allgatherLong() int {
	if t != nil && t.AllgatherLong > 0 {
		return t.AllgatherLong
	}
	return DefAllgatherLong
}

// Select picks the algorithm for op on size ranks moving bytes of payload;
// twoLevel requests the hierarchical variant where one exists. The
// precedence order is exactly the one Tuning documents — Force > topology
// (two-level) > Table > *Long overrides > defaults. A table covering op
// therefore makes the corresponding *Long knob dead: the size switch the
// *Long fields parameterize is only reached when the table has no entry
// for op (or no table is installed). The defaults are documented in
// internal/coll/README.md.
func (t *Tuning) Select(op OpKind, size, bytes int, twoLevel bool) Algo {
	if t != nil && t.Force != nil {
		if a, ok := t.Force[op]; ok && a != AlgoAuto {
			return a
		}
	}
	// A calibrated flat-vs-two-level crossover refines the topology request:
	// when the table records that leader aggregation only pays off above
	// some payload, smaller payloads take the flat selection even though the
	// caller asked for two-level. Uncalibrated tables keep the structural
	// default — two-level whenever requested.
	if twoLevel && t != nil && t.Table != nil && hasTwoLevel(op) {
		if m, ok := t.Table.TwoLevelMin[op.String()]; ok && (m < 0 || bytes <= m) {
			twoLevel = false
		}
	}
	if t != nil && t.Table != nil && !(twoLevel && hasTwoLevel(op)) {
		if a, ok := t.Table.Lookup(op, size, bytes); ok {
			return builderFallback(op, a, size)
		}
	}
	switch op {
	case OpBarrier:
		if twoLevel {
			return AlgoTwoLevel
		}
		return AlgoDissemination
	case OpBcast:
		if twoLevel {
			return AlgoTwoLevel
		}
		if size < 8 || bytes <= t.bcastLong() {
			return AlgoBinomial
		}
		return AlgoScatterAllgather
	case OpReduce:
		return AlgoBinomial
	case OpAllreduce:
		if twoLevel {
			return AlgoTwoLevel
		}
		if size < 4 || size&(size-1) != 0 || bytes <= t.allreduceLong() {
			return AlgoRecDoubling
		}
		return AlgoRabenseifner
	case OpAllgather:
		if twoLevel {
			return AlgoTwoLevel
		}
		if bytes <= t.allgatherLong() {
			return AlgoBruck
		}
		return AlgoRing
	case OpAlltoall:
		if twoLevel {
			return AlgoTwoLevel
		}
		return AlgoPairwise
	case OpGather, OpScatter, OpGatherv, OpScatterv:
		return AlgoLinear
	case OpAlltoallv:
		// Per-rank counts are private, so selection may only key on the
		// globally known rank count: XOR pairing for powers of two, rotated
		// shifts otherwise (see vector.go on why size-based or Bruck-style
		// choices are unavailable).
		if size&(size-1) == 0 {
			return AlgoPairwise
		}
		return AlgoRing
	case OpAllgatherv:
		// The full recvcounts vector is known on every rank, so the total
		// payload is a globally consistent selector input.
		if twoLevel {
			return AlgoTwoLevel
		}
		if bytes <= t.allgatherLong() {
			return AlgoBruck
		}
		return AlgoRing
	case OpReduceScatter:
		if size&(size-1) == 0 {
			return AlgoRecHalving
		}
		return AlgoPairwise
	}
	panic(fmt.Sprintf("coll: select on unknown op %d", op))
}

// hasTwoLevel reports whether op has a registered hierarchical variant —
// the operations whose twoLevel selection outranks any table entry.
func hasTwoLevel(op OpKind) bool { return registry[op][AlgoTwoLevel] != nil }

// HasTwoLevel is the exported form of hasTwoLevel — the autotuner sweeps
// the flat-vs-two-level crossover for exactly these operations.
func HasTwoLevel(op OpKind) bool { return hasTwoLevel(op) }

// builderFallback maps a table's pick to the algorithm the builder would
// actually construct at this rank count: the power-of-two-only choices fall
// back inside their builders (FallsBack), and normalizing here keeps
// Key.Algo honest and stops the schedule cache from holding two entries for
// one structure. Byte thresholds cannot express the rank-count constraint,
// so a calibrated table may legitimately name, say, Rabenseifner at a size
// where the communicator is not a power of two.
func builderFallback(op OpKind, algo Algo, size int) Algo {
	if !FallsBack(op, algo, size) {
		return algo
	}
	switch op {
	case OpAlltoallv:
		return AlgoRing
	case OpReduceScatter:
		return AlgoPairwise
	case OpAllreduce:
		return AlgoRecDoubling
	}
	return algo
}

// Key canonicalizes one collective invocation's compiled shape on a given
// communicator: operation, selected algorithm, root, the stack identity the
// selection ran under, and the counts signature. Two invocations with equal
// keys on the same communicator compile to structurally identical
// schedules, differing only in which caller buffers they are bound to — the
// property the per-communicator schedule cache (mpi) relies on. Stack is
// part of the key because selection is stack-dependent once tables are in
// play: keys minted under different calibrations must never conflate.
type Key struct {
	Op    OpKind
	Algo  Algo
	Root  int
	Stack string
	// NP is the communicator's rank count. Selection keys on it twice over
	// — rank-count-banded tables and the power-of-two builder fallbacks —
	// so two communicators of different sizes must never share a compiled
	// shape even when their buffer signatures coincide.
	NP int
	// Seg is the resolved pipeline segment size for segmented algorithms
	// (0 otherwise). It is part of the key because segment size is shape:
	// the same buffers pipelined at a different granularity compile a
	// different round program, so two seg values must never share a cached
	// schedule.
	Seg int
	// Stripe is the resolved rail-stripe width for rail-striped algorithms
	// (0 otherwise), and Rails the profile of the rail set it was resolved
	// against. Stripe is shape for the same reason Seg is: the same
	// segments dealt across a different number of rails carry different
	// placement hints. Rails guards the remaining aliasing — the same width
	// over a different rail set deals a different sequence (bandwidth
	// weights), so a cached striped shape must not survive a rail-set
	// change. Both stay zero for unstriped invocations, keeping their keys
	// byte-identical to the pre-striping era.
	Stripe int
	Rails  string
	// Data, X and Mine are the scalar buffers' lengths, Out, Send and Recv
	// the block lists' shapes. Sig spells out what has no fixed width —
	// differing block lengths, reduce-scatter's counts, aliased send
	// displacements — and is empty (and costs nothing) otherwise.
	Data, X, Mine   int
	Out, Send, Recv BlockShape
	Sig             string
}

// BlockShape is a block list's shape in a Key: N blocks of Len bytes each,
// or Len -1 when the lengths differ and Key.Sig lists them.
type BlockShape struct{ N, Len int }

// KeyFor selects the algorithm and builds the canonical key for one
// invocation. Topology-dependent fallbacks live here: the two-level
// alltoall needs uniform block sizes and every two-level variant needs a
// node map, otherwise the flat selection applies.
func KeyFor(t *Tuning, op OpKind, a Args, twoLevel bool) Key {
	if twoLevel && a.Nodes == nil {
		twoLevel = false
	}
	if twoLevel && op == OpAlltoall && !uniformBlocks(a.Send) {
		twoLevel = false
	}
	bytes := payloadBytes(op, a)
	algo := t.Select(op, a.Size, bytes, twoLevel)
	if algo == AlgoTwoLevel && a.Nodes == nil {
		// No node map, so the two-level builders cannot run — even when the
		// tuning *forces* two-level: strip Force for the re-selection or it
		// would just return AlgoTwoLevel again and the builder would panic.
		noForce := Tuning{}
		if t != nil {
			noForce = *t
			noForce.Force = nil
		}
		algo = noForce.Select(op, a.Size, bytes, false)
	}
	k := Key{Op: op, Algo: algo, Root: rootOf(op, a), NP: a.Size}
	k.setShape(op, a)
	if Segmented(algo) {
		k.Seg = t.SegFor(op, a.Size, bytes)
	}
	if Striped(op, algo) {
		if w := t.StripeFor(op, a.Size, bytes); w > 0 {
			k.Stripe = w
			k.Rails = t.RailProfile()
		}
	}
	if t != nil {
		k.Stack = t.Stack
	}
	return k
}

// Registration names one installed (operation, algorithm) builder pair.
type Registration struct {
	Op   OpKind
	Algo Algo
}

// Registrations enumerates every registered builder pair, operation-major —
// the conformance harness walks this so a newly registered algorithm is
// covered (or fails coverage) automatically.
func Registrations() []Registration {
	var regs []Registration
	for op := OpKind(0); op < numOps; op++ {
		for a := Algo(0); a < numAlgos; a++ {
			if registry[op][a] != nil {
				regs = append(regs, Registration{Op: op, Algo: a})
			}
		}
	}
	return regs
}

// countsInSig reports whether op's schedule structure depends on a counts
// vector that the buffer views do not already pin: reduce-scatter has no
// per-rank views, and its halving windows depend on the whole vector, not
// just len(X) and len(RecvF64). The other vector ops' counts equal their
// Send/Recv/Out view lengths, which the key already records.
func countsInSig(op OpKind) bool {
	return op == OpReduceScatter
}

// FallsBack reports whether forcing algo for op at this rank count would
// silently build a different algorithm: the power-of-two-only choices fall
// back inside their builders. Owned here, next to those builders, so
// harnesses (cmd/collbench) don't duplicate the rules.
func FallsBack(op OpKind, algo Algo, size int) bool {
	if size&(size-1) == 0 {
		return false
	}
	switch {
	case op == OpAlltoallv && algo == AlgoPairwise:
		return true // XOR ordering needs a power of two
	case op == OpReduceScatter && algo == AlgoRecHalving:
		return true
	case op == OpAllreduce && algo == AlgoRabenseifner:
		return true
	}
	return false
}

// Build compiles a's schedule with key's algorithm.
func Build(key Key, a Args) *Schedule {
	b := registry[key.Op][key.Algo]
	if b == nil {
		panic(fmt.Sprintf("coll: no %s builder registered for %s", key.Algo, key.Op))
	}
	s := b(a)
	s.Key = key
	return s
}

// ByteTunable reports whether op's selection is a payload-size tradeoff a
// tuning table can express: more than one flat algorithm, discriminated by
// a globally agreed byte count. Alltoallv fails the second condition (its
// counts are rank-private, so payloadBytes feeds the selector a constant
// zero); the rooted linear ops and alltoall fail the first.
func ByteTunable(op OpKind) bool {
	switch op {
	case OpBcast, OpAllreduce, OpAllgather, OpAllgatherv, OpReduceScatter:
		return true
	}
	return false
}

// payloadBytes is the selector's size input: the bytes one rank contributes
// or receives, per operation.
func payloadBytes(op OpKind, a Args) int {
	switch op {
	case OpBcast:
		return len(a.Data)
	case OpReduce, OpAllreduce:
		return 8 * len(a.X)
	case OpAllgather:
		t := len(a.Mine)
		for _, b := range a.Out {
			t += len(b)
		}
		return t
	case OpAlltoall:
		t := 0
		for _, b := range a.Send {
			t += len(b)
		}
		return t
	case OpGather, OpGatherv:
		return len(a.Mine)
	case OpScatter, OpScatterv:
		return len(a.Mine)
	case OpAlltoallv:
		return 0 // selection ignores payload: per-rank counts are private
	case OpAllgatherv:
		return sumInts(a.RCounts)
	case OpReduceScatter:
		return 8 * len(a.X)
	}
	return 0
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// rootOf returns the root for rooted operations, -1 otherwise.
func rootOf(op OpKind, a Args) int {
	switch op {
	case OpBcast, OpReduce, OpGather, OpScatter, OpGatherv, OpScatterv:
		return a.Root
	}
	return -1
}

// setShape records the invocation's buffer counts in the key. What has no
// fixed width is gathered as one int vector — per section a negative mark
// (-1 Out, -2 Send, -3 Recv, -4 counts, -5 send displacements), then its
// non-negative values — and spelled out into Sig.
func (k *Key) setShape(op OpKind, a Args) {
	k.Data, k.X, k.Mine = len(a.Data), len(a.X), len(a.Mine)
	var ints []int
	if a.Sigs != nil {
		ints = a.Sigs.scratch[:0]
	}
	shape := func(mark int, bs [][]byte) BlockShape {
		if len(bs) == 0 {
			return BlockShape{}
		}
		if uniformBlocks(bs) {
			return BlockShape{N: len(bs), Len: len(bs[0])}
		}
		ints = append(ints, mark)
		for _, b := range bs {
			ints = append(ints, len(b))
		}
		return BlockShape{N: len(bs), Len: -1}
	}
	k.Out, k.Send, k.Recv = shape(-1, a.Out), shape(-2, a.Send), shape(-3, a.Recv)
	// The counts, for the ops whose structure the views do not already pin.
	// Displacements stay out of the key for disjoint layouts — they change
	// which buffer regions the blocks bind to, not the schedule's
	// structure, so Rebind absorbs them — but the mpi layer sets SDispls
	// for overlapping layouts, which must key exactly.
	if countsInSig(op) {
		ints = append(append(ints, -4), a.RCounts...)
	}
	if a.SDispls != nil {
		ints = append(append(ints, -5), a.SDispls...)
	}
	if len(ints) > 0 {
		k.Sig = a.Sigs.sig(ints)
	}
	if a.Sigs != nil {
		a.Sigs.scratch = ints
	}
}

// SigMemo remembers the signature strings of the variable-length shapes
// KeyFor keyed last, found again by comparing the int vectors themselves —
// so a repeated vector collective builds no string. A communicator's
// schedule cache owns one and passes it as Args.Sigs; a nil memo builds the
// string every time.
type SigMemo struct {
	scratch []int
	seen    []sigEntry // at most sigMemoCap, then it starts over
}

type sigEntry struct {
	ints []int
	sig  string
}

const sigMemoCap = 16

func (m *SigMemo) sig(ints []int) string {
	if m != nil {
		for i := range m.seen {
			if slices.Equal(m.seen[i].ints, ints) {
				return m.seen[i].sig
			}
		}
	}
	b := make([]byte, 0, 4*len(ints))
	for _, v := range ints {
		if v < 0 {
			b = append(b, '/', "osrcd"[-1-v])
		} else {
			b = append(strconv.AppendInt(b, int64(v), 10), ',')
		}
	}
	sig := string(b)
	if m != nil {
		if len(m.seen) == sigMemoCap {
			clear(m.seen)
			m.seen = m.seen[:0]
		}
		m.seen = append(m.seen, sigEntry{ints: slices.Clone(ints), sig: sig})
	}
	return sig
}

// uniformBlocks reports whether every block has the same length.
func uniformBlocks(bs [][]byte) bool {
	for _, b := range bs {
		if len(b) != len(bs[0]) {
			return false
		}
	}
	return true
}
