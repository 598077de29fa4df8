package coll

// This file holds the data-driven side of algorithm selection: a Table maps
// payload sizes to algorithms per operation, replacing the hard-coded
// MPICH-flavoured thresholds when present. Tables are calibrated per MPI
// stack from collbench sweeps (internal/coll/tune, cmd/colltune) — the
// paper's point is exactly that the communication subsystem underneath
// MPICH2 moves the crossover points, so thresholds tuned for one stack
// leave performance on the table on another.
//
// The format is deliberately minimal: per operation, an ascending list of
// inclusive rank-count bounds, each holding an ascending list of inclusive
// byte bounds, the last one open-ended. Bytes are in the
// *selector's* size space (payloadBytes in registry.go): the full buffer
// for bcast, 8·len(x) for the reductions, the total gathered payload for
// allgather/allgatherv. Selection safety for vector ops is unchanged — the
// selector still feeds the table only globally agreed byte counts, so two
// ranks can never disagree on a lookup.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// TableEntry is one threshold step: Algo applies to payloads of up to
// MaxBytes bytes (inclusive). A negative MaxBytes means unbounded and must
// terminate the list. For segmented algorithms Seg records the calibrated
// pipeline segment size in bytes (0 = DefSegBytes); validation rejects a
// seg on a non-segmented algorithm as dead config. For rail-striped
// algorithms Stripe records the calibrated rail-stripe width (0 = no
// striping; widths beyond the running stack's rail count clamp at
// resolution, see Tuning.Decide); validation likewise rejects a stripe
// on an algorithm that cannot stripe.
type TableEntry struct {
	MaxBytes int  `json:"max_bytes"`
	Algo     Algo `json:"algo"`
	Seg      int  `json:"seg,omitempty"`
	Stripe   int  `json:"stripe,omitempty"`
}

// NPBand scopes one list of byte-threshold entries to a rank-count range:
// the band applies to communicators of up to MaxNP ranks (inclusive), with
// a negative MaxNP meaning unbounded (and terminating the list). Bands are
// how a calibration records its own validity range — crossovers measured at
// NP=8 say nothing about NP=4096, where log-depth fan-out, tree height and
// payload aggregation all shift, so a lookup beyond the last band falls
// back to the (rank-count-aware) built-in defaults instead of silently
// stretching a small-scale calibration three orders of magnitude. A list
// that applies at every rank count is one band with MaxNP -1.
type NPBand struct {
	MaxNP   int          `json:"max_np"`
	Entries []TableEntry `json:"entries"`
}

// Table holds calibrated per-operation selection thresholds for one stack.
// Bands is keyed by OpKind name ("bcast", "allreduce", ...); operations
// absent from it keep the built-in default selection.
type Table struct {
	// Stack names the MPI stack the table was calibrated on
	// (cluster.Stack.Name). Tuning.Validate rejects a known mismatch with
	// the stack selection runs under — see that method for the deliberate
	// cross-application escape hatch.
	Stack string `json:"stack"`
	// Bands holds rank-count-banded entry lists, ascending by MaxNP. A
	// rank count beyond the last band deliberately misses: the calibration
	// does not claim validity there.
	Bands map[string][]NPBand `json:"bands,omitempty"`
	// TwoLevelMin calibrates the flat-vs-two-level crossover per operation:
	// when the caller requests the hierarchical variant, two-level is only
	// selected for payloads strictly above this many selector-space bytes —
	// below it the flat selection applies (leader aggregation costs an extra
	// intra-node phase that small payloads never amortize). A negative value
	// means two-level never won on the calibrated topology; an absent entry
	// leaves the structural default (two-level whenever requested).
	TwoLevelMin map[string]int `json:"two_level_min,omitempty"`
}

// MarshalJSON serializes the algorithm by name.
func (a Algo) MarshalJSON() ([]byte, error) {
	if int(a) >= len(algoNames) {
		return nil, fmt.Errorf("coll: cannot marshal unknown algo %d", uint8(a))
	}
	return json.Marshal(a.String())
}

// UnmarshalJSON parses an algorithm name.
func (a *Algo) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	got, err := AlgoByName(name)
	if err != nil {
		return err
	}
	*a = got
	return nil
}

// AlgoByName resolves an algorithm name to its enum value.
func AlgoByName(name string) (Algo, error) {
	for i, n := range algoNames {
		if n == name {
			return Algo(i), nil
		}
	}
	return AlgoAuto, fmt.Errorf("coll: unknown algorithm %q", name)
}

// MarshalJSON serializes the operation by name.
func (o OpKind) MarshalJSON() ([]byte, error) {
	if int(o) >= len(opNames) {
		return nil, fmt.Errorf("coll: cannot marshal unknown op %d", uint8(o))
	}
	return json.Marshal(o.String())
}

// UnmarshalJSON parses an operation name.
func (o *OpKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	got, err := OpKindByName(name)
	if err != nil {
		return err
	}
	*o = got
	return nil
}

// OpKindByName resolves an operation name to its enum value.
func OpKindByName(name string) (OpKind, error) {
	for i, n := range opNames {
		if n == name {
			return OpKind(i), nil
		}
	}
	return 0, fmt.Errorf("coll: unknown operation %q", name)
}

// checkOp resolves and vets an operation name appearing in one of the
// table's maps.
func (t *Table) checkOp(opName string) (OpKind, error) {
	op, err := OpKindByName(opName)
	if err != nil {
		return 0, fmt.Errorf("coll: table for stack %q: %v", t.Stack, err)
	}
	if !ByteTunable(op) {
		return 0, fmt.Errorf("coll: table for stack %q: selection for %s does not key on payload size, a table cannot tune it",
			t.Stack, op)
	}
	return op, nil
}

// validateEntries checks one byte-threshold list: a registered flat builder
// behind every entry, ascending thresholds, and exactly one open-ended
// entry closing the list.
func (t *Table) validateEntries(op OpKind, entries []TableEntry) error {
	if len(entries) == 0 {
		return fmt.Errorf("coll: table for stack %q: op %s has no entries", t.Stack, op)
	}
	prev := -1
	for i, e := range entries {
		if e.Algo == AlgoAuto || e.Algo == AlgoTwoLevel {
			return fmt.Errorf("coll: table for stack %q: op %s entry %d: %s is not a flat algorithm (tables drive flat selection; two-level is topology's decision)",
				t.Stack, op, i, e.Algo)
		}
		if int(e.Algo) >= int(numAlgos) || registry[op][e.Algo] == nil {
			return fmt.Errorf("coll: table for stack %q: op %s entry %d: no %s builder registered",
				t.Stack, op, i, e.Algo)
		}
		if e.Seg < 0 {
			return fmt.Errorf("coll: table for stack %q: op %s entry %d: negative seg %d",
				t.Stack, op, i, e.Seg)
		}
		if e.Seg > 0 && !Segmented(e.Algo) {
			return fmt.Errorf("coll: table for stack %q: op %s entry %d: seg %d on non-segmented algorithm %s (dead config)",
				t.Stack, op, i, e.Seg, e.Algo)
		}
		if e.Stripe < 0 {
			return fmt.Errorf("coll: table for stack %q: op %s entry %d: negative stripe %d",
				t.Stack, op, i, e.Stripe)
		}
		if e.Stripe > 0 && !Striped(op, e.Algo) {
			return fmt.Errorf("coll: table for stack %q: op %s entry %d: stripe %d on non-striped algorithm %s (dead config)",
				t.Stack, op, i, e.Stripe, e.Algo)
		}
		if e.MaxBytes < 0 {
			if i != len(entries)-1 {
				return fmt.Errorf("coll: table for stack %q: op %s entry %d: unbounded entry must be last",
					t.Stack, op, i)
			}
			continue
		}
		if i == len(entries)-1 {
			return fmt.Errorf("coll: table for stack %q: op %s: last entry must be unbounded (max_bytes < 0), got %d",
				t.Stack, op, e.MaxBytes)
		}
		if e.MaxBytes <= prev {
			return fmt.Errorf("coll: table for stack %q: op %s entry %d: max_bytes %d not ascending",
				t.Stack, op, i, e.MaxBytes)
		}
		prev = e.MaxBytes
	}
	return nil
}

// Validate checks the table's structure: known operations, a registered
// builder behind every entry, ascending thresholds (bytes within a list,
// rank counts across bands), and exactly one open-ended entry closing each
// byte list. Errors name the offending operation and entry so a hand-edited
// table fails loudly instead of silently falling back to defaults.
func (t *Table) Validate() error {
	for opName, bands := range t.Bands {
		op, err := t.checkOp(opName)
		if err != nil {
			return err
		}
		if len(bands) == 0 {
			return fmt.Errorf("coll: table for stack %q: op %s has no bands", t.Stack, op)
		}
		prevNP := 0
		for i, b := range bands {
			if b.MaxNP == 0 {
				return fmt.Errorf("coll: table for stack %q: op %s band %d: max_np 0 covers nothing", t.Stack, op, i)
			}
			if b.MaxNP < 0 && i != len(bands)-1 {
				return fmt.Errorf("coll: table for stack %q: op %s band %d: unbounded band must be last", t.Stack, op, i)
			}
			if b.MaxNP > 0 && b.MaxNP <= prevNP {
				return fmt.Errorf("coll: table for stack %q: op %s band %d: max_np %d not ascending", t.Stack, op, i, b.MaxNP)
			}
			if b.MaxNP > 0 {
				prevNP = b.MaxNP
			}
			if err := t.validateEntries(op, b.Entries); err != nil {
				return err
			}
		}
	}
	for opName := range t.TwoLevelMin {
		op, err := t.checkOp(opName)
		if err != nil {
			return err
		}
		if registry[op][AlgoTwoLevel] == nil {
			return fmt.Errorf("coll: table for stack %q: two_level_min for %s, but %s has no two-level builder", t.Stack, op, op)
		}
	}
	return nil
}

// LookupEntry returns the table entry matching op on np ranks at bytes of
// payload — algorithm plus its calibrated segment size and stripe width —
// or (zero, false) when the table has no applicable entry. The first band
// covering np applies; a rank count beyond the last band misses
// deliberately (the calibration's validity ends there, the built-in
// rank-count-aware defaults take over).
func (t *Table) LookupEntry(op OpKind, np, bytes int) (TableEntry, bool) {
	if t == nil {
		return TableEntry{}, false
	}
	for _, b := range t.Bands[op.String()] {
		if b.MaxNP >= 0 && np > b.MaxNP {
			continue
		}
		for _, e := range b.Entries {
			if e.MaxBytes < 0 || bytes <= e.MaxBytes {
				return e, true
			}
		}
		// Validate guarantees an unbounded final entry; an unvalidated
		// table without one falls through to the defaults rather than
		// panicking.
		break
	}
	return TableEntry{}, false
}

// OpNames returns the table's operation names in sorted order — the
// deterministic iteration order serializers and reports use.
func (t *Table) OpNames() []string {
	names := make([]string, 0, len(t.Bands))
	for n := range t.Bands {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSON serializes the table deterministically (encoding/json sorts map
// keys): byte-identical output for identical tables, the property the
// golden-file tests and CI artifacts rely on.
func (t *Table) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseTable decodes and validates a JSON table. Unknown fields and
// structural mistakes are errors, not silent fallbacks: a tuning file that
// does not say what the caller thinks it says must not quietly select
// defaults.
func ParseTable(data []byte) (*Table, error) {
	var t Table
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("coll: parsing tuning table: %v", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTable parses a serialized tuning table into the Tuning, replacing any
// previous table. The usual wiring is cfg.Coll.LoadTable(fileBytes) before
// mpi.Run.
func (t *Tuning) LoadTable(data []byte) error {
	tab, err := ParseTable(data)
	if err != nil {
		return err
	}
	t.Table = tab
	return nil
}

// Validate checks the whole Tuning: forced algorithms must have a builder
// registered for their operation, and a table, when present, must pass its
// own validation. mpi.Run calls this so misconfiguration fails the run with
// a message instead of panicking mid-collective or silently selecting
// defaults.
func (t *Tuning) Validate() error {
	if t == nil {
		return nil
	}
	if t.SegBytes < 0 {
		return fmt.Errorf("coll: tuning forces negative segment size %d", t.SegBytes)
	}
	if t.StripeWidth < 0 {
		return fmt.Errorf("coll: tuning forces negative stripe width %d", t.StripeWidth)
	}
	for op, a := range t.Force {
		if op >= numOps {
			return fmt.Errorf("coll: tuning forces unknown op %d", uint8(op))
		}
		if a == AlgoAuto {
			continue // explicit "let the selector choose"
		}
		if a != AlgoTwoLevel && (int(a) >= int(numAlgos) || registry[op][a] == nil) {
			return fmt.Errorf("coll: tuning forces %s for %s, but no such builder is registered", a, op)
		}
		if a == AlgoTwoLevel && registry[op][AlgoTwoLevel] == nil {
			return fmt.Errorf("coll: tuning forces two-level for %s, but %s has no two-level builder", op, op)
		}
	}
	if t.Table != nil {
		if err := t.Table.Validate(); err != nil {
			return err
		}
		// A table calibrated on one stack silently mis-selecting on another
		// is the exact failure per-stack calibration exists to prevent, so
		// a known mismatch is an error. Cross-stack application remains
		// possible deliberately: set Tuning.Stack to the table's stack (the
		// cache keys then record the calibration identity actually in
		// force).
		if t.Stack != "" && t.Table.Stack != "" && t.Stack != t.Table.Stack {
			return fmt.Errorf("coll: tuning table calibrated for stack %q but selection runs as %q; set Tuning.Stack to the table's stack to apply it deliberately",
				t.Table.Stack, t.Stack)
		}
	}
	return nil
}
