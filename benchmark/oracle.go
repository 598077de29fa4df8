package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// The correctness oracle's payload side. Every message carries a pattern
// derived from the seed and its stream key, plus iteration stamps that
// change on every send, so a receiver can tell a delivered payload from a
// stale, misrouted or partially written one. Receivers hold their own copy
// of the expected bytes; the program under test only ever sees payloads.

// fullCheckMax is the largest buffer compared byte for byte; longer ones
// are compared around every stamp and at both ends, which is where a lost
// or misplaced rendezvous chunk shows.
const fullCheckMax = 16 << 10

const (
	stampBytes  = 8
	stampSlots  = 16 // stamps spread over a long buffer
	checkWindow = 64
)

// fillPattern writes the pattern of stream key into b.
func fillPattern(b []byte, key uint64) {
	for i := range b {
		b[i] = byte((uint64(i)*0x9E3779B97F4A7C15 + key*0xBF58476D1CE4E5B9) >> 56)
	}
}

// stampCount is how many iteration stamps a buffer of n bytes carries: none
// below a stamp's size, one at the head up to fullCheckMax, stampSlots
// spread over a longer buffer plus one at its tail.
func stampCount(n int) int {
	switch {
	case n < stampBytes:
		return 0
	case n <= fullCheckMax:
		return 1
	}
	return stampSlots + 1
}

// stampOffset is where stamp j of a buffer of n bytes sits. (Offsets are
// computed, not listed, so the per-message oracle allocates nothing and
// stays out of allocs_per_op.)
func stampOffset(n, j int) int {
	if j == stampSlots {
		return n - stampBytes
	}
	return (n / stampSlots * j) &^ 7
}

// stamp writes iteration it at every stamp offset of b. Buffers shorter
// than a stamp carry its low bytes, so even a 4-byte message is unique.
func stamp(b []byte, it uint64) {
	if len(b) < stampBytes {
		var s [stampBytes]byte
		binary.LittleEndian.PutUint64(s[:], it)
		copy(b, s[:])
		return
	}
	for j := 0; j < stampCount(len(b)); j++ {
		off := stampOffset(len(b), j)
		binary.LittleEndian.PutUint64(b[off:], it+uint64(off))
	}
}

// sameBytes compares got with want: everything for short buffers, the
// windows around each stamp and both ends for long ones.
func sameBytes(got, want []byte) bool {
	if len(got) != len(want) {
		return false
	}
	if len(got) <= fullCheckMax {
		return bytes.Equal(got, want)
	}
	for j := 0; j < stampCount(len(got)); j++ {
		off := stampOffset(len(got), j)
		hi := off + checkWindow
		if hi > len(got) {
			hi = len(got)
		}
		if !bytes.Equal(got[off:hi], want[off:hi]) {
			return false
		}
	}
	return true
}

// wipeStamps clears the stamp positions of a receive buffer before it is
// reused, so a receive that never lands cannot pass on last iteration's data.
func wipeStamps(b []byte) {
	if len(b) < stampBytes {
		for i := range b {
			b[i] = 0
		}
		return
	}
	for j := 0; j < stampCount(len(b)); j++ {
		binary.LittleEndian.PutUint64(b[stampOffset(len(b), j):], 0)
	}
}

// jitter draws a size just below base, in [base-min(base/256, 32), base-1]
// (base itself for classes under 256 bytes): the seed picks the exact message
// size inside each size class, so no two seeds report the same virtual time
// while their per-op metrics stay comparable. The sizes stay strictly under
// the class base because the bases are powers of two, where the stack's
// thresholds sit (eager/rendezvous, cell payload, table crossovers): a draw
// that could land on either side of one would split the seeds into two
// different workloads.
func jitter(rng *rand.Rand, base int) int {
	span := base / 256
	if span > 32 {
		span = 32
	}
	if span == 0 {
		return base
	}
	return base - 1 - rng.Intn(span)
}
