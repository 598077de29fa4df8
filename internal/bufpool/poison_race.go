//go:build race

package bufpool

// PoisonOnPut is true under the race detector — the mode the stress and
// conformance suites run in: a returned buffer is overwritten, so a payload
// read after its Put fails those suites' equality checks instead of passing
// by luck.
const PoisonOnPut = true
