//go:build race

package bufpool

// Under the race detector — the mode the stress and conformance suites run
// in — a returned buffer is overwritten, so a payload read after its Put
// fails those suites' equality checks instead of passing by luck.
const poisonOnPut = true
