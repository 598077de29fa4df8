//go:build !race

package bufpool

// PoisonOnPut is false outside the race detector: see poison_race.go.
const PoisonOnPut = false
