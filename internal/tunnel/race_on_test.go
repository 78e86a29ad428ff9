//go:build race

package tunnel

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because instrumentation allocates.
const raceEnabled = true
