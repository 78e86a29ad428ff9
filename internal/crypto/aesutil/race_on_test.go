//go:build race

package aesutil

// raceEnabled reports whether the race detector is active; the million-key
// differential runs fewer keys under it.
const raceEnabled = true
