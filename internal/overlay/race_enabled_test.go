//go:build race

package overlay

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
