//go:build race

package tiger

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
