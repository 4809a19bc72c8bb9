//go:build race

package obdrel

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
