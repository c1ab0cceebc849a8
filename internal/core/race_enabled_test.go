//go:build race

package core

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation bounds are skipped.
const raceEnabled = true
