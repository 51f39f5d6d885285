//go:build !race

package engine

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
