//go:build !race

package engine_test

// raceEnabled reports a build with the race detector.
const raceEnabled = false
