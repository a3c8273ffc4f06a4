//go:build race

package sideeffect

// raceEnabled reports a build with the race detector.
const raceEnabled = true
