//go:build race

package deltarepair_test

// raceEnabled reports a build with the race detector.
const raceEnabled = true
