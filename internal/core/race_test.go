//go:build race

package core_test

// raceEnabled reports a race-detector build, which slows the long
// single-goroutine equivalence tests about twentyfold.
const raceEnabled = true
