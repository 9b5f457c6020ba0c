//go:build race

package typecheck_test

// raceEnabled is set when the race detector is on: it moves values to
// the heap, so byte counts differ from a plain build.
const raceEnabled = true
