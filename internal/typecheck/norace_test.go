//go:build !race

package typecheck_test

const raceEnabled = false
