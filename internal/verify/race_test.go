//go:build race

package verify_test

// The race detector's runtime allocates on its own, in amounts that grow
// with run time, so allocation-count assertions are skipped under -race.
func init() { raceEnabled = true }
