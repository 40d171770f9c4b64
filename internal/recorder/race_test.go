//go:build race

package recorder

// Under the race detector compressing the cap test's zeros is slow.
func init() { raceEnabled = true }
