//go:build race

package appraiser

// Under the race detector sync.Pool drops a random quarter of its Puts,
// so pooled scratch is reallocated and allocation counts are not exact.
func init() { raceEnabled = true }
