//go:build race

package rats

// The race detector instruments allocation, so exact counts do not hold.
func init() { raceEnabled = true }
