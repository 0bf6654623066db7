//go:build race

package db

// The race detector makes sync.Pool drop items at random, so pooled hot
// paths allocate more under it; absolute allocation pins skip themselves.
func init() { raceEnabled = true }
