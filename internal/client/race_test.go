//go:build race

package client

// raceEnabled reports whether the race detector is on; allocation
// counts are not meaningful under it.
const raceEnabled = true
