//go:build race

package netsim

// RaceEnabled reports whether this build runs under the race detector:
// only then does a bound fabric re-check its driver's goroutine every
// ownerCheckInterval drains, and the concurrency stress tier scales its
// iteration count with it.
const RaceEnabled = true
