package netsim

// The names in this file belonged to the retired UDP port-cycle slot
// engine, which walked each slot once at MaxTTL and derived its lower-TTL
// replies backward. Cold UDP campaigns ran faster without it, so a UDP
// Paris probe now takes the ICMP probe's path: a memo hit, or a live run
// that memoizes its reply. The names stay, inert, only because the
// frozen perfbench module still compiles against them.

// SweepCounters is inert: every field always reads zero.
type SweepCounters struct {
	Walks, Replies, Fallbacks uint64
}

// SweepStats is inert: it always reads zero.
type SweepStats struct {
	UDP SweepCounters
}

// Total returns the UDP counters, which are zero.
func (s SweepStats) Total() SweepCounters { return s.UDP }

// SweepStats returns zero: the fabric has no slot engine.
func (n *Network) SweepStats() SweepStats { return SweepStats{} }

// SetSweepEnabled does nothing: the fabric has no slot engine.
func (n *Network) SetSweepEnabled(bool) {}
