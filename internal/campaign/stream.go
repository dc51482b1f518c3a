// The streaming target scheduler. The stride sampler needs the full
// enumerated address list in memory to pick every len/max-th element —
// at the Giga rung that list alone is gigabytes, and enumerating it
// materializes every lazy stub. This scheduler replaces it with a seeded
// pseudo-random permutation over an indexable view of the target space:
// memory is O(accepted), coverage is exact (a Feistel network with
// cycle-walking is a bijection on [0, n)), and the draw order is a pure
// function of (space size, seed), so every engine accepts the identical
// target sequence.

package campaign

import (
	"sort"

	"wormhole/internal/netaddr"
)

// TargetSpace is an indexable target universe the scheduler permutes
// over, without demanding an enumerated slice: gen.Internet.ProbeSpace
// satisfies it while constructing nothing. Prefix(i) is the budget key
// of target i (its AS aggregate).
type TargetSpace interface {
	Len() int
	Addr(i int) netaddr.Addr
	Prefix(i int) netaddr.Prefix
}

// feistel is a 4-round Feistel network over 2^(2·halfBits) values — a
// seeded bijection. Values ≥ n are cycle-walked back through the network
// (walk below), which restricts the bijection to [0, n) without tables:
// O(1) state for any universe size.
type feistel struct {
	n        uint64
	halfBits uint
	halfMask uint64
	keys     [4]uint64
}

func newFeistel(n int, seed int64) feistel {
	f := feistel{n: uint64(n)}
	bits := uint(2)
	for uint64(1)<<bits < f.n {
		bits += 2 // even split: both halves the same width
	}
	f.halfBits = bits / 2
	f.halfMask = 1<<f.halfBits - 1
	// Round keys from splitmix64, the standard seed expander.
	s := uint64(seed)
	for i := range f.keys {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		f.keys[i] = z ^ z>>31
	}
	return f
}

func (f feistel) round(r, k uint64) uint64 {
	x := r ^ k
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

func (f feistel) apply(x uint64) uint64 {
	l, r := x>>f.halfBits, x&f.halfMask
	for _, k := range f.keys {
		l, r = r, l^f.round(r, k)&f.halfMask
	}
	return l<<f.halfBits | r
}

// walk maps i ∈ [0, n) to its permuted image in [0, n): apply the
// network, and while the image overshoots n, apply again. Termination
// and bijectivity follow from apply being a bijection on the power-of-4
// superset; the expected walk length is under 4 steps.
func (f feistel) walk(i uint64) uint64 {
	x := f.apply(i)
	for x >= f.n {
		x = f.apply(x)
	}
	return x
}

// streamTargets draws the space in permuted order and accepts each
// target whose budget prefix has taken fewer than budget targets, up to
// limit accepted targets (zero disables either bound). State is the
// budget map (bounded by the accepted count) and the O(1) permutation —
// flat in the universe size.
func streamTargets(space TargetSpace, seed int64, limit, budget int) []netaddr.Addr {
	n := space.Len()
	perm := newFeistel(n, seed)
	used := make(map[netaddr.Prefix]int)
	var out []netaddr.Addr
	for next := 0; next < n && (limit <= 0 || len(out) < limit); next++ {
		i := int(perm.walk(uint64(next)))
		if budget > 0 {
			pfx := space.Prefix(i)
			if used[pfx] >= budget {
				continue
			}
			used[pfx]++
		}
		out = append(out, space.Addr(i))
	}
	return out
}

// streamSampleTargets is the streamed replacement for the target-list
// stride sample: permute the canonically sorted list with the campaign
// seed, accept under the same per-prefix budget the bootstrap used
// (budget key = the target's ground-truth AS aggregate) up to
// MaxTargets, and re-sort — the shards' canonical order contract. A pure
// function of the sorted list, so every engine probes the same subset.
func (c *Campaign) streamSampleTargets(targets []netaddr.Addr) []netaddr.Addr {
	max := c.Cfg.MaxTargets
	budget := c.Cfg.PrefixBudget
	if len(targets) == 0 || (budget <= 0 && (max <= 0 || len(targets) <= max)) {
		return targets
	}
	f := newFeistel(len(targets), c.Cfg.StreamSeed^0x7461726765747321)
	used := make(map[netaddr.Prefix]int)
	capN := len(targets)
	if max > 0 && max < capN {
		capN = max
	}
	out := make([]netaddr.Addr, 0, capN)
	for i := uint64(0); i < uint64(len(targets)); i++ {
		if max > 0 && len(out) >= max {
			break
		}
		a := targets[f.walk(i)]
		if budget > 0 {
			// Bootstrap traced every selected target, so the owner lookup
			// never faults in a new stub here.
			if info, ok := c.In.Owner(a); ok {
				if used[info.AS.Aggregate] >= budget {
					continue
				}
				used[info.AS.Aggregate]++
			}
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
