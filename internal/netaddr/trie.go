package netaddr

// Trie is a binary (unibit) longest-prefix-match trie mapping prefixes to
// arbitrary values. It is the FIB structure used by every simulated router.
//
// Nodes live in one contiguous slice and reference each other by index, not
// by pointer. That layout is what makes fabric snapshots cheap: CloneInto
// is a single slice copy plus a linear pass over stored values, with no
// pointer-chasing traversal and no per-node allocation. It also means
// Insert never hits the allocator except to grow the backing slice.
//
// The zero Trie is ready to use. Trie is not safe for concurrent mutation;
// lookups are safe concurrently with each other.
type Trie[V any] struct {
	// nodes[0] is the root when non-empty. Child index 0 means "no child"
	// (the root is never anyone's child, so 0 is free as a sentinel).
	nodes []trieNode[V]
	size  int
}

type trieNode[V any] struct {
	child [2]int32
	val   V
	set   bool
}

// Insert adds or replaces the value for an exact prefix.
func (t *Trie[V]) Insert(p Prefix, v V) {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, trieNode[V]{})
	}
	n := int32(0)
	a := uint32(p.Addr())
	for i := 0; i < p.Bits(); i++ {
		b := (a >> (31 - uint(i))) & 1
		if t.nodes[n].child[b] == 0 {
			t.nodes = append(t.nodes, trieNode[V]{})
			t.nodes[n].child[b] = int32(len(t.nodes) - 1)
		}
		n = t.nodes[n].child[b]
	}
	nd := &t.nodes[n]
	if !nd.set {
		t.size++
	}
	nd.val, nd.set = v, true
}

// LookupPrefix returns the longest prefix covering a and its value.
func (t *Trie[V]) LookupPrefix(a Addr) (p Prefix, v V, ok bool) {
	if len(t.nodes) == 0 {
		return p, v, false
	}
	u := uint32(a)
	n := int32(0)
	for i := 0; ; i++ {
		nd := &t.nodes[n]
		if nd.set {
			p = Prefix{addr: Addr(u) & maskOf(i), bits: uint8(i)}
			v, ok = nd.val, true
		}
		if i == 32 {
			break
		}
		n = nd.child[(u>>(31-uint(i)))&1]
		if n == 0 {
			break
		}
	}
	return p, v, ok
}

// Get returns the value stored for an exact prefix (no LPM semantics).
func (t *Trie[V]) Get(p Prefix) (v V, ok bool) {
	if len(t.nodes) == 0 {
		return v, false
	}
	n := int32(0)
	a := uint32(p.Addr())
	for i := 0; i < p.Bits(); i++ {
		n = t.nodes[n].child[(a>>(31-uint(i)))&1]
		if n == 0 {
			return v, false
		}
	}
	nd := &t.nodes[n]
	if !nd.set {
		return v, false
	}
	return nd.val, true
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// NodeCount returns the number of trie nodes (interior and leaf). It is
// the arena-sizing companion to Len: a CloneInto of this trie consumes
// exactly NodeCount slots of a TrieArena.
func (t *Trie[V]) NodeCount() int { return len(t.nodes) }

// TrieArena is a fabric-wide slab of trie nodes shared by many CloneInto
// calls. A snapshot sizes one arena with the summed NodeCount of every
// FIB/binding trie it will copy, then clones each trie as a carve of the
// slab — one bulk allocation for the whole fabric instead of one per
// router.
type TrieArena[V any] struct {
	slab []trieNode[V]
}

// NewTrieArena pre-sizes an arena for n nodes. Clones beyond the reserved
// capacity still work (the slab grows), but earlier carves then keep the
// old backing array, wasting memory — size it with summed NodeCount.
func NewTrieArena[V any](n int) *TrieArena[V] {
	return &TrieArena[V]{slab: make([]trieNode[V], 0, n)}
}

// CloneInto returns a structurally independent copy of the trie, its node
// slice carved from a shared arena. Each stored value is passed through
// fn, which lets callers rewrite pointer values (e.g. remap routes onto a
// snapshot's interfaces) during the copy; a nil fn copies values as-is.
// Because nodes reference each other by slice index, the copy is one
// memcpy and (with fn) a linear sweep — no traversal. The carve is
// capacity-clipped, so a later Insert on the clone that needs to grow
// reallocates privately instead of clobbering its arena neighbor.
func (t *Trie[V]) CloneInto(a *TrieArena[V], fn func(V) V) Trie[V] {
	nt := Trie[V]{size: t.size}
	if len(t.nodes) == 0 {
		return nt
	}
	start := len(a.slab)
	a.slab = append(a.slab, t.nodes...)
	nt.nodes = a.slab[start:len(a.slab):len(a.slab)]
	if fn != nil {
		for i := range nt.nodes {
			if nt.nodes[i].set {
				nt.nodes[i].val = fn(nt.nodes[i].val)
			}
		}
	}
	return nt
}
