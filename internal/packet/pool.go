package packet

// Pool recycles Packets and their sub-objects (ICMP, Quote, Extension, UDP,
// LabelStack backing arrays) so the simulator's per-hop clones stop hitting
// the allocator. A Pool is owned by a single fabric goroutine — the netsim
// ownership assertions guarantee single-threaded use — so it needs no
// locking.
//
// Lifetime contract: a packet obtained from Packet() or Clone() belongs to
// the pool and is recycled by Release() after the receiving node returns
// (Node.Receive forbids retaining packets). Code that must keep a delivered
// packet — the prober stores matched replies and aliases their RFC 4950
// label stacks — calls Adopt() first, which permanently removes the packet
// (and everything hanging off it) from pool ownership; Release then becomes
// a no-op for it.
type Pool struct {
	pkts   []*Packet
	icmps  []*ICMP
	quotes []*Quote
	exts   []*Extension
	udps   []*UDP
	stacks []LabelStack
}

// Packet returns a zeroed pool-owned packet.
func (pl *Pool) Packet() *Packet {
	if n := len(pl.pkts); n > 0 {
		p := pl.pkts[n-1]
		pl.pkts = pl.pkts[:n-1]
		return p
	}
	return &Packet{pooled: true}
}

// ICMP returns a zeroed pool-owned ICMP message.
func (pl *Pool) ICMP() *ICMP {
	if n := len(pl.icmps); n > 0 {
		m := pl.icmps[n-1]
		pl.icmps = pl.icmps[:n-1]
		return m
	}
	return &ICMP{}
}

// Quote returns a zeroed pool-owned quote.
func (pl *Pool) Quote() *Quote {
	if n := len(pl.quotes); n > 0 {
		q := pl.quotes[n-1]
		pl.quotes = pl.quotes[:n-1]
		return q
	}
	return &Quote{}
}

// Extension returns a zeroed pool-owned extension structure.
func (pl *Pool) Extension() *Extension {
	if n := len(pl.exts); n > 0 {
		e := pl.exts[n-1]
		pl.exts = pl.exts[:n-1]
		return e
	}
	return &Extension{}
}

// UDPHeader returns a zeroed pool-owned UDP header.
func (pl *Pool) UDPHeader() *UDP {
	if n := len(pl.udps); n > 0 {
		u := pl.udps[n-1]
		pl.udps = pl.udps[:n-1]
		return u
	}
	return &UDP{}
}

// Stack returns a zeroed label stack of length n backed by recycled
// capacity when available.
func (pl *Pool) Stack(n int) LabelStack {
	if m := len(pl.stacks); m > 0 {
		s := pl.stacks[m-1]
		pl.stacks = pl.stacks[:m-1]
		if cap(s) >= n {
			s = s[:n]
			for i := range s {
				s[i] = LSE{}
			}
			return s
		}
		// Too small for this request; let it go and allocate generously.
	}
	c := n
	if c < stackSpareCap {
		c = stackSpareCap
	}
	return make(LabelStack, n, c)
}

// stackSpareCap is the minimum capacity of freshly allocated pooled stacks,
// sized so label pushes inside tunnels (outer + a couple of Under labels)
// stay in place.
const stackSpareCap = 8

// GrowStack returns s with capacity for at least n entries (length and
// contents preserved), moving the stack into pooled storage when the
// backing array must grow. Label imposition on unlabeled pooled clones
// goes through here so the push lands in recycled capacity instead of a
// fresh append allocation every time.
func (pl *Pool) GrowStack(s LabelStack, n int) LabelStack {
	if cap(s) >= n {
		return s
	}
	ns := pl.Stack(n)[:len(s)]
	copy(ns, s)
	pl.releaseStack(s)
	return ns
}

// CloneStack deep-copies a label stack into pooled storage.
func (pl *Pool) CloneStack(src LabelStack) LabelStack {
	if len(src) == 0 {
		return nil
	}
	s := pl.Stack(len(src))
	copy(s, src)
	return s
}

// Clone returns a pool-owned deep copy of p. Routers clone before
// mutating so that probing code retains the packet it sent.
func (pl *Pool) Clone(p *Packet) *Packet {
	out := pl.Packet()
	out.MPLS = pl.CloneStack(p.MPLS)
	out.IP = p.IP
	if p.ICMP != nil {
		out.ICMP = pl.cloneICMP(p.ICMP)
	}
	if p.UDP != nil {
		u := pl.UDPHeader()
		*u = *p.UDP
		out.UDP = u
	}
	if p.Raw != nil {
		// Raw is control-plane payload, off the hot path; a plain copy is
		// fine and keeps ownership of the bytes unambiguous.
		out.Raw = append([]byte(nil), p.Raw...)
	}
	out.PayloadLen = p.PayloadLen
	out.Mark, out.Lineage = p.Mark, p.Lineage
	return out
}

func (pl *Pool) cloneICMP(src *ICMP) *ICMP {
	m := pl.ICMP()
	m.Type, m.Code, m.ID, m.Seq = src.Type, src.Code, src.ID, src.Seq
	if src.Quote != nil {
		q := pl.Quote()
		*q = *src.Quote
		m.Quote = q
	}
	if src.Ext != nil {
		e := pl.Extension()
		e.LabelStack = pl.CloneStack(src.Ext.LabelStack)
		m.Ext = e
	}
	return m
}

// Release returns a pool-owned packet and its sub-objects to the free
// lists. Adopted or never-pooled packets are ignored. The caller must not
// touch the packet afterwards.
func (pl *Pool) Release(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	if m := p.ICMP; m != nil {
		if q := m.Quote; q != nil {
			*q = Quote{}
			pl.quotes = append(pl.quotes, q)
		}
		if e := m.Ext; e != nil {
			pl.releaseStack(e.LabelStack)
			*e = Extension{}
			pl.exts = append(pl.exts, e)
		}
		*m = ICMP{}
		pl.icmps = append(pl.icmps, m)
	}
	if u := p.UDP; u != nil {
		*u = UDP{}
		pl.udps = append(pl.udps, u)
	}
	pl.releaseStack(p.MPLS)
	*p = Packet{pooled: true}
	pl.pkts = append(pl.pkts, p)
}

func (pl *Pool) releaseStack(s LabelStack) {
	if cap(s) == 0 {
		return
	}
	pl.stacks = append(pl.stacks, s[:0])
}

// Adopt transfers a packet (and everything reachable from it) out of pool
// ownership: a later Release is a no-op, so the caller may retain it
// indefinitely. Safe to call on packets that were never pooled.
func (pl *Pool) Adopt(p *Packet) {
	if p != nil {
		p.pooled = false
	}
}
