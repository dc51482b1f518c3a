package packet

import (
	"fmt"
	"strings"
)

// Packet is the unit the simulator forwards: an optional MPLS label stack
// encapsulating an IPv4 datagram whose payload is ICMP or UDP. The struct
// form is what routers manipulate; Serialize/Decode produce and consume the
// equivalent wire bytes.
type Packet struct {
	MPLS LabelStack // outer encapsulation; empty means plain IP
	IP   IPv4
	ICMP *ICMP // set when IP.Protocol == ProtoICMP
	UDP  *UDP  // set when IP.Protocol == ProtoUDP
	// Raw carries the opaque payload of protocols the codec does not
	// model (TCP, OSPF and the like), so Decode and Serialize round-trip
	// them.
	Raw []byte

	// PayloadLen is opaque application payload carried beyond the modeled
	// headers; it only affects serialized length.
	PayloadLen int

	// Mark tags a probe whose forwarding trajectory the fabric's flow
	// cache is recording; per-hop clones inherit it, generated replies do
	// not. Zero (the default) means unobserved. Mark never reaches the
	// wire form.
	Mark uint32

	// Lineage tracks, per TTL field, whether its current value is an
	// affine function of the probe's initial TTL (bit set: the field
	// shifts one-for-one with the initial TTL) or a constant independent
	// of it (bit clear: seeded from 255 or an OS personality value). Bit
	// 31 covers IP.TTL; bit i covers MPLS[i].TTL. Routers maintain it on
	// marked packets across pushes, pops, and min-on-pop copies; the flow
	// cache uses it to patch a memoized trajectory snapshot for a probe
	// with a different initial TTL. Like Mark, it never reaches the wire.
	Lineage uint32

	// pooled marks a packet owned by a Pool; Pool.Release recycles it and
	// Pool.Adopt clears the mark so retained packets escape recycling.
	pooled bool
}

// Lineage bit layout: bit 31 is the IP TTL, bits 0..15 the label stack
// (bit i = MPLS[i], top of stack at bit 0).
const (
	lineageIPBit    = uint32(1) << 31
	lineageMPLSMask = uint32(0xFFFF)
)

// LineageIP reports whether IP.TTL is initial-TTL-propagated.
func (p *Packet) LineageIP() bool { return p.Lineage&lineageIPBit != 0 }

// SetLineageIP records whether IP.TTL is initial-TTL-propagated.
func (p *Packet) SetLineageIP(prop bool) {
	if prop {
		p.Lineage |= lineageIPBit
	} else {
		p.Lineage &^= lineageIPBit
	}
}

// LineageTop reports whether the top LSE's TTL is initial-TTL-propagated.
func (p *Packet) LineageTop() bool { return p.Lineage&1 != 0 }

// SetLineageTop records the top LSE's lineage.
func (p *Packet) SetLineageTop(prop bool) {
	if prop {
		p.Lineage |= 1
	} else {
		p.Lineage &^= 1
	}
}

// PushLineage shifts the label-stack lineage bits for a PushInPlace and
// records the new top's lineage. Call it alongside every push on a marked
// packet, in push order.
func (p *Packet) PushLineage(prop bool) {
	mpls := (p.Lineage & lineageMPLSMask) << 1 & lineageMPLSMask
	if prop {
		mpls |= 1
	}
	p.Lineage = p.Lineage&^lineageMPLSMask | mpls
}

// PopLineage shifts the label-stack lineage bits for a PopInPlace and
// returns the popped entry's lineage.
func (p *Packet) PopLineage() bool {
	prop := p.Lineage&1 != 0
	p.Lineage = p.Lineage&^lineageMPLSMask | (p.Lineage&lineageMPLSMask)>>1
	return prop
}

// Labeled reports whether the packet currently carries a label stack.
func (p *Packet) Labeled() bool { return !p.MPLS.Empty() }

// Serialize renders the full wire form: label stack, IPv4 header, transport.
func (p *Packet) Serialize() ([]byte, error) {
	transport, err := p.transportWire()
	if err != nil {
		return nil, err
	}
	b, err := p.MPLS.AppendWire(nil)
	if err != nil {
		return nil, err
	}
	b = p.IP.AppendWire(b, len(transport))
	return append(b, transport...), nil
}

func (p *Packet) transportWire() ([]byte, error) {
	var transport []byte
	switch p.IP.Protocol {
	case ProtoICMP:
		if p.ICMP == nil {
			return nil, errorString("packet: ICMP protocol without ICMP layer")
		}
		var err error
		transport, err = p.ICMP.AppendWire(nil)
		if err != nil {
			return nil, err
		}
	case ProtoUDP:
		if p.UDP == nil {
			return nil, errorString("packet: UDP protocol without UDP layer")
		}
		transport = p.UDP.AppendWire(nil, p.PayloadLen)
	default:
		if p.Raw == nil {
			return nil, fmt.Errorf("packet: cannot serialize protocol %v", p.IP.Protocol)
		}
		transport = append(transport, p.Raw...)
	}
	for i := 0; i < p.PayloadLen; i++ {
		transport = append(transport, 0)
	}
	return transport, nil
}

// Decode parses wire bytes into a Packet. If the first 4 bytes do not look
// like an IPv4 header, an MPLS label stack is assumed to precede it (the
// simulator knows from link context whether a frame is labeled; on a real
// wire the ethertype disambiguates).
func Decode(b []byte) (*Packet, error) {
	p := &Packet{}
	if len(b) >= 1 && b[0]>>4 != 4 {
		stack, n, err := DecodeLabelStack(b)
		if err != nil {
			return nil, err
		}
		p.MPLS = stack
		b = b[n:]
	}
	h, total, off, err := DecodeIPv4(b)
	if err != nil {
		return nil, err
	}
	p.IP = h
	if total > len(b) || total < off {
		return nil, ErrTruncated
	}
	body := b[off:total]
	switch h.Protocol {
	case ProtoICMP:
		m, err := DecodeICMP(body)
		if err != nil {
			return nil, err
		}
		p.ICMP = m
		wire, err := m.AppendWire(nil)
		if err != nil {
			return nil, err
		}
		p.PayloadLen = len(body) - len(wire)
		if p.PayloadLen < 0 {
			p.PayloadLen = 0
		}
	case ProtoUDP:
		u, err := DecodeUDP(body)
		if err != nil {
			return nil, err
		}
		p.UDP = &u
		p.PayloadLen = len(body) - 8
	default:
		p.Raw = append([]byte(nil), body...)
	}
	return p, nil
}

// String renders a compact one-line description for logs and tests.
func (p *Packet) String() string {
	var sb strings.Builder
	if p.Labeled() {
		fmt.Fprintf(&sb, "MPLS%v ", p.MPLS)
	}
	fmt.Fprintf(&sb, "%s->%s ttl=%d %s", p.IP.Src, p.IP.Dst, p.IP.TTL, p.IP.Protocol)
	if p.ICMP != nil {
		fmt.Fprintf(&sb, " type=%d code=%d", p.ICMP.Type, p.ICMP.Code)
	}
	if p.UDP != nil {
		fmt.Fprintf(&sb, " ports=%d->%d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	return sb.String()
}
