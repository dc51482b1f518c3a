// Package packet models the wire formats the paper's measurements depend
// on: the MPLS label stack (RFC 3032), IPv4, ICMP — including the RFC 4884
// extension structure carrying the RFC 4950 MPLS label-stack object — and
// UDP.
//
// Two representations are provided, following the gopacket split between
// decoded layers and wire bytes: a struct form (Packet and the layer
// structs) that the simulator forwards directly for speed, and exact wire
// serialization/decoding used at probing boundaries and in round-trip tests
// so the formats stay honest.
package packet

import (
	"errors"
	"fmt"
)

// Label values with reserved meaning (RFC 3032 §2.1).
const (
	// LabelExplicitNull signals Ultimate Hop Popping: the egress LER asks
	// its upstream neighbors to keep one label on the stack all the way to
	// the egress, which pops it itself.
	LabelExplicitNull = 0
	// LabelRouterAlert forces the packet to the control plane.
	LabelRouterAlert = 1
	// LabelImplicitNull signals Penultimate Hop Popping: it is advertised
	// but never appears on the wire; the penultimate LSR pops the stack.
	LabelImplicitNull = 3
	// MaxLabel is the largest encodable 20-bit label.
	MaxLabel = 1<<20 - 1
)

// LSE is one MPLS Label Stack Entry: 20-bit label, 3-bit traffic class,
// bottom-of-stack flag, and an 8-bit TTL with the same purpose as the IP
// TTL (RFC 3443).
type LSE struct {
	Label  uint32
	TC     uint8
	Bottom bool
	TTL    uint8
}

// ErrTruncated reports a buffer too short for the layer being decoded.
var ErrTruncated = errors.New("packet: truncated")

// errBadLabel reports an unencodable label or traffic class.
var errBadLabel = errors.New("packet: label or TC out of range")

// AppendWire appends the 4-byte wire encoding of the LSE to b.
func (e LSE) AppendWire(b []byte) ([]byte, error) {
	if e.Label > MaxLabel || e.TC > 7 {
		return b, errBadLabel
	}
	v := e.Label<<12 | uint32(e.TC)<<9 | uint32(e.TTL)
	if e.Bottom {
		v |= 1 << 8
	}
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v)), nil
}

// DecodeLSE decodes one label stack entry from the front of b.
func DecodeLSE(b []byte) (LSE, error) {
	if len(b) < 4 {
		return LSE{}, ErrTruncated
	}
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	return LSE{
		Label:  v >> 12,
		TC:     uint8(v >> 9 & 7),
		Bottom: v>>8&1 == 1,
		TTL:    uint8(v),
	}, nil
}

// String renders the LSE the way the paper's traceroute output does.
func (e LSE) String() string {
	return fmt.Sprintf("Label %d TTL=%d", e.Label, e.TTL)
}

// LabelStack is an MPLS label stack, top entry first.
type LabelStack []LSE

// Push adds an entry on top of the stack. The Bottom flags of all entries
// are normalized (only the last entry carries the flag).
func (s LabelStack) Push(e LSE) LabelStack {
	out := make(LabelStack, 0, len(s)+1)
	out = append(out, e)
	out = append(out, s...)
	out.normalize()
	return out
}

// Pop removes the top entry, returning it and the remaining stack.
// ok is false when the stack is empty.
func (s LabelStack) Pop() (top LSE, rest LabelStack, ok bool) {
	if len(s) == 0 {
		return LSE{}, s, false
	}
	rest = make(LabelStack, len(s)-1)
	copy(rest, s[1:])
	rest.normalize()
	return s[0], rest, true
}

// PushInPlace is Push without the copy: it shifts the stack right within
// its own backing array (growing it only when capacity runs out) and
// normalizes Bottom flags. For use on packets the caller exclusively owns,
// e.g. pooled per-hop clones.
func (s *LabelStack) PushInPlace(e LSE) {
	*s = append(*s, LSE{})
	copy((*s)[1:], *s)
	(*s)[0] = e
	s.normalizeInPlace()
}

// PopInPlace is Pop without the copy: it shifts the remaining entries left
// within the same backing array. ok is false when the stack is empty.
func (s *LabelStack) PopInPlace() (top LSE, ok bool) {
	if len(*s) == 0 {
		return LSE{}, false
	}
	top = (*s)[0]
	copy(*s, (*s)[1:])
	*s = (*s)[:len(*s)-1]
	s.normalizeInPlace()
	return top, true
}

func (s *LabelStack) normalizeInPlace() {
	for i := range *s {
		(*s)[i].Bottom = i == len(*s)-1
	}
}

// Top returns the top entry without removing it.
func (s LabelStack) Top() (LSE, bool) {
	if len(s) == 0 {
		return LSE{}, false
	}
	return s[0], true
}

// Empty reports whether the stack has no entries.
func (s LabelStack) Empty() bool { return len(s) == 0 }

func (s LabelStack) normalize() {
	for i := range s {
		s[i].Bottom = i == len(s)-1
	}
}

// AppendWire appends the wire encoding of the whole stack to b.
func (s LabelStack) AppendWire(b []byte) ([]byte, error) {
	for i, e := range s {
		e.Bottom = i == len(s)-1
		var err error
		b, err = e.AppendWire(b)
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// DecodeLabelStack decodes label stack entries from b until the
// bottom-of-stack flag, returning the stack and the number of bytes read.
func DecodeLabelStack(b []byte) (LabelStack, int, error) {
	var s LabelStack
	off := 0
	for {
		e, err := DecodeLSE(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += 4
		s = append(s, e)
		if e.Bottom {
			return s, off, nil
		}
		if len(s) > 64 {
			return nil, 0, errors.New("packet: label stack implausibly deep")
		}
	}
}
