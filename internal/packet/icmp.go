package packet

// ICMP message types used by traceroute-style probing.
const (
	ICMPEchoReply     = 0
	ICMPDestUnreach   = 3
	ICMPEchoRequest   = 8
	ICMPTimeExceeded  = 11
	CodeTTLExpired    = 0 // TimeExceeded: TTL expired in transit
	CodePortUnreach   = 3 // DestUnreach: closed UDP port (classic traceroute)
	CodeHostUnreach   = 1
	CodeFragNeeded    = 4
	icmpOriginalQuote = 128 // RFC 4884: bytes of original datagram when extended
)

// ICMP is an ICMP message. Echo messages use ID/Seq; error messages carry a
// Quote of the datagram that triggered them and, when the generating router
// implements RFC 4950, an Extension holding the MPLS label stack of the
// packet as received.
type ICMP struct {
	Type uint8
	Code uint8

	// Echo request/reply identification.
	ID  uint16
	Seq uint16

	// Error-message payload.
	Quote *Quote
	Ext   *Extension
}

// Quote summarizes the datagram quoted inside an ICMP error (RFC 792
// requires the original IP header plus at least 8 payload bytes; those 8
// bytes identify the probe).
type Quote struct {
	IP IPv4

	// First 8 bytes of the original transport header.
	ICMPType uint8 // when IP.Protocol == ProtoICMP
	ICMPCode uint8
	ID       uint16 // echo ID or UDP source port
	Seq      uint16 // echo Seq or UDP destination port
}

// Extension is the RFC 4884 extension structure. Only the RFC 4950 MPLS
// label stack object (class 1, c-type 1) is modeled, as that is the one
// MPLS measurement uses.
type Extension struct {
	LabelStack LabelStack
}

// IsError reports whether the message is an error (carries a quote) rather
// than an echo.
func (m *ICMP) IsError() bool {
	return m.Type == ICMPTimeExceeded || m.Type == ICMPDestUnreach
}

// AppendWire appends the ICMP wire encoding to b.
func (m *ICMP) AppendWire(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, m.Type, m.Code, 0, 0)
	switch {
	case m.IsError():
		// RFC 4884: byte 4 unused, byte 5 = length of the quoted datagram
		// in 32-bit words (0 when no extension follows).
		quoted, err := m.quoteWire()
		if err != nil {
			return b, err
		}
		lengthField := byte(0)
		if m.Ext != nil {
			// Pad the quote to the RFC 4884 minimum so the extension
			// structure starts at a well-known offset.
			for len(quoted) < icmpOriginalQuote {
				quoted = append(quoted, 0)
			}
			lengthField = byte(len(quoted) / 4)
		}
		b = append(b, 0, lengthField, 0, 0)
		b = append(b, quoted...)
		if m.Ext != nil {
			b, err = m.Ext.appendWire(b)
			if err != nil {
				return b, err
			}
		}
	default:
		b = append(b, byte(m.ID>>8), byte(m.ID), byte(m.Seq>>8), byte(m.Seq))
	}
	ck := Checksum(b[start:])
	b[start+2], b[start+3] = byte(ck>>8), byte(ck)
	return b, nil
}

func (m *ICMP) quoteWire() ([]byte, error) {
	if m.Quote == nil {
		return nil, errorString("packet: ICMP error without quote")
	}
	q := m.Quote
	var transport [8]byte
	switch q.IP.Protocol {
	case ProtoICMP:
		transport[0], transport[1] = q.ICMPType, q.ICMPCode
		transport[4], transport[5] = byte(q.ID>>8), byte(q.ID)
		transport[6], transport[7] = byte(q.Seq>>8), byte(q.Seq)
		ck := Checksum(transport[:])
		transport[2], transport[3] = byte(ck>>8), byte(ck)
	default:
		transport[0], transport[1] = byte(q.ID>>8), byte(q.ID)
		transport[2], transport[3] = byte(q.Seq>>8), byte(q.Seq)
	}
	out := q.IP.AppendWire(nil, len(transport))
	return append(out, transport[:]...), nil
}

// decodeQuote reverses quoteWire.
func decodeQuote(b []byte) (*Quote, error) {
	h, _, off, err := DecodeIPv4(b)
	if err != nil {
		return nil, err
	}
	if len(b) < off+8 {
		return nil, ErrTruncated
	}
	t := b[off : off+8]
	q := &Quote{IP: h}
	switch h.Protocol {
	case ProtoICMP:
		q.ICMPType, q.ICMPCode = t[0], t[1]
		q.ID = uint16(t[4])<<8 | uint16(t[5])
		q.Seq = uint16(t[6])<<8 | uint16(t[7])
	default:
		q.ID = uint16(t[0])<<8 | uint16(t[1])
		q.Seq = uint16(t[2])<<8 | uint16(t[3])
	}
	return q, nil
}

// RFC 4884 extension header: version 2 in the top nibble, then a checksum
// over the whole extension structure. Objects follow, each with a 4-byte
// header: length (incl. header), class, c-type.
const (
	extVersion        = 2
	extClassMPLS      = 1 // RFC 4950
	extCTypeMPLSStack = 1
)

func (e *Extension) appendWire(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, extVersion<<4, 0, 0, 0)
	objStart := len(b)
	b = append(b, 0, 0, extClassMPLS, extCTypeMPLSStack)
	var err error
	b, err = e.LabelStack.AppendWire(b)
	if err != nil {
		return b, err
	}
	objLen := len(b) - objStart
	b[objStart], b[objStart+1] = byte(objLen>>8), byte(objLen)
	ck := Checksum(b[start:])
	b[start+2], b[start+3] = byte(ck>>8), byte(ck)
	return b, nil
}

func decodeExtension(b []byte) (*Extension, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	if b[0]>>4 != extVersion {
		return nil, errorString("packet: unknown ICMP extension version")
	}
	b = b[4:]
	for len(b) >= 4 {
		objLen := int(b[0])<<8 | int(b[1])
		class, ctype := b[2], b[3]
		if objLen < 4 || objLen > len(b) {
			return nil, ErrTruncated
		}
		if class == extClassMPLS && ctype == extCTypeMPLSStack {
			stack, _, err := DecodeLabelStack(b[4:objLen])
			if err != nil {
				return nil, err
			}
			return &Extension{LabelStack: stack}, nil
		}
		b = b[objLen:]
	}
	return nil, errorString("packet: no MPLS extension object")
}

// DecodeICMP decodes an ICMP message from b (b covers exactly the ICMP
// part of the datagram).
func DecodeICMP(b []byte) (*ICMP, error) {
	if len(b) < 8 {
		return nil, ErrTruncated
	}
	m := &ICMP{Type: b[0], Code: b[1]}
	if !m.IsError() {
		m.ID = uint16(b[4])<<8 | uint16(b[5])
		m.Seq = uint16(b[6])<<8 | uint16(b[7])
		return m, nil
	}
	quoteLen := int(b[5]) * 4
	rest := b[8:]
	q, err := decodeQuote(rest)
	if err != nil {
		return nil, err
	}
	m.Quote = q
	if quoteLen > 0 {
		if len(rest) < quoteLen+4 {
			return nil, ErrTruncated
		}
		ext, err := decodeExtension(rest[quoteLen:])
		if err != nil {
			return nil, err
		}
		m.Ext = ext
	}
	return m, nil
}

// UDP is a minimal UDP header.
type UDP struct {
	SrcPort, DstPort uint16
}

// AppendWire appends the 8-byte UDP header (checksum zeroed: legal in
// IPv4) plus nothing; payload length is the caller's business.
func (u UDP) AppendWire(b []byte, payloadLen int) []byte {
	l := 8 + payloadLen
	return append(b,
		byte(u.SrcPort>>8), byte(u.SrcPort),
		byte(u.DstPort>>8), byte(u.DstPort),
		byte(l>>8), byte(l), 0, 0)
}

// DecodeUDP decodes a UDP header.
func DecodeUDP(b []byte) (UDP, error) {
	if len(b) < 8 {
		return UDP{}, ErrTruncated
	}
	return UDP{
		SrcPort: uint16(b[0])<<8 | uint16(b[1]),
		DstPort: uint16(b[2])<<8 | uint16(b[3]),
	}, nil
}
