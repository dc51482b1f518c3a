package packet

import (
	"wormhole/internal/netaddr"
)

// Protocol is the IPv4 protocol number.
type Protocol uint8

// Protocol numbers used by the simulator.
const (
	ProtoICMP Protocol = 1
	ProtoUDP  Protocol = 17
)

func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoUDP:
		return "udp"
	default:
		return "proto-" + itoa(int(p))
	}
}

// IPv4 is the subset of the IPv4 header the measurements care about.
// Options are not modeled (routers in the studied paths do not insert any).
type IPv4 struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	TTL      uint8
	Protocol Protocol
	Src, Dst netaddr.Addr
}

const ipv4HeaderLen = 20

// AppendWire appends the 20-byte IPv4 header (checksum included) followed
// by nothing; the caller appends the payload and must pass its length.
func (h IPv4) AppendWire(b []byte, payloadLen int) []byte {
	total := ipv4HeaderLen + payloadLen
	start := len(b)
	b = append(b,
		0x45, h.TOS,
		byte(total>>8), byte(total),
		byte(h.ID>>8), byte(h.ID),
		0, 0, // flags+fragment offset, patched below
		h.TTL, byte(h.Protocol),
		0, 0, // checksum, patched below
	)
	if h.DontFrag {
		b[start+6] = 0x40
	}
	s1, s2, s3, s4 := h.Src.Octets()
	d1, d2, d3, d4 := h.Dst.Octets()
	b = append(b, s1, s2, s3, s4, d1, d2, d3, d4)
	ck := Checksum(b[start : start+ipv4HeaderLen])
	b[start+10], b[start+11] = byte(ck>>8), byte(ck)
	return b
}

// DecodeIPv4 decodes an IPv4 header from the front of b, returning the
// header, the total datagram length from the header, and the byte offset of
// the payload.
func DecodeIPv4(b []byte) (IPv4, int, int, error) {
	if len(b) < ipv4HeaderLen {
		return IPv4{}, 0, 0, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return IPv4{}, 0, 0, errNotIPv4
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return IPv4{}, 0, 0, ErrTruncated
	}
	h := IPv4{
		TOS:      b[1],
		ID:       uint16(b[4])<<8 | uint16(b[5]),
		DontFrag: b[6]&0x40 != 0,
		TTL:      b[8],
		Protocol: Protocol(b[9]),
		Src:      netaddr.AddrFrom4(b[12], b[13], b[14], b[15]),
		Dst:      netaddr.AddrFrom4(b[16], b[17], b[18], b[19]),
	}
	total := int(b[2])<<8 | int(b[3])
	return h, total, ihl, nil
}

var errNotIPv4 = errorString("packet: not an IPv4 header")

type errorString string

func (e errorString) Error() string { return string(e) }

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
