// Package netaddr provides compact IPv4 address and prefix value types used
// throughout the simulator, together with a longest-prefix-match trie.
//
// The standard library's net.IP is a byte slice: it allocates, it is not
// comparable, and it cannot be used as a map key without conversion. The
// simulator forwards millions of probe packets, so addresses here are plain
// uint32-backed value types, comparable and hashable for free.
package netaddr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address stored in host byte order (most significant byte
// is the first octet). The zero Addr ("0.0.0.0") is the unspecified address.
type Addr uint32

// AddrFrom4 builds an Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	var parts [4]uint64
	rest := s
	for i := 0; i < 4; i++ {
		var field string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netaddr: invalid address %q", s)
			}
			field, rest = rest[:dot], rest[dot+1:]
		} else {
			field = rest
		}
		v, err := strconv.ParseUint(field, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netaddr: invalid address %q", s)
		}
		parts[i] = v
	}
	return AddrFrom4(byte(parts[0]), byte(parts[1]), byte(parts[2]), byte(parts[3])), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four octets of the address.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// IsUnspecified reports whether a is 0.0.0.0.
func (a Addr) IsUnspecified() bool { return a == 0 }

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	o1, o2, o3, o4 := a.Octets()
	// Hand-rolled to avoid fmt allocations on hot paths.
	var buf [15]byte
	b := strconv.AppendUint(buf[:0], uint64(o1), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(o2), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(o3), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(o4), 10)
	return string(b)
}

// Prefix is an IPv4 CIDR prefix: a network address plus a mask length.
// The address is always stored in canonical (masked) form.
type Prefix struct {
	addr Addr
	bits uint8
}

// ErrBadPrefix is returned for malformed prefix strings or mask lengths.
var ErrBadPrefix = errors.New("netaddr: invalid prefix")

// PrefixFrom builds a prefix from an address and mask length, masking the
// address down to its canonical network form.
func PrefixFrom(a Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, ErrBadPrefix
	}
	return Prefix{addr: a & maskOf(bits), bits: uint8(bits)}, nil
}

// MustPrefixFrom is PrefixFrom that panics on error.
func MustPrefixFrom(a Addr, bits int) Prefix {
	p, err := PrefixFrom(a, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	return PrefixFrom(a, bits)
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// HostPrefix returns the /32 prefix covering exactly a.
func HostPrefix(a Addr) Prefix { return Prefix{addr: a, bits: 32} }

func maskOf(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// Addr returns the (canonical) network address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether the prefix covers a.
func (p Prefix) Contains(a Addr) bool { return a&maskOf(int(p.bits)) == p.addr }

// IsHost reports whether the prefix is a single-address /32.
func (p Prefix) IsHost() bool { return p.bits == 32 }

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return uint64(1) << (32 - uint(p.bits)) }

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Nth returns the i'th address inside the prefix (0 = network address).
// It panics if i is out of range; callers iterate bounded by NumAddrs.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.NumAddrs() {
		panic("netaddr: Nth out of range for " + p.String())
	}
	return p.addr + Addr(i)
}
