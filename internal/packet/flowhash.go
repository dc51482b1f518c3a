package packet

// FNV-1a parameters (hash/fnv), inlined so the per-hop ECMP hash does not
// allocate a hash.Hash32. The digest is bit-identical to fnv.New32a over
// the same bytes — paths, and therefore campaign output, are unchanged.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// FlowHash computes the per-flow ECMP hash over the fields Paris
// traceroute keeps constant: addresses, protocol, and the first 4 bytes of
// the transport header (ICMP checksum/id or ports). It lives in packet
// because it is a pure function of packet fields.
func FlowHash(pkt *Packet) uint32 {
	var b [13]byte
	src, dst := uint32(pkt.IP.Src), uint32(pkt.IP.Dst)
	b[0], b[1], b[2], b[3] = byte(src>>24), byte(src>>16), byte(src>>8), byte(src)
	b[4], b[5], b[6], b[7] = byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)
	b[8] = byte(pkt.IP.Protocol)
	switch {
	case pkt.ICMP != nil && !pkt.ICMP.IsError():
		b[9], b[10] = byte(pkt.ICMP.ID>>8), byte(pkt.ICMP.ID)
	case pkt.ICMP != nil && pkt.ICMP.Quote != nil:
		// Error replies hash on the quoted probe's flow so that a reply
		// takes a stable path too.
		b[9], b[10] = byte(pkt.ICMP.Quote.ID>>8), byte(pkt.ICMP.Quote.ID)
	case pkt.UDP != nil:
		b[9], b[10] = byte(pkt.UDP.SrcPort>>8), byte(pkt.UDP.SrcPort)
		b[11], b[12] = byte(pkt.UDP.DstPort>>8), byte(pkt.UDP.DstPort)
	}
	h := uint32(fnvOffset32)
	for _, c := range b {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	return mix32(h)
}

// mix32 is a murmur3-style finalizer. FNV alone is a poor ECMP hash: its
// low bit is just the XOR of the input bytes' low bits, so structured flow
// identifiers (e.g. IDs stepping by 0x0101) never change hash%2 and a
// two-way ECMP stage would look like a single path.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
