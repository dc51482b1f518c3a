package gen_test

// Wire-codec round-trip and corruption tests. External test package so
// the rungs come from internal/experiments (which imports gen).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strings"
	"testing"
	"time"

	"wormhole/internal/experiments"
	"wormhole/internal/gen"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
	"wormhole/internal/wirefmt"
)

func roundTrip(t *testing.T, scale experiments.Scale, stride int) {
	t.Helper()
	in, err := gen.Build(scale.Params(2024))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := in.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	out, err := gen.DecodeWire(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.EquivalenceDiff(in, out, stride); err != nil {
		t.Fatalf("decode(encode(x)) diverges from x at %v: %v", scale, err)
	}
	// The decoded fabric must itself be replicable — campaign workers
	// snapshot it for their replica pools.
	snap, err := out.Snapshot()
	if err != nil {
		t.Fatalf("decoded fabric does not snapshot: %v", err)
	}
	if err := gen.EquivalenceDiff(in, snap, stride*3); err != nil {
		t.Fatalf("snapshot of decoded fabric diverges: %v", err)
	}
}

func TestWireRoundTripSmall(t *testing.T)  { roundTrip(t, experiments.Small, 7) }
func TestWireRoundTripMedium(t *testing.T) { roundTrip(t, experiments.Medium, 41) }

func TestWireRoundTripLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier")
	}
	roundTrip(t, experiments.Large, 499)
}

// TestReplicaBlobIdentity requires each replica constructor to build
// exactly the fabric its source's blob describes: EncodeWire of a
// Snapshot replica, and of DecodeWire(EncodeWire(x)), must equal
// EncodeWire(x) byte for byte. The blob holds what EquivalenceDiff's
// sampled traces cannot see — link delays and states, interface names,
// the ground-truth address index, the clock basis and a lazy world's
// resident set.
func TestReplicaBlobIdentity(t *testing.T) {
	rung := func(s experiments.Scale) func(t *testing.T) *gen.Internet {
		return func(t *testing.T) *gen.Internet {
			if s == experiments.Large && testing.Short() {
				t.Skip("scale tier")
			}
			in, err := gen.Build(s.Params(2024))
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
	}
	for _, c := range []struct {
		name  string
		world func(t *testing.T) *gen.Internet
	}{
		{"small", rung(experiments.Small)},
		{"medium", rung(experiments.Medium)},
		{"large", rung(experiments.Large)},
		{"lazy-faulted", func(t *testing.T) *gen.Internet { return lazyFaulted(t) }},
		{"probed-link-down", func(t *testing.T) *gen.Internet {
			in := rung(experiments.Small)(t)
			gen.SampleTraces(in, 17)
			if !downCoreLink(in) {
				t.Fatal("no intra-AS core link to take down")
			}
			return in
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := c.world(t)
			want, err := in.EncodeWire()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := in.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := gen.DecodeWire(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				name string
				w    *gen.Internet
			}{{"snapshot", snap}, {"decoded", dec}} {
				got, err := r.w.EncodeWire()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s replica's blob differs from its source's (%d vs %d bytes, first difference at byte %d)",
						r.name, len(got), len(want), firstDiff(got, want))
				}
			}
		})
	}
}

// lazyFaulted builds a lazy 60-stub world and faults 11 stubs in, so its
// blob carries lazy records, resident and planned stubs alike.
func lazyFaulted(t testing.TB) *gen.Internet {
	t.Helper()
	p := gen.DefaultParams(11)
	p.NumTier1, p.NumTransit, p.NumStub = 2, 6, 60
	p.Hierarchical, p.LazyStubs = true, true
	in, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := in.FaultInSample(11); n != 11 {
		t.Fatalf("faulted in %d stubs, want 11", n)
	}
	return in
}

// downCoreLink takes down the first link joining two core routers of
// one AS and reports whether it found one.
func downCoreLink(in *gen.Internet) bool {
	for _, as := range in.ASes {
		core := make(map[netsim.Node]bool, len(as.Core))
		for _, r := range as.Core {
			core[r] = true
		}
		for _, r := range as.Core {
			for _, ifc := range r.Ifaces() {
				if far := ifc.Remote(); far != nil && core[far.Owner] {
					ifc.Link.Up = false
					return true
				}
			}
		}
	}
	return false
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestEncodeWireTightBuffer pins EncodeWire's size estimate: an upper
// bound, so the buffer never regrows, that leaves at most 128 KiB of
// spare capacity in the blob the caller holds for the whole transfer.
func TestEncodeWireTightBuffer(t *testing.T) {
	for _, scale := range []experiments.Scale{experiments.Small, experiments.Medium, experiments.Large} {
		t.Run(scale.String(), func(t *testing.T) {
			if scale == experiments.Large && testing.Short() {
				t.Skip("scale tier")
			}
			in, err := gen.Build(scale.Params(2024))
			if err != nil {
				t.Fatal(err)
			}
			blob, err := in.EncodeWire()
			if err != nil {
				t.Fatal(err)
			}
			if spare := cap(blob) - len(blob); spare > 1<<17 {
				t.Errorf("%d-byte blob carries %d bytes of spare capacity", len(blob), spare)
			}
		})
	}
}

// TestWireCorruption pins the acceptance contract: a corrupted section
// decodes to a checksum error, never a panic, and truncation is an error
// too.
func TestWireCorruption(t *testing.T) {
	in, err := gen.Build(experiments.Small.Params(7))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := in.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}

	// A bit flip in the middle of the blob lands in a section payload
	// (the nodes section dominates): decode must report the checksum.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x40
	if _, err := gen.DecodeWire(bad); err == nil {
		t.Fatal("corrupted blob decoded without error")
	} else {
		var ce *wirefmt.ChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("corrupted payload: want *wirefmt.ChecksumError, got %v", err)
		}
	}

	// Every single-byte flip must fail decode: all bytes are covered by
	// the header or a checksummed section. Sampled stride keeps it fast.
	for off := 0; off < len(blob); off += 4093 {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0xff
		if _, err := gen.DecodeWire(bad); err == nil {
			t.Fatalf("flip at %d decoded without error", off)
		}
	}

	// Truncation at any point is an error, not a panic.
	for _, cut := range []int{0, 3, 6, len(blob) / 3, len(blob) - 1} {
		if _, err := gen.DecodeWire(blob[:cut]); err == nil {
			t.Fatalf("truncated blob (%d bytes) decoded without error", cut)
		}
	}
}

// TestWireVersionMismatch pins the header check: a blob stamped with an
// older codec version fails with the version error before any section is
// parsed.
func TestWireVersionMismatch(t *testing.T) {
	in, err := gen.Build(experiments.Small.Params(7))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := in.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint16(old[4:], 3)
	if _, err := gen.DecodeWire(old); err == nil || !strings.Contains(err.Error(), "wire version 3 not supported") {
		t.Fatalf("version-3 blob: got %v, want the version error", err)
	}
}

// wireSection locates one framed section's payload in a blob as the
// byte range [start, end); the section's CRC-32C follows at end.
type wireSection struct {
	start, end int
}

// wireSections walks the framing of an EncodeWire blob — a 6-byte
// magic/version header, then [u32 id][u64 len][payload][u32 crc32c]
// sections — and returns every section's payload range.
func wireSections(t testing.TB, blob []byte) []wireSection {
	t.Helper()
	var out []wireSection
	for off := 6; off < len(blob); {
		if len(blob)-off < 12 {
			t.Fatalf("blob framing ends mid-header at %d", off)
		}
		n := int(binary.LittleEndian.Uint64(blob[off+4:]))
		start := off + 12
		if n < 0 || len(blob)-start < n+4 {
			t.Fatalf("section at %d overruns the blob", off)
		}
		out = append(out, wireSection{start: start, end: start + n})
		off = start + n + 4
	}
	return out
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// patched returns a copy of blob with patch written into section s's
// payload at off, wrapped to the payload, and the section's CRC-32C
// re-sealed, so the patch reaches the section parser.
func patched(blob []byte, s wireSection, off uint32, patch []byte) []byte {
	bad := append([]byte(nil), blob...)
	copy(bad[s.start+int(off%uint32(s.end-s.start)):s.end], patch)
	binary.LittleEndian.PutUint32(bad[s.end:], crc32.Checksum(bad[s.start:s.end], castagnoli))
	return bad
}

// The first vantage point's probe method and Attempts in the VP section,
// the blob's sixth: past the VP count and the host and AS indices, and
// for Attempts also past the method, the first and max TTLs and the gap
// limit.
const (
	vpSection    = 5
	vpMethodAt   = 4 + 4 + 4
	vpAttemptsAt = vpMethodAt + 1 + 1 + 1 + 4
)

// The ASes, the address index and the lazy plan, the blob's fifth,
// seventh and eighth sections. A lazy section opens with two flags and
// the descriptor count; a descriptor is 32 bytes, its AS index 8 bytes in
// and its provider count 20; the span count and 8-byte spans follow the
// descriptors, a span's stub index 4 bytes in. An AS record opens with
// its number and name; its loopback cursor follows the name by 40 bytes.
const (
	asSection   = 4
	addrSection = 6
	lazySection = 7
	descsAt     = 1 + 1 + 4
	nextLoAt    = 7 + 8 + 8 + 5 + 4 + 4 + 4
)

// wirePatch is one FuzzDecodeWire input: bytes written into a section's
// payload at an offset.
type wirePatch struct {
	name  string
	sec   uint8
	off   uint32
	patch []byte
}

// planPatches returns patches of blob, a lazy world's, whose decoded
// fabric would panic later if DecodeWire let them through. Three set an
// index to 2³¹−1: the AS index of the first descriptor whose stub is not
// resident, the first span's stub index, and the first address record's
// node index; the fabric would panic on the first traceroute toward that
// stub (the first two) or on resolving that address. Two more patch that
// planned stub: its descriptor's provider count to 3, and its AS's
// loopback cursor to 254, as if built; its fault-in would panic.
func planPatches(t testing.TB, blob []byte) []wirePatch {
	t.Helper()
	secs := wireSections(t, blob)
	s := secs[lazySection]
	lazy := blob[s.start:s.end]
	nDesc := int(binary.LittleEndian.Uint32(lazy[2:]))
	spans := descsAt + 32*nDesc
	nSpan := int(binary.LittleEndian.Uint32(lazy[spans:]))
	resident := binary.LittleEndian.Uint64(lazy[spans+4+8*nSpan+4:])
	si := bits.TrailingZeros64(^resident)
	if si >= nDesc {
		t.Fatalf("no planned stub among the first %d", nDesc)
	}
	desc := descsAt + 32*si
	num := binary.LittleEndian.Uint32(lazy[desc+8:]) + 1
	name := fmt.Sprintf("AS%d", num)
	rec := binary.LittleEndian.AppendUint32(nil, num)
	rec = append(binary.LittleEndian.AppendUint32(rec, uint32(len(name))), name...)
	at := bytes.Index(blob[secs[asSection].start:secs[asSection].end], rec)
	if at < 0 {
		t.Fatalf("no record of %s in the AS section", name)
	}
	big := []byte{0xff, 0xff, 0xff, 0x7f}
	return []wirePatch{
		{"descriptor AS index", lazySection, uint32(desc + 8), big},
		{"span stub index", lazySection, uint32(spans + 4 + 4), big},
		{"address record node", addrSection, 4 + 4, big},
		{"descriptor provider count", lazySection, uint32(desc + 20), []byte{3, 0, 0, 0}},
		{"planned stub's loopback cursor", asSection, uint32(at + len(rec) + nextLoAt), []byte{254, 0, 0, 0}},
	}
}

// TestDecodeWireChecksIndexAndPlan pins the decoder's checks on the
// ground-truth index and the lazy plan: each of planPatches' blobs fails
// the decode instead of decoding into a fabric that panics later.
func TestDecodeWireChecksIndexAndPlan(t *testing.T) {
	blob, err := lazyFaulted(t).EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	secs := wireSections(t, blob)
	for _, c := range planPatches(t, blob) {
		_, err := gen.DecodeWire(patched(blob, secs[c.sec], c.off, c.patch))
		if err == nil || !strings.Contains(err.Error(), "corrupt snapshot encoding") {
			t.Errorf("%s: decode returned %v, want the corrupt-encoding error", c.name, err)
		}
	}
}

// TestDecodeWireBoundsProberSettings pins the check on the prober
// settings a decoded world's vantage points arrive with, the only way
// they reach a worker: a first VP that retries each hop 2³¹−1 times, or
// none, or probes by an unknown method, fails the decode, while
// probe.MaxAttempts retries decode.
func TestDecodeWireBoundsProberSettings(t *testing.T) {
	in, err := gen.Build(experiments.Small.Params(7))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := in.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	vps := wireSections(t, blob)[vpSection]
	for _, c := range []struct {
		name  string
		off   uint32
		patch []byte
		ok    bool
	}{
		{"2³¹−1 attempts", vpAttemptsAt, []byte{0xff, 0xff, 0xff, 0x7f}, false},
		{"0 attempts", vpAttemptsAt, []byte{0, 0, 0, 0}, false},
		{"method 2", vpMethodAt, []byte{2}, false},
		{"MaxAttempts", vpAttemptsAt, []byte{probe.MaxAttempts, 0, 0, 0}, true},
	} {
		out, err := gen.DecodeWire(patched(blob, vps, c.off, c.patch))
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.ok && out.VPs[0].Prober.Attempts != probe.MaxAttempts:
			t.Errorf("%s: first VP decoded with %d attempts", c.name, out.VPs[0].Prober.Attempts)
		case !c.ok && err == nil:
			t.Errorf("%s: decoded", c.name)
		}
	}
}

// FuzzDecodeWire drives hostile bytes past the checksums into the
// section parsers. Each input picks one section of a blob, patches bytes
// of its payload at an offset, and re-seals that section's CRC-32C, so
// the mutation reaches the parser instead of stopping at
// *wirefmt.ChecksumError as TestWireCorruption's flips do. Every input
// patches two blobs with the same eight sections: a flat Small world's
// and lazyFaulted's, whose address index, lazy records and stub plan a
// fault-in reads. Decoding must return an error or a fabric, never
// panic; a fabric that decodes must then carry a traceroute from its
// first and its last vantage point, resolve the first and the last
// address of its probe space, and carry a traceroute toward that last
// address, a planned stub's anchor on the lazy world, without panicking
// either, and without any delivery carrying more than one label (the
// router's MPLS path assumes a stack one label deep). A crash found here
// is fixed by making the decoder reject the input (errBadWire), and the
// crashing input stays under testdata/fuzz as a regression seed.
func FuzzDecodeWire(f *testing.F) {
	small, err := gen.Build(experiments.Small.Params(7))
	if err != nil {
		f.Fatal(err)
	}
	var blobs [2][]byte
	var secs [2][]wireSection
	for i, in := range []*gen.Internet{small, lazyFaulted(f)} {
		if blobs[i], err = in.EncodeWire(); err != nil {
			f.Fatal(err)
		}
		secs[i] = wireSections(f, blobs[i])
	}
	// Seeds: per section, a count or scalar at the payload head zeroed
	// and saturated, and a flip in the middle of the payload; the first
	// VP's Attempts raised to 2³¹−1; and planPatches.
	for i, s := range secs[0] {
		f.Add(uint8(i), uint32(0), []byte{0, 0, 0, 0})
		f.Add(uint8(i), uint32(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		f.Add(uint8(i), uint32(s.end-s.start)/2, []byte{0x5a})
	}
	f.Add(uint8(vpSection), uint32(vpAttemptsAt), []byte{0xff, 0xff, 0xff, 0x7f})
	for _, c := range planPatches(f, blobs[1]) {
		f.Add(c.sec, c.off, c.patch)
	}
	f.Fuzz(func(t *testing.T, sec uint8, off uint32, patch []byte) {
		for i, blob := range blobs {
			s := secs[i][int(sec)%len(secs[i])]
			if s.end == s.start {
				continue
			}
			out, err := gen.DecodeWire(patched(blob, s, off, patch))
			if err != nil || len(out.VPs) == 0 {
				continue
			}
			out.Net.Trace = func(_ time.Duration, to *netsim.Iface, pkt *packet.Packet) {
				if len(pkt.MPLS) > 1 {
					t.Fatalf("delivery to %s carries %d labels: %v", to.Name, len(pkt.MPLS), pkt)
				}
			}
			first, last := out.VPs[0], out.VPs[len(out.VPs)-1]
			first.Prober.Traceroute(last.Host.Addr())
			last.Prober.Traceroute(first.Host.Addr())
			space := out.ProbeSpace()
			if n := space.Len(); n > 0 {
				out.Resolve(space.Addr(0))
				out.Resolve(space.Addr(n - 1))
				first.Prober.Traceroute(space.Addr(n - 1))
			}
		}
	})
}
