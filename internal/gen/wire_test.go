package gen_test

// Wire-codec round-trip and corruption tests. External test package so
// the rungs come from internal/experiments (which imports gen).

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"wormhole/internal/experiments"
	"wormhole/internal/gen"
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

// FuzzDecodeWire drives hostile bytes past the checksums into the
// section parsers. Each input picks one section of a Small blob, patches
// bytes of its payload at an offset, and re-seals that section's CRC-32C,
// so the mutation reaches the parser instead of stopping at
// *wirefmt.ChecksumError as TestWireCorruption's flips do. Decoding must
// return an error or a fabric, never panic; a fabric that decodes must
// then carry a traceroute from its first and its last vantage point
// without panicking either. A crash found here is fixed by making the
// decoder reject the input (errBadWire), and the crashing input stays
// under testdata/fuzz as a regression seed.
func FuzzDecodeWire(f *testing.F) {
	in, err := gen.Build(experiments.Small.Params(7))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := in.EncodeWire()
	if err != nil {
		f.Fatal(err)
	}
	secs := wireSections(f, blob)
	// Seeds: per section, a count or scalar at the payload head zeroed
	// and saturated, and a flip in the middle of the payload.
	for i, s := range secs {
		f.Add(uint8(i), uint32(0), []byte{0, 0, 0, 0})
		f.Add(uint8(i), uint32(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		f.Add(uint8(i), uint32(s.end-s.start)/2, []byte{0x5a})
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, sec uint8, off uint32, patch []byte) {
		s := secs[int(sec)%len(secs)]
		if s.end == s.start {
			return
		}
		bad := append([]byte(nil), blob...)
		copy(bad[s.start+int(off%uint32(s.end-s.start)):s.end], patch)
		binary.LittleEndian.PutUint32(bad[s.end:], crc32.Checksum(bad[s.start:s.end], castagnoli))
		out, err := gen.DecodeWire(bad)
		if err != nil || len(out.VPs) == 0 {
			return
		}
		first, last := out.VPs[0], out.VPs[len(out.VPs)-1]
		first.Prober.Traceroute(last.Host.Addr())
		last.Prober.Traceroute(first.Host.Addr())
	})
}
