package wirefmt

import (
	"errors"
	"math"
	"testing"
)

// TestScalarRoundTrip writes every scalar kind at its edge values and
// reads the same sequence back.
func TestScalarRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0)
	w.U8(math.MaxUint8)
	w.U16(0xbeef)
	w.U16(math.MaxUint16)
	w.U32(0xdeadbeef)
	w.U32(math.MaxUint32)
	w.U64(0x0123456789abcdef)
	w.U64(math.MaxUint64)
	w.I32(math.MinInt32)
	w.I32(-1)
	w.I64(math.MinInt64)
	w.I64(math.MaxInt64)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("wormhole ≠ tunnel")
	w.Buf = append(w.Buf, 1, 2, 3)

	r := NewReader(w.Buf)
	if got := r.U8(); got != 0 {
		t.Errorf("U8 = %d, want 0", got)
	}
	if got := r.U8(); got != math.MaxUint8 {
		t.Errorf("U8 = %d, want %d", got, math.MaxUint8)
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x, want 0xbeef", got)
	}
	if got := r.U16(); got != math.MaxUint16 {
		t.Errorf("U16 = %#x, want max", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x, want 0xdeadbeef", got)
	}
	if got := r.U32(); got != math.MaxUint32 {
		t.Errorf("U32 = %#x, want max", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x, want 0x0123456789abcdef", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %#x, want max", got)
	}
	if got := r.I32(); got != math.MinInt32 {
		t.Errorf("I32 = %d, want %d", got, math.MinInt32)
	}
	if got := r.I32(); got != -1 {
		t.Errorf("I32 = %d, want -1", got)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Errorf("I64 = %d, want %d", got, int64(math.MinInt64))
	}
	if got := r.I64(); got != math.MaxInt64 {
		t.Errorf("I64 = %d, want %d", got, int64(math.MaxInt64))
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := r.String(); got != "wormhole ≠ tunnel" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(3); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes = %v", got)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("after the round trip: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestLittleEndianLayout pins the byte order the wire format promises.
func TestLittleEndianLayout(t *testing.T) {
	var w Writer
	w.U32(0x04030201)
	w.U16(0x0605)
	want := []byte{1, 2, 3, 4, 5, 6}
	if string(w.Buf) != string(want) {
		t.Fatalf("encoded % x, want % x", w.Buf, want)
	}
}

// TestSectionRoundTrip frames two sections and reads them back in order,
// each through its own payload reader.
func TestSectionRoundTrip(t *testing.T) {
	var w Writer
	m := w.BeginSection(7)
	w.U32(42)
	w.String("first")
	w.EndSection(m)
	m = w.BeginSection(8)
	w.EndSection(m) // empty payload
	m = w.BeginSection(9)
	w.U64(1 << 40)
	w.EndSection(m)

	r := NewReader(w.Buf)
	s := r.Section(7)
	if got := s.U32(); got != 42 {
		t.Errorf("section 7 U32 = %d", got)
	}
	if got := s.String(); got != "first" {
		t.Errorf("section 7 String = %q", got)
	}
	if s.Err() != nil || s.Len() != 0 {
		t.Errorf("section 7: err %v, %d bytes left", s.Err(), s.Len())
	}
	if s := r.Section(8); s.Err() != nil || s.Len() != 0 {
		t.Errorf("empty section: err %v, %d bytes", s.Err(), s.Len())
	}
	if got := r.Section(9).U64(); got != 1<<40 {
		t.Errorf("section 9 U64 = %d", got)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("outer reader: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestShortReadsTruncate checks that every scalar read past the end
// reports ErrTruncated, returns the zero value, and that the error sticks
// even for reads the remaining bytes could satisfy.
func TestShortReadsTruncate(t *testing.T) {
	reads := map[string]func(*Reader) any{
		"U16":    func(r *Reader) any { return r.U16() },
		"U32":    func(r *Reader) any { return r.U32() },
		"U64":    func(r *Reader) any { return r.U64() },
		"I32":    func(r *Reader) any { return r.I32() },
		"I64":    func(r *Reader) any { return r.I64() },
		"Bytes":  func(r *Reader) any { return len(r.Bytes(8)) },
		"String": func(r *Reader) any { return r.String() },
	}
	zero := map[string]any{"U16": uint16(0), "U32": uint32(0), "U64": uint64(0), "I32": int32(0), "I64": int64(0), "Bytes": 0, "String": ""}
	for name, read := range reads {
		r := NewReader([]byte{0xff})
		if got := read(r); got != zero[name] {
			t.Errorf("%s on 1 byte = %v, want zero", name, got)
		}
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("%s on 1 byte: err %v, want ErrTruncated", name, r.Err())
		}
		if got := r.U8(); got != 0 || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("%s: read after the failure = %d, err %v; want sticky zero", name, got, r.Err())
		}
	}
	if got := NewReader(nil).U8(); got != 0 {
		t.Errorf("U8 on empty = %d", got)
	}
	r := NewReader([]byte{1, 2})
	if r.Bytes(-1) != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Bytes(-1): err %v, want ErrTruncated", r.Err())
	}
}

// section encodes one framed section around payload.
func section(id uint32, payload []byte) []byte {
	var w Writer
	m := w.BeginSection(id)
	w.Buf = append(w.Buf, payload...)
	w.EndSection(m)
	return w.Buf
}

// TestShortSectionTruncates cuts a framed section at every length short of
// whole: header, payload or checksum missing all read as ErrTruncated.
func TestShortSectionTruncates(t *testing.T) {
	blob := section(3, []byte("payload"))
	for cut := 0; cut < len(blob); cut++ {
		r := NewReader(blob[:cut])
		s := r.Section(3)
		if !errors.Is(r.Err(), ErrTruncated) || !errors.Is(s.Err(), ErrTruncated) {
			t.Fatalf("cut at %d/%d: outer err %v, section err %v; want ErrTruncated", cut, len(blob), r.Err(), s.Err())
		}
		if got := s.U8(); got != 0 {
			t.Fatalf("cut at %d: failed section served %d", cut, got)
		}
	}
}

// TestCorruptedSectionChecksum flips each payload byte and each checksum
// byte in turn: every one surfaces as a *ChecksumError naming the
// section, never as data.
func TestCorruptedSectionChecksum(t *testing.T) {
	blob := section(5, []byte{10, 20, 30, 40})
	const header = 12
	for i := header; i < len(blob); i++ {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		r := NewReader(bad)
		s := r.Section(5)
		var ce *ChecksumError
		if !errors.As(r.Err(), &ce) {
			t.Fatalf("flip at %d: err %v, want *ChecksumError", i, r.Err())
		}
		if ce.Section != 5 || ce.Want == ce.Got {
			t.Fatalf("flip at %d: %+v", i, ce)
		}
		if s.Err() != r.Err() || s.Len() != 0 {
			t.Fatalf("flip at %d: the section reader serves data past a checksum failure", i)
		}
	}
}

// TestSectionWrongID rejects a section whose id is not the one asked for.
func TestSectionWrongID(t *testing.T) {
	r := NewReader(section(5, []byte{1}))
	r.Section(6)
	if r.Err() == nil || errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("wrong section id: err %v, want an id mismatch", r.Err())
	}
}

// TestHostileSectionLength feeds section lengths chosen to overflow the
// n+4 bound (the payload plus its checksum) or to exceed the buffer: each
// reads as ErrTruncated without panicking.
func TestHostileSectionLength(t *testing.T) {
	for _, n := range []uint64{math.MaxUint64, math.MaxUint64 - 3, math.MaxUint64 - 2, 1 << 63, math.MaxInt64, 1 << 32, 5} {
		var w Writer
		w.U32(1)
		w.U64(n)
		w.U32(0) // four bytes: enough for a checksum, not for the payload
		r := NewReader(w.Buf)
		s := r.Section(1)
		if !errors.Is(r.Err(), ErrTruncated) || !errors.Is(s.Err(), ErrTruncated) {
			t.Errorf("length %#x: err %v, want ErrTruncated", n, r.Err())
		}
	}
}

// TestStringLyingLength reads strings whose length prefix claims more
// bytes than remain: ErrTruncated and an empty string, never a panic.
func TestStringLyingLength(t *testing.T) {
	for _, n := range []uint32{4, 1000, math.MaxUint32} {
		var w Writer
		w.U32(n)
		w.Buf = append(w.Buf, "abc"...)
		r := NewReader(w.Buf)
		if got := r.String(); got != "" || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("prefix %d over 3 bytes: %q, err %v; want ErrTruncated", n, got, r.Err())
		}
	}
}

// TestBoolRejectsOtherBytes reads a Bool byte of 2: false, with a sticky
// error that is neither truncation nor overwritten by later failures.
func TestBoolRejectsOtherBytes(t *testing.T) {
	r := NewReader([]byte{2, 1})
	if r.Bool() {
		t.Error("Bool byte 2 read as true")
	}
	if !errors.Is(r.Err(), errBadBool) {
		t.Fatalf("Bool byte 2: err %v, want %v", r.Err(), errBadBool)
	}
	if r.Bool() || r.U64() != 0 || !errors.Is(r.Err(), errBadBool) {
		t.Fatalf("reads after a bad bool: err %v, want the first error kept", r.Err())
	}
}

// TestFailKeepsFirstError pins Fail's contract: the first error wins.
func TestFailKeepsFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	r := NewReader([]byte{1, 2, 3})
	r.Fail(first)
	r.Fail(second)
	if r.Err() != first {
		t.Fatalf("err %v, want the first", r.Err())
	}
	if r.U8() != 0 || r.Len() != 3 {
		t.Fatal("a failed reader consumed input")
	}
}

// FuzzReader drives a Reader over arbitrary bytes with an arbitrary read
// script. Whatever the input, no read panics, the unread length never
// grows or goes negative, and once an error is set it stays the same
// error while every later read returns the zero value.
func FuzzReader(f *testing.F) {
	var w Writer
	m := w.BeginSection(1)
	w.U32(7)
	w.String("seed")
	w.Bool(true)
	w.EndSection(m)
	w.U64(99)
	f.Add([]byte{9, 0x12, 1, 8, 6}, w.Buf)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{})
	f.Add([]byte{9}, []byte{1, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{7, 7}, []byte{0xff, 0xff, 0xff, 0xff, 'a'})
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := NewReader(data)
		var sticky error
		left := r.Len()
		for i, op := range script {
			var zero bool
			switch op % 10 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = r.U16() == 0
			case 2:
				zero = r.U32() == 0
			case 3:
				zero = r.U64() == 0
			case 4:
				zero = r.I32() == 0
			case 5:
				zero = r.I64() == 0
			case 6:
				zero = !r.Bool()
			case 7:
				zero = r.String() == ""
			case 8:
				zero = len(r.Bytes(int(op>>4))) == 0
			case 9:
				s := r.Section(uint32(op >> 4))
				if s.Err() != r.Err() {
					t.Fatalf("op %d: section err %v, outer err %v", i, s.Err(), r.Err())
				}
				_ = s.String()
				_ = s.U64()
				zero = s.Len() == 0
			}
			if sticky != nil {
				if r.Err() != sticky {
					t.Fatalf("op %d: sticky error %v replaced by %v", i, sticky, r.Err())
				}
				if !zero {
					t.Fatalf("op %d (%d): a failed reader returned data", i, op%10)
				}
			}
			sticky = r.Err()
			if l := r.Len(); l < 0 || l > left {
				t.Fatalf("op %d: unread length %d after %d", i, l, left)
			}
			left = r.Len()
		}
	})
}
