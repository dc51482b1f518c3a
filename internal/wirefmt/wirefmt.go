// Package wirefmt is the low-level binary layer under the snapshot wire
// codec and the distributed campaign protocol: hand-rolled little-endian
// scalar encoding into an append-grown buffer, plus length-prefixed
// sections with per-section CRC-32C checksums.
//
// The design constraints come from the codec's budget (encode+decode of a
// Large fabric must cost no more than ~2x a structural Snapshot, i.e. it
// has to move arena slabs at memcpy-like speed):
//
//   - zero reflection: every field is written and read by explicit code;
//   - zero per-field allocation: the Writer appends to one buffer, the
//     Reader sub-slices it;
//   - corruption is an error, never a panic: the Reader carries a sticky
//     error, bounds-checks every read, and verifies a section's checksum
//     before handing its payload to the caller, so a flipped bit surfaces
//     as a *ChecksumError and a truncated blob as ErrTruncated.
//
// Section framing is [u32 id][u64 len][payload][u32 crc32c(payload)].
// The id makes section order self-describing (a decoder asks for the
// section it expects and fails loudly on mismatch), the length lets a
// reader skip or bound a section without parsing it, and the trailing
// checksum covers exactly the payload bytes.
package wirefmt

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on
// amd64/arm64, which matters at ~50MB per Large snapshot.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTruncated is the sticky error set when a read runs past the end of
// the buffer.
var ErrTruncated = errors.New("wirefmt: truncated input")

// ChecksumError reports a section whose payload bytes do not match the
// recorded CRC-32C.
type ChecksumError struct {
	Section uint32
	Want    uint32 // checksum recorded in the blob
	Got     uint32 // checksum computed over the payload
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("wirefmt: section %d checksum mismatch: recorded %#x, computed %#x", e.Section, e.Want, e.Got)
}

// Writer appends little-endian scalars to Buf. The zero value is ready to
// use; callers that know the final size can pre-allocate Buf's capacity.
type Writer struct {
	Buf []byte
}

func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

func (w *Writer) U16(v uint16) {
	w.Buf = append(w.Buf, byte(v), byte(v>>8))
}

func (w *Writer) U32(v uint32) {
	w.Buf = append(w.Buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *Writer) U64(v uint64) {
	w.Buf = append(w.Buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (w *Writer) I32(v int32) { w.U32(uint32(v)) }
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.Buf = append(w.Buf, 1)
	} else {
		w.Buf = append(w.Buf, 0)
	}
}

// String appends a u32 length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// BeginSection opens a framed section: it appends the id and a length
// placeholder and returns a mark identifying the payload start. Sections
// may not nest (the mark is a plain offset; interleaved Begin/End would
// corrupt the frame).
func (w *Writer) BeginSection(id uint32) int {
	w.U32(id)
	w.U64(0) // length, patched by EndSection
	return len(w.Buf)
}

// EndSection closes the section opened at mark: it patches the length
// prefix and appends the CRC-32C of the payload written since.
func (w *Writer) EndSection(mark int) {
	payload := w.Buf[mark:]
	n := uint64(len(payload))
	le := w.Buf[mark-8 : mark]
	le[0], le[1], le[2], le[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	le[4], le[5], le[6], le[7] = byte(n>>32), byte(n>>40), byte(n>>48), byte(n>>56)
	w.U32(crc32.Checksum(payload, castagnoli))
}

// Reader consumes a buffer written by Writer. All reads are bounds-checked
// against a sticky error: after the first failure every subsequent read
// returns the zero value, so decoders can run a straight-line field
// sequence and check Err once per section.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b without copying.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Fail sets the sticky error if none is set; decoders use it to surface
// semantic errors (bad enum value, index out of range) through the same
// channel as framing errors.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf)-r.off < n {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	b := r.buf[r.off:]
	r.off += 2
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	b := r.buf[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	b := r.buf[r.off:]
	r.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *Reader) I32() int32 { return int32(r.U32()) }
func (r *Reader) I64() int64 { return int64(r.U64()) }

var errBadBool = errors.New("wirefmt: bool byte not 0 or 1")

func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(errBadBool)
		return false
	}
}

// Bytes returns the next n bytes as a sub-slice of the underlying buffer
// (no copy; the caller must not retain it past the buffer's lifetime
// unless it copies).
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || !r.need(n) {
		if r.err == nil {
			r.err = ErrTruncated
		}
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if uint64(n) > uint64(r.Len()) {
		r.Fail(ErrTruncated)
		return ""
	}
	return string(r.Bytes(int(n)))
}

// Section reads the next framed section, verifies that its id matches and
// that its payload checksums clean, and returns a Reader over the payload.
// On any failure the sticky error is set and the returned Reader carries
// it too, so straight-line decoders stay panic-free.
func (r *Reader) Section(id uint32) *Reader {
	got := r.U32()
	n := r.U64()
	if r.err != nil {
		return &Reader{err: r.err}
	}
	if got != id {
		r.Fail(fmt.Errorf("wirefmt: expected section %d, found %d", id, got))
		return &Reader{err: r.err}
	}
	// +4 for the trailing checksum; compare in uint64 to dodge overflow on
	// a hostile length.
	if n+4 < n || uint64(r.Len()) < n+4 {
		r.Fail(ErrTruncated)
		return &Reader{err: r.err}
	}
	payload := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	want := r.U32()
	if sum := crc32.Checksum(payload, castagnoli); sum != want {
		r.Fail(&ChecksumError{Section: id, Want: want, Got: sum})
		return &Reader{err: r.err}
	}
	return &Reader{buf: payload}
}
