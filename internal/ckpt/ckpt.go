// Package ckpt provides the binary primitives behind persistent warm-up
// checkpoints: a little-endian append Writer, a sticky-error Reader, and a
// self-describing file container (magic, format version, payload length,
// checksum).
//
// The package deliberately knows nothing about simulator state. Every state
// struct in this repository keeps its fields unexported, so the encode and
// decode logic for each type lives in the package that owns it (sim, flash,
// stats, the FTL schemes, ssd); ckpt only supplies the byte-level vocabulary
// they share. That keeps the import graph acyclic: ckpt imports nothing from
// the simulator, everyone else imports ckpt.
//
// Layout conventions: all integers are little-endian and fixed-width, slices
// are length-prefixed (u32 count, then the elements back to back), so any
// slab can be located by reading its prefix and skipped or mapped without
// parsing the elements. A container is read with exactly two ReadFull calls
// — header, then the whole payload into one (pooled) buffer — which is also
// the shape an mmap-based loader would want.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"unsafe"
)

// Format constants for the file container.
const (
	// magic identifies a DLOOP checkpoint container.
	magic = "DLPC"
	// Version is the container format version. Bump it whenever any encoded
	// layout changes; readers reject other versions and the warm-up cache
	// falls back to fresh simulation.
	Version = 5
	// headerSize is magic(4) + version(u32) + payload length(u64) +
	// payload crc32(u32) + reserved(u32).
	headerSize = 4 + 4 + 8 + 4 + 4
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSliceElems bounds any single decoded slice. It is a defense against
// corrupt or truncated length prefixes that slipped past the checksum (or a
// caller decoding an unchecked payload), not a format limit: the guard in
// Reader compares the claimed byte size against the bytes actually left.
const maxSliceElems = 1 << 31

// nativeLE reports a little-endian host, where a column of fixed-width
// integers is laid out in memory exactly as its slab is encoded: the slab
// codecs then copy whole columns instead of converting element by element.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf views a column of fixed-width integers as the bytes it occupies.
func bytesOf[T int32 | int64 | uint32 | uint64](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// Load fills dst with the little-endian elements at the start of src, which
// must hold them all: a whole slab, or the next chunk of one for a decoder
// that converts a chunk at a time through an aligned buffer.
func Load[T int32 | int64 | uint32 | uint64](dst []T, src []byte) {
	if nativeLE {
		copy(bytesOf(dst), src[:len(bytesOf(dst))])
		return
	}
	for i := range dst {
		if unsafe.Sizeof(dst[i]) == 4 {
			dst[i] = T(binary.LittleEndian.Uint32(src[4*i:]))
		} else {
			dst[i] = T(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// Store writes src's elements little-endian at the start of dst, which must
// have room for them all: Load's counterpart.
func Store[T int32 | int64 | uint32 | uint64](dst []byte, src []T) {
	if nativeLE {
		copy(dst[:len(bytesOf(src))], bytesOf(src))
		return
	}
	for i, v := range src {
		if unsafe.Sizeof(v) == 4 {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	}
}

// A Writer appends fixed-width little-endian values to a growing buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriterSize returns a Writer with the container header reserved and room
// for an n-byte payload, so a caller that keeps the sealed bytes sizes the
// buffer once instead of growing it; finish with Seal.
func NewWriterSize(n int) *Writer {
	return &Writer{buf: make([]byte, headerSize, headerSize+n)}
}

// Len returns the number of bytes written so far (including the reserved
// header for writers from NewWriterSize).
func (w *Writer) Len() int { return len(w.buf) }

// Bytes returns the written buffer. The slice aliases the writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Seal fills in the container header over the space NewWriterSize reserved —
// magic, version, payload length, payload checksum — and returns the
// complete container. The slice aliases the writer.
func (w *Writer) Seal() []byte {
	payload := w.buf[headerSize:]
	copy(w.buf[0:4], magic)
	binary.LittleEndian.PutUint32(w.buf[4:8], Version)
	binary.LittleEndian.PutUint64(w.buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[16:20], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(w.buf[20:24], 0)
	return w.buf
}

// grow extends the buffer by n bytes and returns the extension.
func (w *Writer) grow(n int) []byte {
	l := len(w.buf)
	if l+n <= cap(w.buf) {
		w.buf = w.buf[:l+n]
	} else {
		w.buf = append(w.buf, make([]byte, n)...)
	}
	return w.buf[l:]
}

// Raw extends the buffer by n bytes and returns the extension for the caller
// to fill — the escape hatch for byte-like slabs (page states) that would
// otherwise need an element-wise append.
func (w *Writer) Raw(n int) []byte { return w.grow(n) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.grow(4), v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.grow(8), v)
}

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a little-endian int64.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 appends a float64 as its IEEE 754 bit pattern, so round-trips are
// bit-exact (including NaN payloads and signed zeros).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// I64s appends a length-prefixed []int64 slab.
func (w *Writer) I64s(s []int64) {
	w.U32(uint32(len(s)))
	Store(w.grow(8*len(s)), s)
}

// I32s appends a length-prefixed []int32 slab.
func (w *Writer) I32s(s []int32) {
	w.U32(uint32(len(s)))
	Store(w.grow(4*len(s)), s)
}

// A Reader consumes a buffer written by Writer. Errors are sticky: after the
// first failure every read returns a zero value, so decoders can run
// straight-line and check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over a raw payload (no container header).
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Open validates a container (magic, version, length, checksum) and returns
// a Reader over its payload. The Reader aliases data; decoded slices are
// always copied out, so data may be recycled once decoding finishes.
func Open(data []byte) (*Reader, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("ckpt: short container: %d bytes", len(data))
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("ckpt: format version %d, want %d", v, Version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("ckpt: payload length %d does not match container size %d", n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if sum := crc32.Checksum(payload, crcTable); sum != binary.LittleEndian.Uint32(data[16:20]) {
		return nil, fmt.Errorf("ckpt: payload checksum mismatch")
	}
	return NewReader(payload), nil
}

// Reopen returns a Reader over the payload of a container Open has already
// accepted, without checking it again: a holder that keeps its validated
// bytes to itself decodes them as often as it likes at no checksum cost.
func Reopen(data []byte) *Reader { return NewReader(data[headerSize:]) }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Failf lets a decoder record a semantic error (bad flag byte, unknown
// variant) through the same sticky channel as read errors.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes and returns them, or nil after a fault.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail("truncated payload: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// SliceLen reads a u32 length prefix and validates that the claimed elements,
// at elemSize encoded bytes each (a lower bound will do), fit in what is left of
// the payload, so a decoder can size a slice by it. It returns 0 after a fault.
func (r *Reader) SliceLen(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n > maxSliceElems || n*elemSize > len(r.buf)-r.off {
		r.fail("slice length %d overruns payload", n)
		return 0
	}
	return n
}

// Raw consumes n bytes and returns a view into the payload (not a copy).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool byte")
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64-encoded int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.SliceLen(1)
	return string(r.take(n))
}

// I64s reads a length-prefixed []int64 slab into a fresh slice. A zero
// length decodes to nil, mirroring how Writer encodes nil and empty alike.
func (r *Reader) I64s() []int64 {
	n := r.SliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	Load(out, r.take(8*n))
	return out
}

// ExpectLen reads a length prefix that must equal n, the length of the live
// column a decoder is about to overwrite, for elements of elemSize encoded
// bytes each (a lower bound will do). It returns n, or 0 after a fault.
func (r *Reader) ExpectLen(n, elemSize int) int {
	if got := r.SliceLen(elemSize); r.err == nil && got != n {
		r.fail("slab of %d elements where the live column has %d", got, n)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// slab reads a length prefix that must equal n and returns the n*size bytes
// of elements that follow, or nil after a fault.
func (r *Reader) slab(n, size int) []byte {
	return r.take(r.ExpectLen(n, size) * size)
}

// I32sInto reads a length-prefixed []int32 slab over dst, whose length the
// slab must have. After a fault dst is left as it was.
func (r *Reader) I32sInto(dst []int32) {
	if b := r.slab(len(dst), 4); b != nil {
		Load(dst, b)
	}
}

// AppendInts reads a length-prefixed int64-encoded []int slab of any length
// onto dst[:0], reusing dst's array when it is large enough. After a fault it
// returns dst as it was.
func (r *Reader) AppendInts(dst []int) []int {
	n := r.SliceLen(8)
	b := r.take(8 * n)
	if b == nil {
		return dst
	}
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < len(b); i += 8 {
		dst = append(dst, int(int64(binary.LittleEndian.Uint64(b[i:]))))
	}
	return dst
}

// bufPool recycles whole-file read buffers so repeated cache loads do not
// churn multi-megabyte allocations. Entries are *[]byte to keep Put
// allocation-free.
var bufPool sync.Pool

// LoadFile reads an entire file into a pooled buffer with one ReadFull and
// returns the contents plus a release func that recycles the buffer. The
// caller must not retain data (or anything aliasing it) past release.
func LoadFile(path string) (data []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	n := int(info.Size())
	var bp *[]byte
	if v := bufPool.Get(); v != nil && cap(*v.(*[]byte)) >= n {
		bp = v.(*[]byte)
	} else {
		b := make([]byte, n)
		bp = &b
	}
	buf := (*bp)[:n]
	release = func() {
		*bp = buf[:0]
		bufPool.Put(bp)
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		release()
		return nil, nil, err
	}
	return buf, release, nil
}
