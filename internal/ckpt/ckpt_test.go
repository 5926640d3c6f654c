package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPrimitivesRoundTrip writes one of everything and reads it back.
func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriterSize(0)
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.I32(-7)
	w.I64(-1 << 50)
	w.Int(-42)
	w.F64(math.Copysign(0, -1)) // signed zero must survive
	w.F64(3.14159)
	w.String("hello")
	w.String("")
	w.I64s([]int64{1, -2, 3})
	w.I64s(nil)
	w.I32s([]int32{-1, 2})
	w.U32(3)
	w.Int(9)
	w.Int(8)
	w.Int(7)
	copy(w.Raw(3), []byte{1, 2, 3})

	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.I32(); got != -7 {
		t.Fatalf("I32 = %d", got)
	}
	if got := r.I64(); got != -1<<50 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 lost the sign of -0: %v", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if got := r.I64s(); len(got) != 3 || got[1] != -2 {
		t.Fatalf("I64s = %v", got)
	}
	if got := r.I64s(); got != nil {
		t.Fatalf("nil I64s = %v", got)
	}
	i32s := make([]int32, 2)
	if r.I32sInto(i32s); i32s[0] != -1 || i32s[1] != 2 {
		t.Fatalf("I32sInto = %v", i32s)
	}
	if got := r.AppendInts(make([]int, 1, 8)); len(got) != 3 || got[2] != 7 {
		t.Fatalf("AppendInts = %v", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// Reading past the end is the sticky-error case, not a panic.
	if got := r.U64(); got != 0 {
		t.Fatalf("overread returned %d", got)
	}
	if r.Err() == nil {
		t.Fatal("overread not recorded")
	}
}

// TestContainerValidation corrupts a sealed container every way the header
// can lie and checks Open rejects each one.
func TestContainerValidation(t *testing.T) {
	seal := func() []byte {
		w := NewWriterSize(0)
		w.I64s([]int64{1, 2, 3, 4})
		w.String("payload")
		return append([]byte(nil), w.Seal()...)
	}
	if _, err := Open(seal()); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    string
	}{
		{"short", func(b []byte) []byte { return b[:headerSize-1] }, "short container"},
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad magic"},
		{"version", func(b []byte) []byte { b[4]++; return b }, "format version"},
		{"previous version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], Version-1); return b }, "format version"},
		{"version 4", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 4); return b }, "format version"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }, "length"},
		{"bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.corrupt(seal()))
			if err == nil {
				t.Fatal("corrupted container accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSliceLenGuard feeds a payload whose length prefix claims more elements
// than the payload holds; the reader must fail, not allocate gigabytes.
func TestSliceLenGuard(t *testing.T) {
	w := NewWriterSize(0)
	w.U32(1 << 30) // claims 2^30 int64s = 8 GB
	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.I64s(); got != nil {
		t.Fatalf("overrunning slice decoded to %d elems", len(got))
	}
	if r.Err() == nil {
		t.Fatal("overrunning slice length not recorded")
	}
}

// TestBoolRejectsJunk checks a non-0/1 bool byte is a decode error: it means
// the reader has lost framing, and silently coercing would hide that.
func TestBoolRejectsJunk(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

// TestIntoRejectsOtherLength: a slab decoded over a live column must have
// the column's length, and a mismatch leaves the column as it was.
func TestIntoRejectsOtherLength(t *testing.T) {
	w := NewWriterSize(0)
	w.I32s([]int32{1, 2, 3})
	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	dst := []int32{7, 7}
	if r.I32sInto(dst); r.Err() == nil || dst[0] != 7 {
		t.Fatalf("3-element slab decoded over a 2-element column: %v, %v", dst, r.Err())
	}
}

// TestLoadFileRoundTrip writes a sealed container to disk, loads it through
// the pooled whole-file path, and decodes it; then again, to exercise reuse
// of the released buffer.
func TestLoadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	w := NewWriterSize(0)
	w.String("persisted")
	w.I64(99)
	if err := os.WriteFile(path, w.Seal(), 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		data, release, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.String(); got != "persisted" {
			t.Fatalf("round %d: %q", round, got)
		}
		if got := r.I64(); got != 99 {
			t.Fatalf("round %d: %d", round, got)
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		release()
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestSealedBytesDeterministic: equal writes produce byte-equal containers —
// the property the content-addressed warm-up cache leans on.
func TestSealedBytesDeterministic(t *testing.T) {
	mk := func() []byte {
		w := NewWriterSize(0)
		w.String("abc")
		w.I64s([]int64{5, 6})
		w.F64(2.5)
		return append([]byte(nil), w.Seal()...)
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("identical writes sealed to different bytes")
	}
}

// TestSlabsWithoutNativeLayout runs the slab codecs down their portable
// element-by-element path, the one a big-endian host takes, and requires
// the bytes and values of the column-copying path.
func TestSlabsWithoutNativeLayout(t *testing.T) {
	i64s, i32s := []int64{1, -2, 1 << 40}, []int32{-1, 2, 1 << 30}
	u64s, u32s := []uint64{7, 1<<63 + 5}, []uint32{9, 1<<31 + 3}
	encode := func() []byte {
		var w Writer
		w.I64s(i64s)
		w.I32s(i32s)
		dst := w.Raw(8*len(u64s) + 4*len(u32s))
		Store(dst, u64s)
		Store(dst[8*len(u64s):], u32s)
		return w.Bytes()
	}
	native := encode()
	defer func(le bool) { nativeLE = le }(nativeLE)
	nativeLE = false
	if portable := encode(); !bytes.Equal(portable, native) {
		t.Fatalf("portable encoding %x, native %x", portable, native)
	}
	r := NewReader(native)
	gotI64, gotI32 := r.I64s(), make([]int32, len(i32s))
	r.I32sInto(gotI32)
	raw := r.Raw(8*len(u64s) + 4*len(u32s))
	gotU64, gotU32 := make([]uint64, len(u64s)), make([]uint32, len(u32s))
	Load(gotU64, raw)
	Load(gotU32, raw[8*len(u64s):])
	if r.Err() != nil || !slices.Equal(gotI64, i64s) || !slices.Equal(gotI32, i32s) ||
		!slices.Equal(gotU64, u64s) || !slices.Equal(gotU32, u32s) {
		t.Fatalf("portable decoding: %v %v %v %v (%v)", gotI64, gotI32, gotU64, gotU32, r.Err())
	}
}
