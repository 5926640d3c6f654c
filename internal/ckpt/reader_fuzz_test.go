package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// Reader ops of FuzzCkptReader's script: one byte selects the op (mod
// numReaderOps), and the ops that take a length read it from the next byte.
const (
	opU32 = iota
	opI64s
	opString
	opExpectLen
	opSliceLen
	opI32sInto
	opAppendInts
	numReaderOps
)

// maxScriptOps caps a script, so that one input stays fast under the
// per-call heap readings.
const maxScriptOps = 64

// sentinel fills the columns an op decodes over, so that a fault which
// touches them shows.
const sentinel = -7

// callAllocBound is the claimed-length bound of DESIGN §11 for one Reader
// call: it sizes a slice only by a count whose bytes are left in the payload,
// so it allocates at most those bytes (twice, for size-class rounding) and
// its error message.
func callAllocBound(left int) uint64 { return 2*uint64(left) + 4096 }

// FuzzCkptReader feeds arbitrary bytes to Open and then drives the Reader
// primitives over them from a byte-coded op script — over Open's payload
// when it accepts the container, over the raw bytes otherwise. No call may
// panic or allocate past callAllocBound; every value a call returns must be
// the bytes it consumed; and after a short read or any other fault the error
// stays set, later calls consume nothing and return zero values, and the
// columns they decode over keep their contents.
func FuzzCkptReader(f *testing.F) {
	w := NewWriterSize(0)
	w.U32(0xC0FFEE)
	w.I64s([]int64{1, -2, 3})
	w.String("dloop")
	w.I64s([]int64{4, 5})
	w.I32s([]int32{6, 7, 8})
	w.U32(2) // an int slab, as AppendInts reads it
	w.Int(-9)
	w.Int(10)
	good := bytes.Clone(w.Seal())
	// The script reads the container back, the {4, 5} slab as a checked
	// length and four words, and then faults on a short read.
	script := []byte{opU32, opI64s, opString, opExpectLen, 2, opU32, opU32, opU32, opU32,
		opI32sInto, 3, opAppendInts, 1, opU32, opString}
	f.Add(good, script)
	prev := bytes.Clone(good) // the same container in format 4, which Open refuses
	binary.LittleEndian.PutUint32(prev[4:8], 4)
	f.Add(prev, script)
	f.Add([]byte{}, []byte{opString, opU32})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		r, err := Open(data)
		if err == nil {
			if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
				t.Fatalf("Open accepted a version %d container", v)
			}
			if string(data[:4]) != magic || crc32.Checksum(data[headerSize:], crcTable) != binary.LittleEndian.Uint32(data[16:20]) {
				t.Fatal("Open accepted a container with a bad magic or checksum")
			}
		} else {
			r = NewReader(data)
		}
		for ops := 0; len(script) > 0 && ops < maxScriptOps; ops++ {
			op := int(script[0]) % numReaderOps
			script = script[1:]
			n := 0
			if op >= opExpectLen && len(script) > 0 {
				n = int(script[0]) % 16
				script = script[1:]
			}
			checkReaderCall(t, r, op, n)
		}
	})
}

// checkReaderCall runs one script op on r and checks it. The heap reading
// is the smallest of up to three runs from the same reader state: the
// counters are process-wide, and a fuzzing worker's own goroutines allocate
// too.
func checkReaderCall(t *testing.T, r *Reader, op, n int) {
	t.Helper()
	start := *r
	left := len(r.buf) - r.off
	var alloc uint64
	var got any
	var dst []int32
	var ints []int
	for try := 0; try < 3 && (try == 0 || alloc > callAllocBound(left)); try++ {
		*r = start
		dst, ints = filled[int32](n), filled[int](n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		switch op {
		case opU32:
			got = r.U32()
		case opI64s:
			got = r.I64s()
		case opString:
			got = r.String()
		case opExpectLen:
			got = r.ExpectLen(n, 8)
		case opSliceLen:
			got = r.SliceLen(1 + n%8)
		case opI32sInto:
			r.I32sInto(dst)
		case opAppendInts:
			got = r.AppendInts(ints[:0])
		}
		runtime.ReadMemStats(&after)
		if m := after.TotalAlloc - before.TotalAlloc; try == 0 || m < alloc {
			alloc = m
		}
	}
	if alloc > callAllocBound(left) {
		t.Fatalf("op %d allocated %d bytes with %d left", op, alloc, left)
	}
	if start.err != nil {
		if r.err != start.err || r.off != start.off {
			t.Fatalf("op %d after a fault: error %v -> %v, offset %d -> %d", op, start.err, r.err, start.off, r.off)
		}
		checkZero(t, op, got, dst, ints)
		return
	}
	if want := wantFault(start.buf[start.off:], op, n); (r.err != nil) != want {
		t.Fatalf("op %d (n %d) over %x: error %v, want a fault: %v", op, n, start.buf[start.off:], r.err, want)
	}
	if r.err != nil {
		checkZero(t, op, got, dst, ints)
		return
	}
	var enc Writer
	switch op {
	case opU32:
		enc.U32(got.(uint32))
	case opI64s:
		enc.I64s(got.([]int64))
	case opString:
		enc.String(got.(string))
	case opExpectLen:
		if got.(int) != n {
			t.Fatalf("ExpectLen(%d) returned %d", n, got)
		}
		enc.U32(uint32(n))
	case opSliceLen:
		enc.U32(uint32(got.(int)))
	case opI32sInto:
		enc.I32s(dst)
	case opAppendInts:
		ints := got.([]int)
		enc.U32(uint32(len(ints)))
		for _, v := range ints {
			enc.Int(v)
		}
	}
	if want := start.buf[start.off:r.off]; !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("op %d returned %v, which encodes to %x, after consuming %x", op, got, enc.Bytes(), want)
	}
}

// wantFault is the reference for whether an op fails on the bytes left: a
// read past the end, a length prefix whose elements overrun the payload, or
// a slab whose length differs from the live column's.
func wantFault(left []byte, op, n int) bool {
	if len(left) < 4 {
		return true
	}
	count := int64(binary.LittleEndian.Uint32(left))
	room := int64(len(left) - 4)
	switch op {
	case opI64s, opAppendInts:
		return count*8 > room
	case opString:
		return count > room
	case opExpectLen:
		return count*8 > room || count != int64(n)
	case opI32sInto:
		return count*4 > room || count != int64(n)
	case opSliceLen:
		return count*int64(1+n%8) > room
	}
	return false
}

// checkZero checks what a faulted call returns: zero values, and the columns
// it was given as they were.
func checkZero(t *testing.T, op int, got any, dst []int32, ints []int) {
	t.Helper()
	switch v := got.(type) {
	case uint32:
		if v != 0 {
			t.Fatalf("faulted U32 returned %d", v)
		}
	case []int64:
		if v != nil {
			t.Fatalf("faulted I64s returned %v", v)
		}
	case string:
		if v != "" {
			t.Fatalf("faulted String returned %q", v)
		}
	case int:
		if v != 0 {
			t.Fatalf("faulted op %d returned %d", op, v)
		}
	case []int:
		if len(v) != 0 {
			t.Fatalf("faulted AppendInts returned %v, not its empty dst", v)
		}
	}
	for i := range dst {
		if dst[i] != sentinel || ints[i] != sentinel {
			t.Fatalf("faulted op %d wrote over its column: %v, %v", op, dst, ints)
		}
	}
}

// filled returns n sentinels.
func filled[T int | int32](n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = sentinel
	}
	return s
}
