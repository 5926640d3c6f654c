package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"

	"dloop/internal/sim"
)

// TextReader reads a text trace format line by line (NewDiskSimReader,
// NewSPCReader): it skips blank and '#' lines and hands every other line,
// trimmed, to the format's parser, which reads it in place from the
// scanner's buffer.
type TextReader struct {
	s      *bufio.Scanner
	line   int
	hint   int    // estimated request count, 0 if unknown
	format string // FormatDiskSim or FormatSPC, for error messages
	parse  func([]byte) (Request, error)
}

func newTextReader(r io.Reader, format string, parse func([]byte) (Request, error)) *TextReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &TextReader{s: s, hint: lineCountHint(r), format: format, parse: parse}
}

// SizeHint reports the estimated number of requests in the stream (0 when
// the source's size is unknown), so BuildArena can size the arena up front.
func (r *TextReader) SizeHint() int { return r.hint }

// Next implements Reader.
func (r *TextReader) Next() (Request, error) {
	for r.s.Scan() {
		r.line++
		line := bytes.TrimSpace(r.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		req, err := r.parse(line)
		if err != nil {
			return Request{}, fmt.Errorf("trace: %s line %d: %w", r.format, r.line, err)
		}
		return req, nil
	}
	if err := r.s.Err(); err != nil {
		// The scanner stops silently on its buffer cap (bufio.ErrTooLong);
		// name the offending line so a corrupt trace is debuggable.
		return Request{}, fmt.Errorf("trace: %s line %d: %w", r.format, r.line+1, err)
	}
	return Request{}, io.EOF
}

// The scanners below read a line in its canonical form, field by field from
// the left, without copying it. Each takes and returns an index into the
// line; -1 means the line has left the canonical form, and every scanner
// passes it on. Such a line goes to the format's reference parser, so a value
// a scanner returns is always the reference's and no scanner makes an error
// of its own.

// scanUint reads an unsigned decimal field of 1 to 18 digits, which an int64
// holds.
func scanUint(b []byte, i int) (uint64, int) {
	if i < 0 {
		return 0, -1
	}
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 {
		return 0, -1
	}
	return v, i
}

// scanBlanks reads a run of spaces and tabs, at least one.
func scanBlanks(b []byte, i int) int {
	if i < 0 {
		return -1
	}
	start := i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// scanComma reads one comma.
func scanComma(b []byte, i int) int {
	if i < 0 || i >= len(b) || b[i] != ',' {
		return -1
	}
	return i + 1
}

// pow10 holds the powers of ten an arrival's scale takes.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// maxExactArrival bounds the arrivals scanArrival returns: below 2^51 ns,
// the reference's float round trip math.Round(mant/10^frac * 10^scale) is
// off by less than half a nanosecond, so it rounds to the integer product.
const maxExactArrival = 1 << 51

// scanArrival reads a time in units of 10^scale ns as digits[.digits], at
// most 15 digits in all (so the reference's float mantissa is exact) and at
// most scale after the dot, and returns it in nanoseconds: the digits as one
// integer times 10^(scale-frac), which must be below maxExactArrival.
func scanArrival(b []byte, i, scale int) (sim.Time, int) {
	if i < 0 {
		return 0, -1
	}
	start := i
	var mant uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		fracAt := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		frac = i - fracAt
		start++ // the dot is not a digit
	}
	if digits := i - start; digits == 0 || digits > 15 || frac > scale {
		return 0, -1
	}
	hi, ns := bits.Mul64(mant, pow10[scale-frac])
	if hi != 0 || ns >= maxExactArrival {
		return 0, -1
	}
	return sim.Time(ns), i
}
