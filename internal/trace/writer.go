package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"dloop/internal/sim"
)

// Writer writes requests one at a time in a trace file format (FormatDiskSim
// or FormatSPC), through its own buffer; call Flush after the last request.
// Each line is appended into one reused buffer, with exactly the bytes of the
// fmt verbs given for each format below: integers with strconv, and the
// arrival in integer arithmetic wherever that is proven to print the digits
// strconv.AppendFloat would (appendMillis, appendSeconds).
type Writer struct {
	bw    *bufio.Writer
	spc   bool
	line  []byte
	stats Stats
}

// NewWriter returns a Writer of the given format over w.
func NewWriter(w io.Writer, format string) (*Writer, error) {
	switch format {
	case FormatDiskSim, FormatSPC:
	default:
		return nil, fmt.Errorf("trace: unknown format %q", format)
	}
	return &Writer{
		bw:    bufio.NewWriter(w),
		spc:   format == FormatSPC,
		line:  make([]byte, 0, 64),
		stats: Stats{MinLBN: -1},
	}, nil
}

// Write appends one request's line.
func (w *Writer) Write(r Request) error {
	b := w.line[:0]
	if w.spc {
		// "0,%d,%d,%s,%.6f\n": ASU 0, LBA, size in bytes, r or w, seconds.
		b = append(b, "0,"...)
		b = strconv.AppendInt(b, r.LBN, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, r.Bytes(), 10)
		if r.Op == OpRead {
			b = append(b, ",r,"...)
		} else {
			b = append(b, ",w,"...)
		}
		b = appendSeconds(b, r.Arrival)
	} else {
		// "%.6f 0 %d %d %d\n": milliseconds, device 0, block, size, flags
		// (1 for a read).
		b = appendMillis(b, r.Arrival)
		b = append(b, " 0 "...)
		b = strconv.AppendInt(b, r.LBN, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.Sectors), 10)
		if r.Op == OpRead {
			b = append(b, " 1"...)
		} else {
			b = append(b, " 0"...)
		}
	}
	b = append(b, '\n')
	w.line = b
	w.stats.add(r)
	_, err := w.bw.Write(b)
	return err
}

// appendMillis appends t in milliseconds with six decimals, as
// AppendFloat(Milliseconds(), 'f', 6, 64) does. Below 2^32 ms the float is
// within half an ulp, 2.4e-7 ms, of t's exact six-decimal value, so it rounds
// to those digits, which integer division writes directly.
func appendMillis(b []byte, t sim.Time) []byte {
	if t < 0 || t >= 1<<32*sim.Time(sim.Millisecond) {
		return strconv.AppendFloat(b, sim.Duration(t).Milliseconds(), 'f', 6, 64)
	}
	return appendFixed6(b, int64(t))
}

// appendSeconds appends t in seconds with six decimals, as
// AppendFloat(Seconds(), 'f', 6, 64) does. Below 2^20 s the float is within
// half an ulp, 6e-11 s, of t, and t is at least 1e-9 s from a half
// microsecond unless its nanoseconds past the microsecond are exactly 500 (a
// tie the float's binary value decides), so rounding to the nearest
// microsecond in integers gives the same digits.
func appendSeconds(b []byte, t sim.Time) []byte {
	ns := int64(t)
	if ns < 0 || ns >= 1<<20*int64(sim.Second) || ns%1000 == 500 {
		return strconv.AppendFloat(b, sim.Duration(t).Seconds(), 'f', 6, 64)
	}
	us := ns / 1000
	if ns%1000 > 500 {
		us++
	}
	return appendFixed6(b, us)
}

// appendFixed6 appends q·10^-6 with six decimals: q/10^6, a dot and q%10^6
// as six digits, for q >= 0.
func appendFixed6(b []byte, q int64) []byte {
	b = strconv.AppendInt(b, q/1e6, 10)
	var frac [7]byte
	frac[0] = '.'
	for i, f := 6, q%1e6; i > 0; i-- {
		frac[i] = byte('0' + f%10)
		f /= 10
	}
	return append(b, frac[:]...)
}

// Flush writes any buffered lines to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Stats summarizes the requests written so far, as Summarize would.
func (w *Writer) Stats() Stats { return w.stats }

// WriteDiskSim writes requests in the DiskSim ASCII format.
func WriteDiskSim(w io.Writer, reqs []Request) error {
	_, err := WriteAll(w, FormatDiskSim, NewSliceReader(reqs))
	return err
}

// WriteAll streams every request of r to w in the given format, one at a
// time, so memory does not grow with the stream, and returns their summary.
func WriteAll(w io.Writer, format string, r Reader) (Stats, error) {
	tw, err := NewWriter(w, format)
	if err != nil {
		return Stats{}, err
	}
	for {
		req, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Stats{}, err
		}
		if err := tw.Write(req); err != nil {
			return Stats{}, err
		}
	}
	return tw.Stats(), tw.Flush()
}
