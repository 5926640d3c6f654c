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
// Each line is appended into one reused buffer with strconv, which produces
// exactly the bytes of the fmt verbs given for each format below, without
// fmt's per-call interface boxing and verb parsing.
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
		b = strconv.AppendFloat(b, sim.Duration(r.Arrival).Seconds(), 'f', 6, 64)
	} else {
		// "%.6f 0 %d %d %d\n": milliseconds, device 0, block, size, flags
		// (1 for a read).
		b = strconv.AppendFloat(b, sim.Duration(r.Arrival).Milliseconds(), 'f', 6, 64)
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
