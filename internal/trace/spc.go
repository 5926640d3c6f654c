package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"dloop/internal/sim"
)

// SPC-1 I/O trace format (the format of the UMass Financial1/Financial2
// traces the paper uses), one request per line:
//
//	ASU,LBA,Size,Opcode,Timestamp
//
// LBA in sectors, Size in bytes, Opcode 'r'/'R' or 'w'/'W', Timestamp in
// seconds from trace start.

// SPCReader parses the SPC-1 CSV trace format. Like DiskSimReader, parsing
// is allocation-free per line at steady state: comma-separated fields are
// subslices of the scanner's buffer held in a reused scratch, and the numeric
// columns take the exact byte-wise fast paths of parsefast.go. Commas are
// single-byte in UTF-8, so the byte-wise splitter needs no ASCII guard here.
type SPCReader struct {
	s      *bufio.Scanner
	line   int
	hint   int      // estimated request count, 0 if unknown
	fields [][]byte // reused per-line field scratch
}

// NewSPCReader returns a Reader over an SPC-1 CSV stream.
func NewSPCReader(r io.Reader) *SPCReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &SPCReader{s: s, hint: lineCountHint(r)}
}

// SizeHint reports the estimated number of requests in the stream (0 when
// the source's size is unknown), so BuildArena can size the arena up front.
func (r *SPCReader) SizeHint() int { return r.hint }

// Next implements Reader.
func (r *SPCReader) Next() (Request, error) {
	for r.s.Scan() {
		r.line++
		line := bytes.TrimSpace(r.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		req, err := r.parseLine(line)
		if err != nil {
			return Request{}, fmt.Errorf("trace: spc line %d: %w", r.line, err)
		}
		return req, nil
	}
	if err := r.s.Err(); err != nil {
		// See DiskSimReader.Next: surface the line where the scanner died
		// (notably bufio.ErrTooLong on over-long lines).
		return Request{}, fmt.Errorf("trace: spc line %d: %w", r.line+1, err)
	}
	return Request{}, io.EOF
}

func (r *SPCReader) parseLine(line []byte) (Request, error) {
	r.fields = appendSplitComma(r.fields[:0], line)
	f := r.fields
	if len(f) < 5 {
		return Request{}, fmt.Errorf("want at least 5 fields, got %d", len(f))
	}
	lba, err := parseIntBytes(bytes.TrimSpace(f[1]))
	if err != nil {
		return Request{}, fmt.Errorf("lba %q: %v", f[1], err)
	}
	size, err := parseAtoiBytes(bytes.TrimSpace(f[2]))
	if err != nil {
		return Request{}, fmt.Errorf("size %q: %v", f[2], err)
	}
	// Case-insensitive single-letter opcode. Only ASCII can lower-case to
	// 'r' or 'w', so the byte compare matches strings.ToLower exactly.
	var op Op
	opf := bytes.TrimSpace(f[3])
	switch {
	case len(opf) == 1 && (opf[0] == 'r' || opf[0] == 'R'):
		op = OpRead
	case len(opf) == 1 && (opf[0] == 'w' || opf[0] == 'W'):
		op = OpWrite
	default:
		return Request{}, fmt.Errorf("opcode %q", f[3])
	}
	secs, err := parseFloatBytes(bytes.TrimSpace(f[4]))
	if err != nil {
		return Request{}, fmt.Errorf("timestamp %q: %v", f[4], err)
	}
	at, err := arrivalAt(secs, sim.Second)
	if err != nil {
		return Request{}, fmt.Errorf("timestamp %q: %v", f[4], err)
	}
	n := (size + SectorSize - 1) / SectorSize
	if n == 0 {
		n = 1
	}
	sectors, err := sectorCount(int64(n))
	if err != nil {
		return Request{}, err
	}
	req := Request{
		Arrival: at,
		LBN:     lba,
		Sectors: sectors,
		Op:      op,
	}
	return req, req.Validate()
}
