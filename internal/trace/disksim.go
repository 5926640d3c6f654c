package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dloop/internal/sim"
)

var errEOF = io.EOF

func isEOF(err error) bool { return errors.Is(err, io.EOF) }

// DiskSim ASCII trace format, one request per line:
//
//	<arrival-ms> <devno> <blkno> <size-sectors> <flags>
//
// where bit 0 of flags set means read (DiskSim convention). Blank lines and
// lines starting with '#' are skipped.

// DiskSimReader parses the DiskSim ASCII trace format. Parsing is
// allocation-free per line at steady state: fields are subslices of the
// scanner's buffer held in a reused scratch, and the numeric columns take the
// exact byte-wise fast paths of parsefast.go.
type DiskSimReader struct {
	s      *bufio.Scanner
	line   int
	hint   int      // estimated request count, 0 if unknown
	fields [][]byte // reused per-line field scratch
}

// NewDiskSimReader returns a Reader over a DiskSim ASCII stream.
func NewDiskSimReader(r io.Reader) *DiskSimReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &DiskSimReader{s: s, hint: lineCountHint(r)}
}

// SizeHint reports the estimated number of requests in the stream (0 when
// the source's size is unknown), so BuildArena can size the arena up front.
func (r *DiskSimReader) SizeHint() int { return r.hint }

// Next implements Reader.
func (r *DiskSimReader) Next() (Request, error) {
	for r.s.Scan() {
		r.line++
		line := bytes.TrimSpace(r.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		req, err := r.parseLine(line)
		if err != nil {
			return Request{}, fmt.Errorf("trace: disksim line %d: %w", r.line, err)
		}
		return req, nil
	}
	if err := r.s.Err(); err != nil {
		// The scanner stops silently on its buffer cap (bufio.ErrTooLong);
		// name the offending line so a corrupt trace is debuggable.
		return Request{}, fmt.Errorf("trace: disksim line %d: %w", r.line+1, err)
	}
	return Request{}, io.EOF
}

// parseLine parses one nonblank, noncomment line. Lines carrying multi-byte
// runes defer to the reference string parser so field boundaries always agree
// with strings.Fields; everything a real trace contains stays on the
// byte-wise path.
func (r *DiskSimReader) parseLine(line []byte) (Request, error) {
	if !asciiLine(line) {
		return parseDiskSimLine(string(line))
	}
	r.fields = appendFields(r.fields[:0], line)
	f := r.fields
	if len(f) != 5 {
		return Request{}, fmt.Errorf("want 5 fields, got %d", len(f))
	}
	ms, err := parseFloatBytes(f[0])
	if err != nil {
		return Request{}, fmt.Errorf("arrival %q: %v", f[0], err)
	}
	lbn, err := parseIntBytes(f[2])
	if err != nil {
		return Request{}, fmt.Errorf("blkno %q: %v", f[2], err)
	}
	size, err := parseAtoiBytes(f[3])
	if err != nil {
		return Request{}, fmt.Errorf("size %q: %v", f[3], err)
	}
	flags, err := parseFlagsBytes(f[4])
	if err != nil {
		return Request{}, fmt.Errorf("flags %q: %v", f[4], err)
	}
	op := OpWrite
	if flags&1 != 0 {
		op = OpRead
	}
	at, err := arrivalAt(ms, sim.Millisecond)
	if err != nil {
		return Request{}, fmt.Errorf("arrival %q: %v", f[0], err)
	}
	sectors, err := sectorCount(int64(size))
	if err != nil {
		return Request{}, err
	}
	req := Request{
		Arrival: at,
		LBN:     lbn,
		Sectors: sectors,
		Op:      op,
	}
	return req, req.Validate()
}

// arrivalAt converts a parsed timestamp, in units of unit, to a simulated
// time. Go leaves a float→int64 conversion outside int64's range to the
// implementation, so NaN, ±Inf and out-of-range values are rejected first.
func arrivalAt(v float64, unit sim.Duration) (sim.Time, error) {
	ns := math.Round(v * float64(unit))
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return 0, errors.New("out of range")
	}
	return sim.Time(ns), nil
}

// parseFlagsBytes parses the flags column. The flags field has base-0
// semantics (a leading zero means octal, 0x/0b/0o prefixes pick other bases,
// underscores group digits), so the allocation-free path takes only plain
// decimal; everything else goes through the reference two-step parse.
func parseFlagsBytes(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 || (b[0] == '0' && len(b) > 1) {
		return parseFlagsSlow(string(b))
	}
	n := int64(0)
	for _, c := range b {
		if c < '0' || c > '9' {
			return parseFlagsSlow(string(b))
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

func parseFlagsSlow(s string) (int64, error) {
	flags, err := strconv.ParseInt(strings.TrimPrefix(s, "0x"), 0, 64)
	if err != nil {
		// DiskSim traces sometimes carry bare hex without 0x.
		flags, err = strconv.ParseInt(s, 16, 64)
	}
	return flags, err
}

// parseDiskSimLine is the reference parser, kept as the fallback for lines
// with multi-byte runes (where byte-wise field splitting could disagree with
// strings.Fields).
func parseDiskSimLine(line string) (Request, error) {
	f := strings.Fields(line)
	if len(f) != 5 {
		return Request{}, fmt.Errorf("want 5 fields, got %d", len(f))
	}
	ms, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return Request{}, fmt.Errorf("arrival %q: %v", f[0], err)
	}
	lbn, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("blkno %q: %v", f[2], err)
	}
	size, err := strconv.Atoi(f[3])
	if err != nil {
		return Request{}, fmt.Errorf("size %q: %v", f[3], err)
	}
	flags, err := parseFlagsSlow(f[4])
	if err != nil {
		return Request{}, fmt.Errorf("flags %q: %v", f[4], err)
	}
	op := OpWrite
	if flags&1 != 0 {
		op = OpRead
	}
	at, err := arrivalAt(ms, sim.Millisecond)
	if err != nil {
		return Request{}, fmt.Errorf("arrival %q: %v", f[0], err)
	}
	sectors, err := sectorCount(int64(size))
	if err != nil {
		return Request{}, err
	}
	req := Request{
		Arrival: at,
		LBN:     lbn,
		Sectors: sectors,
		Op:      op,
	}
	return req, req.Validate()
}
