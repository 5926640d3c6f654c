package trace

import (
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

// NewDiskSimReader returns a Reader over a DiskSim ASCII stream. A canonical
// line (see scanDiskSim) is read in one pass, without allocating; any other
// line goes to the reference parseDiskSimLine.
func NewDiskSimReader(r io.Reader) *TextReader {
	return newTextReader(r, FormatDiskSim, parseDiskSim)
}

// parseDiskSim parses one nonblank, noncomment line.
func parseDiskSim(line []byte) (Request, error) {
	if req, ok := scanDiskSim(line); ok {
		return req, nil
	}
	return parseDiskSimLine(string(line))
}

// scanDiskSim reads a canonical DiskSim line: five unsigned decimal fields
// separated by blanks, an arrival of at most 15 digits with at most six
// after the dot, flags without a leading zero (base 0 would read one as
// octal), and a request Validate accepts. It reports false on any other
// line.
func scanDiskSim(b []byte) (Request, bool) {
	at, i := scanArrival(b, 0, 6)
	_, i = scanUint(b, scanBlanks(b, i)) // devno
	lbn, i := scanUint(b, scanBlanks(b, i))
	size, i := scanUint(b, scanBlanks(b, i))
	flagsAt := scanBlanks(b, i)
	flags, i := scanUint(b, flagsAt)
	if i != len(b) || b[flagsAt] == '0' && i-flagsAt > 1 || size > math.MaxInt32 {
		return Request{}, false
	}
	op := OpWrite
	if flags&1 != 0 {
		op = OpRead
	}
	req := Request{Arrival: at, LBN: int64(lbn), Sectors: int32(size), Op: op}
	return req, req.flaw() == wellFormed
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

// parseFlags parses the flags column: base 0 (a leading zero means octal,
// 0x/0b/0o prefixes pick other bases, underscores group digits), or bare hex.
func parseFlags(s string) (int64, error) {
	flags, err := strconv.ParseInt(strings.TrimPrefix(s, "0x"), 0, 64)
	if err != nil {
		// DiskSim traces sometimes carry bare hex without 0x.
		flags, err = strconv.ParseInt(s, 16, 64)
	}
	return flags, err
}

// parseDiskSimLine is the reference parser: strings.Fields and strconv, for
// the lines scanDiskSim does not take.
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
	flags, err := parseFlags(f[4])
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
