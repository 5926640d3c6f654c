package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dloop/internal/sim"
)

// SPC-1 I/O trace format (the format of the UMass Financial1/Financial2
// traces the paper uses), one request per line:
//
//	ASU,LBA,Size,Opcode,Timestamp
//
// LBA in sectors, Size in bytes, Opcode 'r'/'R' or 'w'/'W', Timestamp in
// seconds from trace start.

// NewSPCReader returns a Reader over an SPC-1 CSV stream. A canonical line
// (see scanSPC) is read in one pass, without allocating; any other line goes
// to the reference parseSPCLine.
func NewSPCReader(r io.Reader) *TextReader {
	return newTextReader(r, FormatSPC, parseSPC)
}

// parseSPC parses one nonblank, noncomment line.
func parseSPC(line []byte) (Request, error) {
	if req, ok := scanSPC(line); ok {
		return req, nil
	}
	return parseSPCLine(string(line))
}

// scanSPC reads a canonical SPC line: unsigned decimal ASU, LBA and size, a
// one-letter opcode and a timestamp of at most 15 digits with at most nine
// after the dot, separated by single commas, then the end of the line or a
// comma and fields nobody reads; and a request Validate accepts. It reports
// false on any other line.
func scanSPC(b []byte) (Request, bool) {
	_, i := scanUint(b, 0) // ASU
	lba, i := scanUint(b, scanComma(b, i))
	size, i := scanUint(b, scanComma(b, i))
	i = scanComma(b, i)
	if i < 0 || i >= len(b) {
		return Request{}, false
	}
	op := OpWrite
	switch b[i] {
	case 'r', 'R':
		op = OpRead
	case 'w', 'W':
	default:
		return Request{}, false
	}
	at, i := scanArrival(b, scanComma(b, i+1), 9)
	sectors := max((size+SectorSize-1)/SectorSize, 1)
	if i < 0 || i < len(b) && b[i] != ',' || sectors > math.MaxInt32 {
		return Request{}, false
	}
	req := Request{Arrival: at, LBN: int64(lba), Sectors: int32(sectors), Op: op}
	return req, req.flaw() == wellFormed
}

// parseSPCLine is the reference parser: strings.Split and strconv, for the
// lines scanSPC does not take. Fields past the fifth are ignored, and each
// field read is trimmed of spaces.
func parseSPCLine(line string) (Request, error) {
	f := strings.Split(line, ",")
	if len(f) < 5 {
		return Request{}, fmt.Errorf("want at least 5 fields, got %d", len(f))
	}
	lba, err := strconv.ParseInt(strings.TrimSpace(f[1]), 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("lba %q: %v", f[1], err)
	}
	size, err := strconv.Atoi(strings.TrimSpace(f[2]))
	if err != nil {
		return Request{}, fmt.Errorf("size %q: %v", f[2], err)
	}
	var op Op
	switch strings.TrimSpace(f[3]) {
	case "r", "R":
		op = OpRead
	case "w", "W":
		op = OpWrite
	default:
		return Request{}, fmt.Errorf("opcode %q", f[3])
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(f[4]), 64)
	if err != nil {
		return Request{}, fmt.Errorf("timestamp %q: %v", f[4], err)
	}
	at, err := arrivalAt(secs, sim.Second)
	if err != nil {
		return Request{}, fmt.Errorf("timestamp %q: %v", f[4], err)
	}
	// A size rounds up to whole sectors; Go's division truncates towards
	// zero, so a size from -1022 to 0 bytes reads as one sector.
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
