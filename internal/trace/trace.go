// Package trace defines the host-request model the simulator replays, along
// with readers and writers for the two on-disk formats the storage-research
// community uses for the paper's workloads: the DiskSim ASCII format and the
// SPC-1 (UMass/Storage Performance Council) CSV format.
package trace

import (
	"fmt"
	"io"
	"math"
	"os"

	"dloop/internal/sim"
)

// SectorSize is the addressing granularity of host requests, in bytes.
const SectorSize = 512

// minTraceLineBytes is the lower-bound line length lineCountHint divides by.
// Real trace lines run 20-40 bytes; dividing by a low bound overestimates the
// request count slightly, which is the right direction for a preallocation —
// the arena's block headers never grow-and-copy, and the slack is no larger
// than the slack append's doubling would have left anyway.
const minTraceLineBytes = 16

// lineCountHint estimates how many lines a trace source holds, from its byte
// size when the source exposes one: in-memory readers (bytes.Reader,
// strings.Reader, bytes.Buffer) via Len, regular files via Stat. Unsized
// sources (pipes, sockets) report 0 and parsing falls back to appending.
func lineCountHint(r io.Reader) int {
	var size int64
	switch s := r.(type) {
	case interface{ Len() int }:
		size = int64(s.Len())
	case interface{ Stat() (os.FileInfo, error) }:
		if info, err := s.Stat(); err == nil && info.Mode().IsRegular() {
			size = info.Size()
		}
	}
	return int(size / minTraceLineBytes)
}

// Op distinguishes reads from writes.
type Op uint8

const (
	// OpRead is a host read.
	OpRead Op = iota
	// OpWrite is a host write.
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Request is one host I/O: at Arrival, transfer Sectors sectors starting at
// sector LBN, in the direction given by Op.
type Request struct {
	Arrival sim.Time
	LBN     int64 // starting logical sector number
	Sectors int32 // request length in sectors
	Op      Op
}

// Bytes returns the request length in bytes.
func (r Request) Bytes() int64 { return int64(r.Sectors) * SectorSize }

// End returns the first sector past the request.
func (r Request) End() int64 { return r.LBN + int64(r.Sectors) }

// maxSector bounds a request's end so its byte address fits an int64.
const maxSector = math.MaxInt64 / SectorSize

// The rules of Validate, in the order it checks them.
const (
	wellFormed = iota
	negativeArrival
	negativeLBN
	noSectors
	endPastMaxSector
	unknownOp
)

// flaw returns the first rule of Validate that r breaks, or wellFormed. It
// is small enough to inline, so per-request callers test it before paying
// for Validate's call.
func (r Request) flaw() int {
	switch {
	case r.Arrival < 0:
		return negativeArrival
	case r.LBN < 0:
		return negativeLBN
	case r.Sectors <= 0:
		return noSectors
	case r.LBN > maxSector-int64(r.Sectors):
		return endPastMaxSector
	case r.Op != OpRead && r.Op != OpWrite:
		return unknownOp
	}
	return wellFormed
}

// sectorCount narrows a parsed request size to Request.Sectors. It refuses
// a size that is not positive or that an int32 cannot hold, with Validate's
// messages, so no size wraps: 1<<32 + 8 sectors is an error, not 8.
func sectorCount(n int64) (int32, error) {
	switch {
	case n <= 0:
		return 0, fmt.Errorf("trace: non-positive size %d sectors", n)
	case n > math.MaxInt32:
		return 0, fmt.Errorf("trace: size %d sectors exceeds %d", n, math.MaxInt32)
	}
	return int32(n), nil
}

// Validate reports whether the request is well formed: a non-negative
// arrival and LBN, a positive size, an end whose byte address fits an
// int64, and a known op.
func (r Request) Validate() error {
	switch r.flaw() {
	case negativeArrival:
		return fmt.Errorf("trace: negative arrival time %v", r.Arrival)
	case negativeLBN:
		return fmt.Errorf("trace: negative LBN %d", r.LBN)
	case noSectors:
		return fmt.Errorf("trace: non-positive size %d sectors", r.Sectors)
	case endPastMaxSector:
		return fmt.Errorf("trace: request of %d sectors at LBN %d ends past sector %d", r.Sectors, r.LBN, int64(maxSector))
	case unknownOp:
		return fmt.Errorf("trace: unknown op %d", r.Op)
	}
	return nil
}

// Reader yields a sequence of requests in non-decreasing arrival order.
// Next returns io.EOF after the last request.
type Reader interface {
	Next() (Request, error)
}

// BatchReader is a Reader for chunked replay: NextN fills dst with up to
// len(dst) requests and returns how many it wrote. Like io.Reader, it may
// return n > 0 at the end of the stream and io.EOF (with n == 0) only on a
// subsequent call. Sources that hold requests packed or generate them in
// bulk (Arena cursors, workload generators) implement it so consumers move
// whole chunks without a per-request interface call; ssd.Controller.Run
// replays one.
type BatchReader interface {
	Reader
	NextN(dst []Request) (int, error)
}

// SliceReader replays an in-memory request slice.
type SliceReader struct {
	reqs []Request
	pos  int
}

// NewSliceReader returns a Reader over the given requests.
func NewSliceReader(reqs []Request) *SliceReader {
	return &SliceReader{reqs: reqs}
}

// Next implements Reader.
func (r *SliceReader) Next() (Request, error) {
	if r.pos >= len(r.reqs) {
		return Request{}, errEOF
	}
	req := r.reqs[r.pos]
	r.pos++
	return req, nil
}

// NextN implements BatchReader.
func (r *SliceReader) NextN(dst []Request) (int, error) {
	if r.pos >= len(r.reqs) {
		return 0, errEOF
	}
	n := copy(dst, r.reqs[r.pos:])
	r.pos += n
	return n, nil
}
