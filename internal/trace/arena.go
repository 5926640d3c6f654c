package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"dloop/internal/sim"
)

// Arena is an immutable, packed copy of a trace. One parse produces it and
// every sweep cell replays it read-only through its own Cursor. Sharing one
// Arena across worker goroutines is safe precisely because nothing mutates it
// after Build — the cursors carry all replay state.
//
// Requests are stored in frame-of-reference blocks of blockLen. A block's
// header holds the byte offset of its first record, its minimum arrival and
// minimum LBN, and a byte width from 1 to 8 for each of the three fields. A
// record is fixed width and little-endian: arrival−min, LBN−min, then
// sectors<<1 | op. Request i is record i%blockLen of block i/blockLen, so At
// stays O(1). On the five workload profiles the widths are 4 + 3 + 1 bytes:
// 8 bytes a record plus 0.5 of header (DESIGN §3.2).
type Arena struct {
	blocks []block
	// segs holds the records in segSize chunks, so building never regrows
	// and copies the records already encoded. Every block lies inside one
	// segment with slack bytes after its last record, so decoders can
	// always load whole 64-bit words.
	segs  [][]byte
	n     int
	stats Stats
}

const (
	blockShift = 6
	blockLen   = 1 << blockShift // requests per block
	blockMask  = blockLen - 1
	segShift   = 16
	segSize    = 1 << segShift // bytes per record segment
	segMask    = segSize - 1
	slack      = 8 // bytes after a block's last record
)

// block is the header of blockLen consecutive requests.
type block struct {
	off              int64 // segment<<segShift | byte position in the segment
	minArr           sim.Time
	minLBN           int64
	wArr, wLBN, wSec uint8 // field widths in bytes, 1 to 8
}

func (h *block) row() int { return int(h.wArr) + int(h.wLBN) + int(h.wSec) }

// byteWidth returns how many bytes hold v, at least one.
func byteWidth(v uint64) uint8 { return uint8((bits.Len64(v|1) + 7) >> 3) }

// fieldMask keeps the low w bytes of a loaded word.
func fieldMask(w uint8) uint64 { return ^uint64(0) >> ((64 - 8*uint(w)) & 63) }

// sizeHinter is implemented by readers that can estimate how many requests
// they will produce (DiskSimReader and SPCReader over sized sources,
// workload.LimitReader). BuildArena preallocates the block headers from it
// and sizes record segments by it.
type sizeHinter interface{ SizeHint() int }

// arenaBuilder encodes requests into an Arena a block at a time.
type arenaBuilder struct {
	a    *Arena
	pend [blockLen]Request
	k    int // requests pending in pend
	used int // bytes used in the last segment
	hint int // requests the reader expects to produce; 0 if unknown
}

// BuildArena drains a Reader into a new Arena. Every request must pass
// Request.Validate; the first that does not stops the build with an error
// naming its index. The reader's error, or that one, is returned with the
// arena of the requests read before it.
func BuildArena(r Reader) (*Arena, error) {
	b := arenaBuilder{a: &Arena{stats: Stats{MinLBN: -1}}}
	if h, ok := r.(sizeHinter); ok {
		if b.hint = max(h.SizeHint(), 0); b.hint > 0 {
			b.a.blocks = make([]block, 0, (b.hint+blockMask)>>blockShift)
		}
	}
	for i := 0; ; i++ {
		req, err := r.Next()
		if err == nil && req.flaw() != wellFormed {
			err = fmt.Errorf("trace: request %d: %w", i, req.Validate())
		}
		if err != nil {
			b.flush()
			if isEOF(err) {
				return b.a, nil
			}
			return b.a, err
		}
		b.pend[b.k] = req
		b.k++
		b.a.stats.add(req)
		if b.k == blockLen {
			b.flush()
		}
	}
}

// flush encodes the pending requests as one block.
func (b *arenaBuilder) flush() {
	reqs := b.pend[:b.k]
	if len(reqs) == 0 {
		return
	}
	h := block{minArr: reqs[0].Arrival, minLBN: reqs[0].LBN}
	for _, r := range reqs[1:] {
		h.minArr = min(h.minArr, r.Arrival)
		h.minLBN = min(h.minLBN, r.LBN)
	}
	// OR-ing the values gives the bit length of the largest.
	var arr, lbn, sec uint64
	for _, r := range reqs {
		arr |= uint64(r.Arrival - h.minArr)
		lbn |= uint64(r.LBN - h.minLBN)
		sec |= uint64(r.Sectors)<<1 | uint64(r.Op)
	}
	h.wArr, h.wLBN, h.wSec = byteWidth(arr), byteWidth(lbn), byteWidth(sec)
	row, oLBN, oSec := h.row(), int(h.wArr), int(h.wArr)+int(h.wLBN)
	rec := b.reserve(&h, len(reqs)*row)
	// Every store writes a whole word: one per record of at most 8 bytes,
	// one per field of a wider record. The zero bytes a store writes past
	// its record or field are overwritten by the next store, or land in
	// the slack.
	if row <= 8 {
		sLBN, sSec := 8*uint(oLBN)&63, 8*uint(oSec)&63
		for j := range reqs {
			r := &reqs[j]
			binary.LittleEndian.PutUint64(rec[j*row:], uint64(r.Arrival-h.minArr)|
				uint64(r.LBN-h.minLBN)<<sLBN|(uint64(r.Sectors)<<1|uint64(r.Op))<<sSec)
		}
	} else {
		for j := range reqs {
			r := &reqs[j]
			q := rec[j*row:]
			binary.LittleEndian.PutUint64(q, uint64(r.Arrival-h.minArr))
			binary.LittleEndian.PutUint64(q[oLBN:], uint64(r.LBN-h.minLBN))
			binary.LittleEndian.PutUint64(q[oSec:], uint64(r.Sectors)<<1|uint64(r.Op))
		}
	}
	b.a.blocks = append(b.a.blocks, h)
	b.a.n += len(reqs)
	b.k = 0
}

// reserve places size bytes of records (plus slack) in the last segment,
// starting a new one when they do not fit, and sets h.off to them. A new
// segment is smaller than segSize when the reader's size hint says fewer
// bytes remain, so an exactly hinted arena ends without a spare segment.
func (b *arenaBuilder) reserve(h *block, size int) []byte {
	a := b.a
	if len(a.segs) == 0 || b.used+size+slack > len(a.segs[len(a.segs)-1]) {
		n := segSize
		if rem := b.hint - a.n; rem > 0 {
			n = min(n, max(size, rem*h.row())+slack)
		}
		a.segs = append(a.segs, make([]byte, n))
		b.used = 0
	}
	last := len(a.segs) - 1
	h.off = int64(last)<<segShift | int64(b.used)
	rec := a.segs[last][b.used : b.used+size+slack]
	b.used += size
	return rec
}

// Len returns the number of requests in the arena.
func (a *Arena) Len() int { return a.n }

// At returns request i, decoded in place. It does not allocate.
func (a *Arena) At(i int) Request {
	if uint(i) >= uint(a.n) {
		panic(fmt.Sprintf("trace: Arena.At(%d) out of range [0, %d)", i, a.n))
	}
	h := &a.blocks[i>>blockShift]
	p := int(h.off&segMask) + (i&blockMask)*h.row()
	return h.record(a.segs[h.off>>segShift][p:])
}

// record decodes the record at the start of q. Every field is loaded as a
// whole word, so q must run at least slack bytes past the last field's start.
func (h *block) record(q []byte) Request {
	v := binary.LittleEndian.Uint64(q[int(h.wArr)+int(h.wLBN):]) & fieldMask(h.wSec)
	return Request{
		Arrival: h.minArr + sim.Time(binary.LittleEndian.Uint64(q)&fieldMask(h.wArr)),
		LBN:     h.minLBN + int64(binary.LittleEndian.Uint64(q[h.wArr:])&fieldMask(h.wLBN)),
		Sectors: int32(v >> 1),
		Op:      Op(v & 1),
	}
}

// Stats returns the trace summary, identical to Summarize over the same
// requests but computed once at build time.
func (a *Arena) Stats() Stats { return a.stats }

// Cursor returns a new independent reader positioned at the first request.
// Any number of cursors may iterate one arena concurrently.
func (a *Arena) Cursor() *Cursor { return &Cursor{a: a} }

// Cursor is a cheap per-goroutine read position into a shared Arena. It
// implements Reader.
type Cursor struct {
	a   *Arena
	pos int
}

// Next implements Reader.
func (c *Cursor) Next() (Request, error) {
	if c.pos >= c.a.n {
		return Request{}, errEOF
	}
	req := c.a.At(c.pos)
	c.pos++
	return req, nil
}

// NextN implements BatchReader, decoding a whole chunk in place: each
// block's header is looked up once for the run of records the chunk takes
// from it.
func (c *Cursor) NextN(dst []Request) (int, error) {
	a := c.a
	if c.pos >= a.n {
		return 0, errEOF
	}
	n := min(a.n-c.pos, len(dst))
	for k := 0; k < n; {
		i := c.pos + k
		h := &a.blocks[i>>blockShift]
		row := h.row()
		p := int(h.off&segMask) + (i&blockMask)*row
		out := dst[k : k+min(blockLen-i&blockMask, n-k)]
		rec := a.segs[h.off>>segShift][p : p+len(out)*row+slack]
		if row <= 8 {
			// A record of at most 8 bytes is one word: load it once and take
			// the fields out with shifts and masks hoisted from the header.
			// This decodes in about half the time of record.
			sLBN, sSec := 8*uint(h.wArr)&63, 8*uint(h.wArr+h.wLBN)&63
			mArr, mLBN, mSec := fieldMask(h.wArr), fieldMask(h.wLBN), fieldMask(h.wSec)
			minArr, minLBN := h.minArr, h.minLBN
			for j := range out {
				w := binary.LittleEndian.Uint64(rec[j*row:])
				v := w >> sSec & mSec
				out[j] = Request{
					Arrival: minArr + sim.Time(w&mArr),
					LBN:     minLBN + int64(w>>sLBN&mLBN),
					Sectors: int32(v >> 1),
					Op:      Op(v & 1),
				}
			}
		} else {
			for j := range out {
				out[j] = h.record(rec[j*row:])
			}
		}
		k += len(out)
	}
	c.pos += n
	return n, nil
}

// Trace file formats accepted by OpenArena/LoadArena.
const (
	FormatDiskSim = "disksim"
	FormatSPC     = "spc"
)

// DetectFormat guesses the trace format from a file name: .csv or .spc
// means SPC-1, anything else DiskSim ASCII.
func DetectFormat(path string) string {
	switch filepath.Ext(path) {
	case ".csv", ".spc":
		return FormatSPC
	default:
		return FormatDiskSim
	}
}

// OpenArena parses the trace file at path (format FormatDiskSim or
// FormatSPC; empty means DetectFormat) into a fresh Arena, bypassing the
// process-wide cache.
func OpenArena(path, format string) (*Arena, error) {
	if format == "" {
		format = DetectFormat(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r Reader
	switch format {
	case FormatDiskSim:
		r = NewDiskSimReader(f)
	case FormatSPC:
		r = NewSPCReader(f)
	default:
		return nil, fmt.Errorf("trace: unknown format %q", format)
	}
	a, err := BuildArena(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return a, nil
}

// arenaCache memoizes LoadArena so each trace file is parsed exactly once
// per process, no matter how many sweep cells replay it.
var arenaCache sync.Map // cacheKey -> *arenaEntry

type cacheKey struct{ path, format string }

type arenaEntry struct {
	once sync.Once
	a    *Arena
	err  error
}

// LoadArena returns the process-wide shared Arena for the trace file at
// path, parsing it on first use and returning the same immutable Arena to
// every subsequent caller (including concurrent ones). A parse failure is
// cached too: retrying a broken file re-reports the error without re-reading.
func LoadArena(path, format string) (*Arena, error) {
	if format == "" {
		format = DetectFormat(path)
	}
	key := cacheKey{path: path, format: format}
	v, _ := arenaCache.LoadOrStore(key, &arenaEntry{})
	e := v.(*arenaEntry)
	e.once.Do(func() { e.a, e.err = OpenArena(path, format) })
	return e.a, e.err
}
