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
// Requests are stored in blocks of blockLen (DESIGN §3.2). A record is three
// bit fields, packed low bit first with no padding between records:
//
//   - the arrival's delta from the request before it, less the block's
//     least delta (its step); the first request is coded against the
//     block's base, the first arrival less the step, so its field is 0;
//   - the LBN less the block's least LBN;
//   - sectors<<1 | op.
//
// Each field is as many bits wide as the largest value it holds in the
// block, from 0 to 64. The arithmetic wraps, so arrivals may go backwards and
// span all of int64. Request i is record i%blockLen of block i/blockLen; its
// arrival is the sum of the deltas before it, so At costs O(i%blockLen),
// while a Cursor carries the running arrival and decodes each record once.
// On the workload profiles a record takes 6.5–7.1 bytes and its header's
// share 0.25 (DESIGN §3.2).
type Arena struct {
	blocks []block
	// segs holds the records in segSize chunks, so building never regrows
	// and copies the records already encoded. A block starts on a byte
	// boundary inside one segment, with slack bytes after its last record,
	// so decoders can always load whole 64-bit words.
	segs  [][]byte
	n     int
	stats Stats
}

const (
	blockShift = 7
	blockLen   = 1 << blockShift // requests per block
	blockMask  = blockLen - 1
	segShift   = 16
	segSize    = 1 << segShift // bytes per record segment
	segMask    = segSize - 1
	// slack is the bytes after a block's last record. A field is read with
	// a 64-bit load at its first byte plus the byte after that word, and a
	// zero-width field may start one byte past the block.
	slack = 9
	// wordBits is the widest record one 64-bit load always holds: a record
	// starts up to 7 bits into its first byte.
	wordBits = 57
)

// block is the header of blockLen consecutive requests, 32 bytes.
type block struct {
	// at is the byte offset of the first record, segment<<segShift |
	// position, above the three field widths in bits:
	// off<<24 | wArr<<16 | wLBN<<8 | wSec. The 40 bits left for the offset
	// address 2^24 segments, a TiB of records.
	at     uint64
	base   sim.Time // the first arrival less step
	step   int64    // the least arrival delta; 0 in a block of one request
	minLBN int64
}

func (h *block) off() uint64 { return h.at >> 24 }

func (h *block) widths() (wArr, wLBN, wSec uint) {
	return uint(h.at >> 16 & 0xff), uint(h.at >> 8 & 0xff), uint(h.at & 0xff)
}

// mask keeps the low w bits, 0 to 64, of a word.
func mask(w uint) uint64 { return ^uint64(0) >> (64 - w) }

// get returns the bits from bit p of q on, up to 64 of them; the caller
// masks the field's width. q must hold the byte after the word at p/8.
func get(q []byte, p uint) uint64 {
	i, s := p>>3, p&7
	return binary.LittleEndian.Uint64(q[i:])>>s | uint64(q[i+8])<<(64-s)
}

// bitWriter appends bit fields to q, low bit first, a 64-bit word at a time.
type bitWriter struct {
	q   []byte
	acc uint64 // the bits not yet stored, from bit 0 of the next word
	n   uint   // how many bits of acc are in use, 0 to 63
}

// write appends the low w bits of v, which must hold no higher bits.
func (bw *bitWriter) write(v uint64, w uint) {
	bw.acc |= v << bw.n
	if bw.n += w; bw.n >= 64 {
		binary.LittleEndian.PutUint64(bw.q, bw.acc)
		bw.q = bw.q[8:]
		bw.n -= 64
		bw.acc = v >> (w - bw.n) // v's bits that did not fit; 0 for none
	}
}

// flush stores the last, partial word.
func (bw *bitWriter) flush() { binary.LittleEndian.PutUint64(bw.q, bw.acc) }

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
	h := block{minLBN: reqs[0].LBN}
	maxLBN, sec := reqs[0].LBN, uint64(reqs[0].Sectors)<<1|uint64(reqs[0].Op)
	var maxD int64
	if len(reqs) > 1 {
		h.step = int64(reqs[1].Arrival - reqs[0].Arrival)
		maxD = h.step
	}
	for j := 1; j < len(reqs); j++ {
		r := &reqs[j]
		d := int64(r.Arrival - reqs[j-1].Arrival)
		h.step, maxD = min(h.step, d), max(maxD, d)
		h.minLBN, maxLBN = min(h.minLBN, r.LBN), max(maxLBN, r.LBN)
		sec |= uint64(r.Sectors)<<1 | uint64(r.Op)
	}
	h.base = reqs[0].Arrival - sim.Time(h.step)
	// A field is as wide as its largest value; the OR of the sizes has the
	// largest's bit length. maxD - step may exceed MaxInt64, not 2^64.
	wArr := uint(bits.Len64(uint64(maxD) - uint64(h.step)))
	wLBN, wSec := uint(bits.Len64(uint64(maxLBN-h.minLBN))), uint(bits.Len64(sec))
	row := wArr + wLBN + wSec
	h.at = uint64(wArr<<16 | wLBN<<8 | wSec)
	bw := bitWriter{q: b.reserve(&h, int(uint(len(reqs))*row+7)>>3, row)}
	prev, step, minLBN := h.base, h.step, h.minLBN
	for j := range reqs {
		r := &reqs[j]
		a := uint64(int64(r.Arrival-prev) - step)
		prev = r.Arrival
		l, s := uint64(r.LBN-minLBN), uint64(r.Sectors)<<1|uint64(r.Op)
		if row <= wordBits {
			bw.write(a|l<<wArr|s<<(wArr+wLBN), row)
		} else {
			bw.write(a, wArr)
			bw.write(l, wLBN)
			bw.write(s, wSec)
		}
	}
	bw.flush()
	b.a.blocks = append(b.a.blocks, h)
	b.a.n += len(reqs)
	b.k = 0
}

// reserve places size bytes of records (plus slack) in the last segment,
// starting a new one when they do not fit, and records their offset in h.
// A new segment is smaller than segSize when the reader's size hint says
// fewer bytes remain (estimated at this block's row of bits), so an exactly
// hinted arena ends with at most a block's worth of spare bytes.
func (b *arenaBuilder) reserve(h *block, size int, row uint) []byte {
	a := b.a
	if len(a.segs) == 0 || b.used+size+slack > len(a.segs[len(a.segs)-1]) {
		n := segSize
		if rem := b.hint - a.n; rem > 0 {
			// The requests still to come at this block's row, plus a byte
			// per block for rounding each up to a byte.
			est := int((uint(rem)*row+7)>>3) + rem>>blockShift + 1
			n = min(n, max(size, est)+slack)
		}
		a.segs = append(a.segs, make([]byte, n))
		b.used = 0
	}
	last := len(a.segs) - 1
	h.at |= uint64(last<<segShift|b.used) << 24
	rec := a.segs[last][b.used : b.used+size+slack]
	b.used += size
	return rec
}

// Len returns the number of requests in the arena.
func (a *Arena) Len() int { return a.n }

// At returns request i, decoded in place. It does not allocate, and it
// sums the arrival deltas of the records before i in its block.
func (a *Arena) At(i int) Request {
	if uint(i) >= uint(a.n) {
		panic(fmt.Sprintf("trace: Arena.At(%d) out of range [0, %d)", i, a.n))
	}
	d := a.decoder(i >> blockShift)
	d.skip(i & blockMask)
	return d.next()
}

// decoder reads one block's records in order.
type decoder struct {
	q                []byte   // the segment from the block's first record on
	p                uint     // bit offset of the next record in q
	arr              sim.Time // arrival of the record before p
	step             sim.Time
	minLBN           int64
	row, oLBN, oSec  uint // record width, and the LBN and sectors fields' offsets
	mArr, mLBN, mSec uint64
}

// decoder returns a decoder at the first record of block b.
func (a *Arena) decoder(b int) decoder {
	h := &a.blocks[b]
	off := h.off()
	wArr, wLBN, wSec := h.widths()
	return decoder{
		q:    a.segs[off>>segShift][off&segMask:],
		arr:  h.base,
		step: sim.Time(h.step), minLBN: h.minLBN,
		row: wArr + wLBN + wSec, oLBN: wArr, oSec: wArr + wLBN,
		mArr: mask(wArr), mLBN: mask(wLBN), mSec: mask(wSec),
	}
}

// skip steps over the next k records, adding up their arrival deltas. An
// arrival field of at most 57 bits (oLBN is its width) is one load.
func (d *decoder) skip(k int) {
	q, p, arr, row, mArr := d.q, d.p, d.arr, d.row, d.mArr
	arr += sim.Time(k) * d.step
	if d.oLBN <= wordBits {
		for ; k > 0; k-- {
			arr += sim.Time(binary.LittleEndian.Uint64(q[p>>3:]) >> (p & 7) & mArr)
			p += row
		}
	} else {
		for ; k > 0; k-- {
			arr += sim.Time(get(q, p) & mArr)
			p += row
		}
	}
	d.p, d.arr = p, arr
}

// next decodes the next record, one load per field.
func (d *decoder) next() Request {
	p := d.p
	d.p += d.row
	d.arr += d.step + sim.Time(get(d.q, p)&d.mArr)
	v := get(d.q, p+d.oSec) & d.mSec
	return Request{
		Arrival: d.arr,
		LBN:     d.minLBN + int64(get(d.q, p+d.oLBN)&d.mLBN),
		Sectors: int32(v >> 1),
		Op:      Op(v & 1),
	}
}

// read decodes the next len(out) records into out. A record of at most 57
// bits is one load, whose fields come out with shifts and masks hoisted
// from the header; a wider one takes next.
func (d *decoder) read(out []Request) {
	if d.row > wordBits {
		for j := range out {
			out[j] = d.next()
		}
		return
	}
	q, arr, row, s0 := d.q[d.p>>3:], d.arr, d.row, d.p&7
	step, minLBN, mArr, mLBN, mSec := d.step, d.minLBN, d.mArr, d.mLBN, d.mSec
	sLBN, sSec := d.oLBN&63, d.oSec&63
	for j := range out {
		p := s0 + uint(j)*row
		w := binary.LittleEndian.Uint64(q[p>>3:]) >> (p & 7)
		arr += step + sim.Time(w&mArr)
		v := w >> sSec & mSec
		out[j] = Request{
			Arrival: arr,
			LBN:     minLBN + int64(w>>sLBN&mLBN),
			Sectors: int32(v >> 1),
			Op:      Op(v & 1),
		}
	}
	d.p += uint(len(out)) * row
	d.arr = arr
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
	d   decoder // at request pos, once pos is past its block's first request
}

// Next implements Reader.
func (c *Cursor) Next() (Request, error) {
	if c.pos >= c.a.n {
		return Request{}, errEOF
	}
	if c.pos&blockMask == 0 {
		c.d = c.a.decoder(c.pos >> blockShift)
	}
	c.pos++
	return c.d.next(), nil
}

// NextN implements BatchReader, decoding a whole chunk in place: each
// block's header is unpacked once, and the chunk's run of records from it
// decoded in one loop.
func (c *Cursor) NextN(dst []Request) (int, error) {
	a := c.a
	if c.pos >= a.n {
		return 0, errEOF
	}
	n := min(a.n-c.pos, len(dst))
	for k := 0; k < n; {
		i := c.pos + k
		j := i & blockMask
		if j == 0 {
			c.d = a.decoder(i >> blockShift)
		}
		out := dst[k : k+min(blockLen-j, n-k)]
		c.d.read(out)
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
