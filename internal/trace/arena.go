package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"dloop/internal/sim"
)

// Arena is an immutable, packed copy of a trace. One parse produces it and
// every sweep cell replays it read-only through its own Cursor. Sharing one
// Arena across worker goroutines is safe precisely because nothing mutates it
// after Build — the cursors carry all replay state.
//
// Requests are stored in blocks of blockLen (DESIGN §3.2). A block's bits
// are, low bit first with no padding between them:
//
//   - a presence bitmap, one bit a request, if the block has one: a request
//     whose arrival equals the one before it (a zero delta) has a clear bit
//     and no arrival field;
//   - a dictionary of the block's distinct sectors<<1 | op codes, if it has
//     one: their count less one in 4 bits, then each code;
//   - the records, each of three fields: sectors<<1 | op, or its index in
//     the dictionary; the LBN less the block's least LBN, shifted right by
//     the trailing zeros every such difference in the block shares; and
//     the arrival's delta from the request before it less the block's
//     step.
//
// Without a bitmap the step is the least delta, and the first request is
// coded against the block's base, its arrival less the step, so its field
// is 0. With one the step is the least nonzero delta taken as unsigned (a
// backward arrival's delta ranks above every forward one), and the first
// request's arrival is the base, so it has no field. Each field is as many
// bits wide as the largest value it holds in the block, from 0 to 64. A
// block has a bitmap or a dictionary only where that makes it smaller. The
// arithmetic wraps, so arrivals may go backwards and span all of int64.
// Request i is record i%blockLen of block i/blockLen; its arrival is the
// sum of the deltas before it, so At costs O(i%blockLen), while a Cursor
// carries the running arrival and decodes each record once. On the
// workload profiles a request takes 4.4–6.0 bytes, of which the header's
// share is 0.25 (DESIGN §3.2).
type Arena struct {
	blocks []block
	// segs holds the blocks' bits in segSize chunks, so building never
	// regrows and copies the blocks already encoded. A block starts on a
	// byte boundary inside one segment, with slack bytes after its last
	// record, so decoders can always load whole 64-bit words.
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
	// a 64-bit load at its first byte plus the byte after that word (a
	// record of at most wordBits, with the load alone), and a zero-width
	// field may start one byte past the block.
	slack = 9
	// wordBits is the widest record one 64-bit load always holds: a record
	// starts up to 7 bits into its first byte.
	wordBits = 57
	// dictMax is the most codes a block's dictionary holds.
	dictMax = 16
)

// block.at's fields, low bit first: the arrival field's width (7 bits, 0
// to 64), the LBN field's (6 bits, 0 to 63), the codes' (6 bits, 0 to 32), a
// bit each for a presence bitmap and a dictionary, the LBN shift (6 bits),
// and the byte offset of the block's first bit (37 bits).
const (
	atLBN    = 7
	atCode   = atLBN + 6
	atBitmap = atCode + 6
	atDict   = atBitmap + 1
	atShift  = atDict + 1
	atOff    = atShift + 6
)

// block is the header of blockLen consecutive requests, 32 bytes.
type block struct {
	// at is the byte offset of the block's first bit, segment<<segShift |
	// position, above its layout (the atX constants; where the block has
	// a dictionary, the code width is its entries'). The 37 bits left for
	// the offset address 2^21 segments, 128 GiB of records.
	at     uint64
	base   sim.Time // the arrival the first record's delta is added to
	step   int64    // what a present arrival field is coded against
	minLBN int64
}

// mask keeps the low w bits, 0 to 64, of a word.
func mask(w uint) uint64 { return ^uint64(0) >> (64 - w) }

// get returns the bits from bit p of q on, up to 64 of them; the caller
// masks the field's width. q must hold the byte after the word at p/8.
func get(q []byte, p uint) uint64 {
	i, s := p>>3, p&7
	return binary.LittleEndian.Uint64(q[i:])>>s | uint64(q[i+8])<<(64-s)
}

// word returns the bits from bit p of the bits at base on, at least
// wordBits of them: get without the byte after the word and without bounds
// checks, for the decoder's loops. The 8 bytes from byte p/8 on must be in
// base's segment; the slack after a block's last record keeps them there
// for any record of the block.
func word(base unsafe.Pointer, p uint) uint64 {
	return binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(base, p>>3))[:]) >> (p & 7)
}

// bitWriter appends bit fields to q, low bit first, a 64-bit word at a time.
type bitWriter struct {
	q   []byte
	i   uint   // the byte the word being filled starts at
	acc uint64 // the bits of that word written so far
	n   uint   // how many bits of acc are in use, 0 to 63
}

// write appends the low w bits of v, which must hold no higher bits. It
// stores the word being filled every time and moves to the next without a
// branch, since record widths vary from one record to the next.
func (bw *bitWriter) write(v uint64, w uint) {
	lo, hi := bw.acc|v<<bw.n, v>>1>>(63-bw.n&63) // hi: v's bits past lo's top
	binary.LittleEndian.PutUint64(bw.q[bw.i:], lo)
	n := bw.n + w
	full := n >> 6 // 1 if lo is full
	m := -uint64(full)
	bw.acc, bw.i, bw.n = hi&m|lo&^m, bw.i+full<<3, n&63
}

// flush stores the last, partial word.
func (bw *bitWriter) flush() { binary.LittleEndian.PutUint64(bw.q[bw.i:], bw.acc) }

// sizeHinter is implemented by readers that can estimate how many requests
// they will produce (TextReader over a sized source,
// workload.LimitReader). BuildArena preallocates the block headers from it
// and sizes record segments by it.
type sizeHinter interface{ SizeHint() int }

// arenaBuilder encodes requests into an Arena a block at a time.
type arenaBuilder struct {
	a    *Arena
	pend [blockLen]Request
	idx  [blockLen]uint8 // each pending request's code's index in dict
	dict [dictMax]uint32 // the pending requests' distinct codes
	// slot maps a code's hash to its index in dict plus one, 0 if none.
	slot [64]uint8
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

// code is a request's sectors<<1 | op, at most 32 bits.
func code(r *Request) uint32 { return uint32(r.Sectors)<<1 | uint32(r.Op) }

// flush encodes the pending requests as one block.
func (b *arenaBuilder) flush() {
	reqs := b.pend[:b.k]
	k := uint(len(reqs))
	if k == 0 {
		return
	}
	// One pass over the arrivals finds the least and greatest delta, of
	// all and of the nonzero ones, and the presence bits, without a branch
	// on whether a delta is zero: the nonzero ones' extremes are taken
	// unsigned, where a zero delta is the least value and, less one, the
	// greatest. minNZ holds the least less one.
	var minD, maxD int64
	minNZ, maxNZ, nz := ^uint64(0), uint64(0), uint(0)
	var pres [2]uint64
	if k > 1 {
		minD = int64(reqs[1].Arrival - reqs[0].Arrival)
		maxD = minD
	}
	for j := 1; j < len(reqs); j++ {
		d := int64(reqs[j].Arrival - reqs[j-1].Arrival)
		minD, maxD = min(minD, d), max(maxD, d)
		f := uint64(d|-d) >> 63 // 1 if d is nonzero
		minNZ, maxNZ = min(minNZ, uint64(d)-1), max(maxNZ, uint64(d))
		nz += uint(f)
		pres[j>>6&1] |= f << (j & 63)
	}
	// One more finds the LBNs' range and the low bits they share, and the
	// distinct codes, up to one more than a dictionary holds.
	minLBN, maxLBN, diff := reqs[0].LBN, reqs[0].LBN, uint64(0)
	var codes uint32 // the OR of the codes: the largest's bit length
	nd := uint(0)
	b.slot = [len(b.slot)]uint8{}
	for j := range reqs {
		r := &reqs[j]
		minLBN, maxLBN = min(minLBN, r.LBN), max(maxLBN, r.LBN)
		diff |= uint64(r.LBN ^ reqs[0].LBN)
		c := code(r)
		codes |= c
		for s := c * 0x9e3779b1 >> 26; nd <= dictMax; s = (s + 1) & 63 {
			if e := b.slot[s]; e == 0 {
				if nd < dictMax {
					b.dict[nd], b.slot[s] = c, uint8(nd+1)
				}
				b.idx[j] = uint8(nd)
				nd++
				break
			} else if b.dict[e-1] == c {
				b.idx[j] = e - 1
				break
			}
		}
	}
	// Every LBN less the least shares the trailing zeros of the bits in
	// which the LBNs differ from the first. maxD - minD may exceed
	// MaxInt64, not 2^64.
	shift := uint(bits.TrailingZeros64(diff)) & 63
	wArr, wLBN := uint(bits.Len64(uint64(maxD)-uint64(minD))), uint(bits.Len64(uint64(maxLBN-minLBN)>>shift))
	wRaw := uint(bits.Len32(codes))
	h := block{at: uint64(shift) << atShift, base: reqs[0].Arrival - sim.Time(minD), step: minD, minLBN: minLBN}
	present, head := k, uint(0) // records with an arrival field; bits before the records
	// A bitmap costs a bit a request and saves the zero deltas' fields.
	bitmap := false
	if wNZ := uint(bits.Len64(maxNZ - minNZ - 1)); nz < k-1 && k+nz*wNZ < k*wArr {
		bitmap, h.at = true, h.at|1<<atBitmap
		h.base, h.step, wArr, present, head = reqs[0].Arrival, int64(minNZ+1), wNZ, nz, k
	}
	// A dictionary costs its codes and saves what an index does not need.
	wCode, dict := wRaw, false
	if wIdx := uint(bits.Len(nd - 1)); nd <= dictMax && 4+nd*wRaw+k*wIdx < k*wRaw {
		dict, h.at = true, h.at|1<<atDict
		wCode, head = wIdx, head+4+nd*wRaw
	}
	h.at |= uint64(wArr | wLBN<<atLBN | wRaw<<atCode)
	row := wLBN + wCode
	size := head + k*row + present*wArr
	bw := bitWriter{q: b.reserve(&h, int(size+7)>>3, int(k))}
	if bitmap {
		bw.write(pres[0], min(k, 64))
		if k > 64 {
			bw.write(pres[1], k-64)
		}
	} else {
		pres = [2]uint64{^uint64(0), ^uint64(0)}
	}
	if dict {
		bw.write(uint64(nd-1), 4)
		for _, c := range b.dict[:nd] {
			bw.write(uint64(c), wRaw)
		}
	}
	prev, step := h.base, uint64(h.step)
	for j := range reqs {
		r := &reqs[j]
		m := -(pres[j>>6&1] >> (j & 63) & 1) // all ones if the arrival is present
		a, wa := (uint64(int64(r.Arrival-prev))-step)&m, wArr&uint(m)
		prev = r.Arrival
		l, c := uint64(r.LBN-minLBN)>>shift, uint64(code(r))
		if dict {
			c = uint64(b.idx[j])
		}
		if row+wa <= 64 {
			bw.write(c|l<<wCode|a<<row, row+wa)
		} else {
			bw.write(c, wCode)
			bw.write(l, wLBN)
			bw.write(a, wa)
		}
	}
	bw.flush()
	b.a.blocks = append(b.a.blocks, h)
	b.a.n += len(reqs)
	b.k = 0
}

// reserve places size bytes of a block of k requests (plus slack) in the
// last segment, starting a new one when they do not fit, and records their
// offset in h. A new segment is smaller than segSize when the reader's size
// hint says fewer bytes remain (estimated at this block's bytes a request),
// so an exactly hinted arena ends with at most a block's worth of spare
// bytes.
func (b *arenaBuilder) reserve(h *block, size, k int) []byte {
	a := b.a
	if len(a.segs) == 0 || b.used+size+slack > len(a.segs[len(a.segs)-1]) {
		n := segSize
		if rem := b.hint - a.n; rem > 0 {
			// The requests still to come at this block's rate, plus a byte
			// per block for rounding each up to a byte.
			est := (rem*size+k-1)/k + rem>>blockShift + 1
			n = min(n, max(size, est)+slack)
		}
		a.segs = append(a.segs, make([]byte, n))
		b.used = 0
	}
	last := len(a.segs) - 1
	h.at |= uint64(last<<segShift|b.used) << atOff
	rec := a.segs[last][b.used : b.used+size+slack]
	b.used += size
	return rec
}

// Len returns the number of requests in the arena.
func (a *Arena) Len() int { return a.n }

// At returns request i, decoded in place. It does not allocate, and it
// sums the arrival deltas of the records before i in its block.
//
// i must be in [0, Len()). That is an invariant of the caller, as a slice
// index is, not an input to check: At panics outside it, and has no error
// to return.
func (a *Arena) At(i int) Request {
	if uint(i) >= uint(a.n) {
		panic(fmt.Sprintf("trace: Arena.At(%d) out of range [0, %d)", i, a.n))
	}
	var d decoder
	d.reset(a, i>>blockShift)
	d.skip(i & blockMask)
	return d.next()
}

// decoder reads one block's records in order.
type decoder struct {
	q      []byte   // the segment from the block's first bit on
	p      uint     // bit offset of the next record in q
	j      uint     // the next record's index in the block
	arr    sim.Time // arrival of the record before p
	minLBN int64
	shift  uint // the LBN field's shift
	oLBN   uint // the LBN field's offset: the code field's width
	oArr   uint // the arrival field's offset: the code and LBN fields' width
	mCode  uint64
	mLBN   uint64
	// The arrival field's mask and the step added to it, and the record's
	// width, indexed by its presence bit: the mask and step are 0 where the
	// field is absent.
	mArr [2]uint64
	step [2]uint64
	row  [2]uint
	pres [2]uint64 // bit j is set if record j has an arrival field
	// Where the code field holds an index, dict is set and codes holds the
	// block's dictionary.
	dict  bool
	codes [dictMax]uint32
}

// reset puts d at the first record of block b.
func (d *decoder) reset(a *Arena, b int) {
	h := &a.blocks[b]
	off := h.at >> atOff
	q := a.segs[off>>segShift][off&segMask:]
	wArr, wLBN, wCode := uint(h.at&0x7f), uint(h.at>>atLBN&0x3f), uint(h.at>>atCode&0x3f)
	d.q, d.p, d.j, d.arr, d.minLBN = q, 0, 0, h.base, h.minLBN
	d.shift, d.mLBN = uint(h.at>>atShift&0x3f), mask(wLBN)
	d.mArr[1], d.step[1] = mask(wArr), uint64(h.step)
	d.pres = [2]uint64{^uint64(0), ^uint64(0)}
	if h.at&(1<<atBitmap) != 0 {
		k := uint(min(a.n-b<<blockShift, blockLen))
		d.pres[0] = get(q, 0)
		if k > 64 {
			d.pres[1] = get(q, 64)
		}
		d.p = k
	}
	if d.dict = h.at&(1<<atDict) != 0; d.dict {
		n := uint(get(q, d.p)&15) + 1
		d.p += 4
		for i := range n {
			d.codes[i] = uint32(get(q, d.p) & mask(wCode))
			d.p += wCode
		}
		wCode = uint(bits.Len(n - 1))
	}
	d.oLBN, d.oArr, d.mCode = wCode, wCode+wLBN, mask(wCode)
	d.row = [2]uint{wCode + wLBN, wCode + wLBN + wArr}
}

// skip steps over the next k records, adding up their arrival deltas: a
// field of a record of at most wordBits with one load, as read does.
func (d *decoder) skip(k int) {
	q, p, j, arr, oArr := d.q, d.p, d.j, d.arr, d.oArr
	base, wide := unsafe.Pointer(unsafe.SliceData(q)), d.row[1] > wordBits
	for ; k > 0; k-- {
		b := d.pres[j>>6&1] >> (j & 63) & 1
		var a uint64
		if wide {
			a = get(q, p+oArr)
		} else {
			a = word(base, p) >> (oArr & 63)
		}
		arr += sim.Time(d.step[b] + a&d.mArr[b])
		p += d.row[b]
		j++
	}
	d.p, d.j, d.arr = p, j, arr
}

// next decodes the next record: with one load, as read does, if a record
// fits one, else with one a field.
func (d *decoder) next() Request {
	b, p := d.pres[d.j>>6&1]>>(d.j&63)&1, d.p
	d.p += d.row[b]
	d.j++
	var c, l, a uint64
	if d.row[1] <= wordBits {
		w := word(unsafe.Pointer(unsafe.SliceData(d.q)), p)
		c, l, a = w, w>>(d.oLBN&63), w>>(d.oArr&63)
	} else {
		c, l, a = get(d.q, p), get(d.q, p+d.oLBN), get(d.q, p+d.oArr)
	}
	d.arr += sim.Time(d.step[b] + a&d.mArr[b])
	if c &= d.mCode; d.dict {
		c = uint64(d.codes[c&(dictMax-1)])
	}
	return Request{
		Arrival: d.arr,
		LBN:     d.minLBN + int64(l&d.mLBN<<(d.shift&63)),
		Sectors: int32(c >> 1),
		Op:      Op(c & 1),
	}
}

// dictionary returns the block's dictionary, or nil if it has none.
func (d *decoder) dictionary() *[dictMax]uint32 {
	if !d.dict {
		return nil
	}
	return &d.codes
}

// read decodes the next len(out) records into out. A record of at most 57
// bits is one load, whose fields come out with shifts and masks hoisted
// from the header, a run of records at a time whose presence bits are in
// one word (a block without a bitmap has every bit set); a wider one takes
// next.
func (d *decoder) read(out []Request) {
	if d.row[1] > wordBits {
		for i := range out {
			out[i] = d.next()
		}
		return
	}
	for len(out) > 0 {
		run := out[:min(len(out), int(64-d.j&63))]
		d.readRun(run, d.pres[d.j>>6&1]>>(d.j&63))
		out = out[len(run):]
	}
}

// readRun decodes len(out) records, at most 64, whose presence bits are f
// from its low bit on. Each bit selects the arrival field's mask, step and
// width from two-entry tables, not by a branch, since zero deltas come in
// no pattern.
func (d *decoder) readRun(out []Request, f uint64) {
	base, p, arr, minLBN := unsafe.Pointer(unsafe.SliceData(d.q)), d.p, d.arr, d.minLBN
	mCode, codes, oArr := d.mCode, d.dictionary(), d.oArr&63
	mArr, step, row := d.mArr, d.step, d.row
	rot, mLBN := int(d.shift)-int(d.oLBN), d.mLBN<<(d.shift&63)
	for i := range out {
		b := f & 1
		f >>= 1
		w := word(base, p)
		arr += sim.Time(step[b] + w>>oArr&mArr[b])
		c := w & mCode
		if codes != nil {
			c = uint64(codes[c&(dictMax-1)])
		}
		out[i] = Request{
			Arrival: arr,
			LBN:     minLBN + int64(bits.RotateLeft64(w, rot)&mLBN),
			Sectors: int32(c >> 1),
			Op:      Op(c & 1),
		}
		p += row[b]
	}
	d.p, d.j, d.arr = p, d.j+uint(len(out)), arr
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
		c.d.reset(c.a, c.pos>>blockShift)
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
			c.d.reset(a, i>>blockShift)
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
