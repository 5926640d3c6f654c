package flash

import (
	"fmt"
	"math/bits"

	"dloop/internal/obs"
	"dloop/internal/sim"
)

// PageState is the lifecycle state of one physical page.
type PageState uint8

// Page lifecycle: erased pages are Free; programming makes them Valid;
// out-of-place update or garbage collection makes the stale copy Invalid;
// only erasing the whole block returns pages to Free.
const (
	PageFree PageState = iota
	PageValid
	PageInvalid
)

func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Cause labels who initiated a flash operation, so the device can attribute
// load per plane (the paper's SDRPP metric) and overhead per activity.
type Cause uint8

const (
	// CauseHost marks operations that directly serve a host request.
	CauseHost Cause = iota
	// CauseGC marks garbage-collection data movement and erases.
	CauseGC
	// CauseMap marks translation-page traffic (CMT misses and write-backs).
	CauseMap
	numCauses
)

func (c Cause) String() string {
	switch c {
	case CauseHost:
		return "host"
	case CauseGC:
		return "gc"
	case CauseMap:
		return "map"
	default:
		return fmt.Sprintf("Cause(%d)", uint8(c))
	}
}

// BlockInfo summarizes the state of one physical block: what its page words
// determine, kept up to date by the operations so no reader recounts them.
// Valid+Invalid is the number of pages programmed (or wasted) since the last
// erase.
type BlockInfo struct {
	Valid     int // pages currently holding live data
	Invalid   int // pages holding stale data
	NextWrite int // high-water mark: 1 + the highest non-free page offset
}

// A block row is a block's BlockInfo as the device stores it: one word of
// three rowBits-bit counts, valid pages in the low bits, invalid pages above
// them and the high-water mark at the top. Every count is at most
// PagesPerBlock, which Validate holds to MaxPagesPerBlock, so adding a page
// to one count never carries into the next. The zero row is an erased
// block, so a fresh column of rows needs no fill.
const (
	rowBits      = 10
	rowMask      = 1<<rowBits - 1
	rowValid     = 1            // one valid page
	rowInvalid   = 1 << rowBits // one invalid page
	rowNextShift = 2 * rowBits  // the high-water mark's place
)

// rowInfo widens a row to the BlockInfo that Block returns.
func rowInfo(r uint32) BlockInfo {
	return BlockInfo{Valid: int(r & rowMask), Invalid: int(r >> rowBits & rowMask), NextWrite: int(r >> rowNextShift)}
}

// Device is a simulated NAND flash SSD. It owns the page/block state machine
// and the resource timelines, and it charges time for every operation. It is
// not safe for concurrent use; the simulator is single-threaded per device,
// like the event loop of DiskSim.
type Device struct {
	geo    Geometry
	timing Timing

	pages  []uint32 // indexed by PPN: the page word, state and OOB tag in one
	blocks []uint32 // indexed by Geometry.BlockIndex: the block row

	planes   []*sim.Resource // cell arrays + data registers
	chipBus  []*sim.Resource // serial I/O bus shared by dies of one chip
	channels []*sim.Resource // external channels shared by packages

	// Derived geometry constants and per-plane bus lookups. The operation
	// path never divides: a page number splits into block and plane by the
	// reciprocals below (see recip), and an in-block offset's parity is the
	// page number's own (blocks start on multiples of an even PagesPerBlock).
	totalPages     int64
	pagesPerBlock  int64
	blocksPerPlane int64
	blockRecip     uint64          // recip(PagesPerBlock)
	planeRecip     uint64          // recip(PagesPerBlock * BlocksPerPlane)
	planeChip      []*sim.Resource // plane -> its chip's serial bus
	planeChannel   []*sim.Resource // plane -> its channel
	planeChanIdx   []int32         // plane -> channel index, for op attribution
	// Per-phase service times, fixed by timing and the page size.
	readLat, progLat, xferLat, cbLat, eraseLat sim.Duration

	stats Stats
	// wear counts each block's erases over the device's life (dense block
	// index). It is physical state, so ResetStats keeps it. Like pages and
	// blocks it is a column (NewColumn).
	wear []int32
	rec  obs.Recorder // nil when observability is disabled

	// untimed is set only inside Untimed: operations then change state
	// exactly as usual but occupy no timeline and count in no statistic.
	untimed bool
}

// NewDevice builds an erased device with the given geometry and timing.
func NewDevice(geo Geometry, timing Timing) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if geo.TotalPages() > maxPages {
		return nil, fmt.Errorf("flash: %w: %d pages, limit %d", ErrTooManyPages, geo.TotalPages(), int64(maxPages))
	}
	d := &Device{geo: geo, timing: timing}
	var err error
	if d.pages, err = NewColumn[uint32](geo.TotalPages()); err == nil {
		if d.blocks, err = NewColumn[uint32](geo.TotalBlocks()); err == nil {
			d.wear, err = NewColumn[int32](geo.TotalBlocks())
		}
	}
	if err != nil {
		d.Release()
		return nil, err
	}
	d.planes = make([]*sim.Resource, geo.Planes())
	for i := range d.planes {
		d.planes[i] = sim.NewResource("plane")
	}
	d.chipBus = make([]*sim.Resource, geo.Chips())
	for i := range d.chipBus {
		d.chipBus[i] = sim.NewResource("chipbus")
	}
	d.channels = make([]*sim.Resource, geo.Channels)
	for i := range d.channels {
		d.channels[i] = sim.NewResource("channel")
	}
	d.totalPages = geo.TotalPages()
	d.pagesPerBlock = int64(geo.PagesPerBlock)
	d.blocksPerPlane = int64(geo.BlocksPerPlane)
	d.blockRecip = recip(d.pagesPerBlock)
	d.planeRecip = recip(d.pagesPerBlock * d.blocksPerPlane)
	d.readLat, d.progLat, d.eraseLat = timing.PageRead, timing.PageProgram, timing.BlockErase
	d.xferLat, d.cbLat = timing.Transfer(geo.PageSize), timing.CopyBack()
	d.planeChip = make([]*sim.Resource, geo.Planes())
	d.planeChannel = make([]*sim.Resource, geo.Planes())
	d.planeChanIdx = make([]int32, geo.Planes())
	for p := range d.planeChip {
		d.planeChip[p] = d.chipBus[geo.ChipOfPlane(p)]
		d.planeChannel[p] = d.channels[geo.ChannelOfPlane(p)]
		d.planeChanIdx[p] = int32(geo.ChannelOfPlane(p))
	}
	d.stats.init(geo)
	return d, nil
}

// Release frees the device's columns (see NewColumn): its page words, block
// rows and erase counts. The device must not be used afterwards: a page or
// block operation then panics with an index error. Releasing again does
// nothing.
func (d *Device) Release() {
	FreeColumn(d.pages)
	FreeColumn(d.blocks)
	FreeColumn(d.wear)
	d.pages, d.blocks, d.wear = nil, nil, nil
}

// Geometry returns the device's physical shape.
func (d *Device) Geometry() Geometry { return d.geo }

// Timing returns the device's latency parameters.
func (d *Device) Timing() Timing { return d.timing }

// Stats returns a snapshot of accumulated operation statistics.
func (d *Device) Stats() Stats { return d.stats.clone() }

// BlockErases returns how many times each block (by Geometry.BlockIndex)
// has been erased over the device's life. It is the device's own column,
// not a copy: it changes as the device erases, and callers must not write
// it.
func (d *Device) BlockErases() []int32 { return d.wear }

// SetRecorder attaches (or, with nil, detaches) an observability recorder.
// Each flash operation then reports its kind, cause, location, and timestamps
// through it; when nil the only cost is one pointer check per operation.
func (d *Device) SetRecorder(r obs.Recorder) { d.rec = r }

// ChannelOfPlane returns the channel index serving a plane (cached form of
// Geometry.ChannelOfPlane, exported for observability wiring).
func (d *Device) ChannelOfPlane() []int32 { return d.planeChanIdx }

// BusyTimes reports cumulative busy time per plane, chip serial bus, and
// channel resource (the busy-time half of obs.DeviceTotals).
func (d *Device) BusyTimes() (planes, chipBus, channels []sim.Duration) {
	busy := func(rs []*sim.Resource) []sim.Duration {
		out := make([]sim.Duration, len(rs))
		for i, r := range rs {
			out[i] = r.BusyTime()
		}
		return out
	}
	return busy(d.planes), busy(d.chipBus), busy(d.channels)
}

// ResetStats zeroes all statistics and resource timelines while preserving
// page and block state. The SSD controller calls it after preconditioning so
// the measured run starts from a warmed device at simulated time zero.
func (d *Device) ResetStats() {
	for _, r := range d.planes {
		r.Reset()
	}
	for _, r := range d.chipBus {
		r.Reset()
	}
	for _, r := range d.channels {
		r.Reset()
	}
	d.stats.reset()
}

// Untimed runs fn with every device of devs untimed, and restores them to
// timed operation however fn returns. An untimed operation checks its pages
// and changes page and block state (wear included) exactly as a timed one
// does, so it fails with the same errors; but it occupies no plane, bus or
// channel timeline, counts in no statistic, reports nothing to a recorder,
// and completes at the time it was ready. Warm-ups whose timelines and
// statistics are reset afterwards (Controller.Precondition) use it to skip
// the timing model: no FTL decision reads a completion time, so the state
// they leave is the same either way.
func Untimed(devs []*Device, fn func() error) error {
	for _, d := range devs {
		d.untimed = true
	}
	defer func() {
		for _, d := range devs {
			d.untimed = false
		}
	}()
	return fn()
}

// PageState returns the state of a physical page.
func (d *Device) PageState(ppn PPN) PageState { return wordState(d.pages[ppn]) }

// PageLPN returns the logical page stored at ppn, or -1 if the page does not
// hold live data.
func (d *Device) PageLPN(ppn PPN) int64 { return wordTag(d.pages[ppn]) }

// Block returns a copy of the bookkeeping for one block.
func (d *Device) Block(pb PlaneBlock) BlockInfo { return rowInfo(d.blocks[d.geo.BlockIndex(pb)]) }

// validPPN reports whether ppn is within the device, against the cached
// page total.
func (d *Device) validPPN(ppn PPN) bool {
	return uint64(ppn) < uint64(d.totalPages)
}

// maxPages bounds the device so every LPN below its page count fits a data
// tag of the page word (maxDataTag+1 pages), which also keeps every page
// number under the 2^32 the reciprocal division is exact for and lets it fit
// a PPNMap entry as ppn+1. Host memory grows with the pages a run touches,
// not with this bound: a programmed physical page costs its 4-byte word, a
// mapped logical page 4 more in its FTL's PPNMap, and a page never written
// only address space.
const maxPages = maxDataTag + 1

// TransTagBase is the OOB tag of translation page 0: a translation page v
// is tagged TransTagBase+v, far above every data LPN (ftl.EncodeTrans).
const TransTagBase = int64(1) << 60

// The page word packs a physical page's state and its OOB tag into 32 bits.
// Zero is a free page, so a fresh column needs no fill and stays
// non-resident until written; wordInvalid is a stale or wasted page; every
// other word is a valid page holding its tag: data tag t as t+2 (below
// wordTrans), translation tag TransTagBase+v as wordTrans|v.
const (
	wordFree    = 0
	wordInvalid = 1
	wordTrans   = 1 << 31
	maxDataTag  = wordTrans - 3 // stored as wordTrans-1
	maxTransTag = wordTrans - 1 // the largest v of TransTagBase+v
)

// pageWord returns the word of a valid page holding tag, and false when no
// word can hold it.
func pageWord(tag int64) (uint32, bool) {
	switch {
	case uint64(tag) <= maxDataTag:
		return uint32(tag) + 2, true
	case uint64(tag-TransTagBase) <= maxTransTag:
		return wordTrans | uint32(tag-TransTagBase), true
	}
	return 0, false
}

// wordTag returns the OOB tag a page word holds, or -1 for a free or
// invalid page.
func wordTag(w uint32) int64 {
	switch {
	case w <= wordInvalid:
		return -1
	case w < wordTrans:
		return int64(w) - 2
	}
	return TransTagBase + int64(w&^wordTrans)
}

// wordState returns the state a page word encodes: PageValid above
// wordInvalid, and below it the word doubled (PageFree is 0, PageInvalid 2).
func wordState(w uint32) PageState {
	if w > wordInvalid {
		return PageValid
	}
	return PageState(2 * w)
}

// recip returns ceil(2^64 / d). For d >= 2 (Validate: PagesPerBlock is even)
// and n < 2^32 the high word of recip(d) * n is exactly n / d (Lemire &
// Kaser, "Faster remainders when the divisor is a constant").
func recip(d int64) uint64 { return ^uint64(0)/uint64(d) + 1 }

// PlaneOf returns the plane containing a physical page: Geometry.BlockOf's
// plane without the divisions.
func (d *Device) PlaneOf(ppn PPN) int {
	hi, _ := bits.Mul64(d.planeRecip, uint64(ppn))
	return int(hi)
}

// BlockOf is Geometry.BlockOf without the divisions.
func (d *Device) BlockOf(ppn PPN) PlaneBlock {
	plane := d.PlaneOf(ppn)
	return PlaneBlock{Plane: plane, Block: int(d.blockIndexOf(ppn) - int64(plane)*d.blocksPerPlane)}
}

// blockIndexOf collapses Geometry.BlockIndex(Geometry.BlockOf(ppn)).
func (d *Device) blockIndexOf(ppn PPN) int64 {
	hi, _ := bits.Mul64(d.blockRecip, uint64(ppn))
	return int64(hi)
}

// schedule places one operation's phases on the timelines of its plane and
// buses — the only place the device's timing model is written down
// (CopyBackRun's AcquireChain is a chain of the opCopyBack case by
// construction). It returns when the operation starts and when it completes.
// A read or write whose three timelines are all free by ready takes the
// closed form first: there every fit of the phase-by-phase switch below
// would answer the time it is asked, so the phases butt and the plane's two
// occupations coalesce (DESIGN §3.1, "Tail placement").
func (d *Device) schedule(kind opKind, plane int, ready sim.Time) (start, end sim.Time) {
	pl := d.planes[plane]
	if kind == opRead || kind == opWrite {
		chip, ch := d.planeChip[plane], d.planeChannel[plane]
		if ready >= pl.FreeAt() && ready >= chip.FreeAt() && ready >= ch.FreeAt() {
			if kind == opRead { // plane [r, r+read+xfer); buses [r+read, r+read+xfer)
				xfer := ready.Add(d.readLat)
				end = xfer.Add(d.xferLat)
				pl.OccupyTail(ready, d.readLat+d.xferLat)
				chip.OccupyTail(xfer, d.xferLat)
				ch.OccupyTail(xfer, d.xferLat)
			} else { // buses [r, r+xfer); plane [r, r+xfer+program)
				end = ready.Add(d.xferLat + d.progLat)
				chip.OccupyTail(ready, d.xferLat)
				ch.OccupyTail(ready, d.xferLat)
				pl.OccupyTail(ready, d.xferLat+d.progLat)
			}
			return ready, end
		}
	}
	switch kind {
	case opRead:
		// Cell array -> register occupies the plane alone. Register ->
		// controller occupies both buses; the plane's register is in use
		// until the transfer drains, so the plane stays busy too.
		var cellDone sim.Time
		start, cellDone = pl.Acquire(ready, d.readLat)
		_, end = sim.AcquireAll(cellDone, d.xferLat, d.planeChip[plane], d.planeChannel[plane], pl)
	case opWrite:
		// Controller -> register needs both buses and the plane register;
		// programming occupies the plane alone.
		var xferDone sim.Time
		start, xferDone = sim.AcquireAll(ready, d.xferLat, d.planeChip[plane], d.planeChannel[plane], pl)
		_, end = pl.Acquire(xferDone, d.progLat)
	case opCopyBack:
		start, end = pl.Acquire(ready, d.cbLat)
	case opErase:
		start, end = pl.Acquire(ready, d.eraseLat)
	}
	return start, end
}

// issue charges time for an operation the state machine has accepted and
// returns its completion time: the scheduled end, accounted and reported to
// the recorder. stored is the operation's obs.Op.Stored tag.
func (d *Device) issue(kind opKind, cause Cause, plane int, stored int64, ready sim.Time) sim.Time {
	if d.untimed {
		return ready
	}
	start, end := d.schedule(kind, plane, ready)
	d.stats.note(kind, cause, plane, 1)
	if d.rec != nil {
		d.rec.RecordOp(obs.Op{
			Kind: obs.OpKind(kind), Cause: obs.Cause(cause), Stored: stored,
			Plane: int32(plane), Channel: d.planeChanIdx[plane],
			Ready: ready, Start: start, End: end,
		})
	}
	return end
}

// ReadPage performs an external page read: the plane reads the cell array
// into its data register, then the page crosses the chip serial bus and the
// channel to the controller. It returns the completion time.
func (d *Device) ReadPage(ppn PPN, ready sim.Time, cause Cause) (sim.Time, error) {
	if !d.validPPN(ppn) || d.pages[ppn] <= wordInvalid {
		return 0, d.readErr(ppn)
	}
	var stored int64
	if d.rec != nil { // only the recorder wants the tag; skip the decode otherwise
		stored = wordTag(d.pages[ppn])
	}
	return d.issue(opRead, cause, d.PlaneOf(ppn), stored, ready), nil
}

// readErr is ReadPage's error for a page it refuses.
func (d *Device) readErr(ppn PPN) error {
	if !d.validPPN(ppn) {
		return fmt.Errorf("flash: read %w: ppn %d", ErrOutOfRange, ppn)
	}
	return fmt.Errorf("flash: read ppn %d (%v): %w, page is %v",
		ppn, d.BlockOf(ppn), ErrReadInvalid, d.PageState(ppn))
}

// WritePage programs a free page with the given logical page, its OOB tag:
// a data LPN up to maxDataTag or a translation tag (TransTagBase+v, v up to
// maxTransTag); any other tag fails with ErrTagRange and leaves the page
// free. The page crosses the channel and chip bus into the plane register,
// then the plane programs the cell array. It returns the completion time.
func (d *Device) WritePage(ppn PPN, lpn int64, ready sim.Time, cause Cause) (sim.Time, error) {
	if !d.validPPN(ppn) || d.pages[ppn] != wordFree {
		return 0, d.writeErr(ppn)
	}
	w, ok := pageWord(lpn)
	if !ok {
		return 0, fmt.Errorf("flash: write ppn %d tag %d: %w", ppn, lpn, ErrTagRange)
	}
	d.program(ppn, w)
	return d.issue(opWrite, cause, d.PlaneOf(ppn), lpn, ready), nil
}

// writeErr is WritePage's error for a page it refuses.
func (d *Device) writeErr(ppn PPN) error {
	if !d.validPPN(ppn) {
		return fmt.Errorf("flash: write %w: ppn %d", ErrOutOfRange, ppn)
	}
	return fmt.Errorf("flash: write ppn %d (%v): %w, page is %v",
		ppn, d.BlockOf(ppn), ErrWriteNotFree, d.PageState(ppn))
}

// MoveExternal relocates a valid page through the buses: ReadPage(src), then
// WritePage(dst) with src's OOB tag, then Invalidate(src) — the inter-plane
// page move of the paper's Fig. 2, read + transfer out + transfer in +
// program on idle timelines, against a copy-back's read + program. Both
// pages are checked before anything changes, so a move that fails returns
// ReadPage's or WritePage's error and leaves the device as it found it. It
// returns when the write completes.
func (d *Device) MoveExternal(src, dst PPN, ready sim.Time, cause Cause) (sim.Time, error) {
	if !d.validPPN(src) || d.pages[src] <= wordInvalid {
		return 0, d.readErr(src)
	}
	if !d.validPPN(dst) || d.pages[dst] != wordFree {
		return 0, d.writeErr(dst)
	}
	w := d.pages[src]
	lpn := wordTag(w)
	sp, dp := d.PlaneOf(src), d.PlaneOf(dst)
	d.program(dst, w)
	d.invalidate(src)
	t := d.issue(opRead, cause, sp, lpn, ready)
	return d.issue(opWrite, cause, dp, lpn, t), nil
}

// CopyBack moves a valid page to a free page on the same plane using the
// intra-plane copy-back (internal data move) command. It never touches the
// chip bus or the channel. The vendor restriction applies: source and
// destination in-block offsets must share parity, or ErrParity is returned.
// It is the copy-back run of length one.
func (d *Device) CopyBack(src, dst PPN, ready sim.Time, cause Cause) (sim.Time, error) {
	s, t := [1]PPN{src}, [1]PPN{dst}
	return d.CopyBackRun(s[:], t[:], ready, cause)
}

// CopyBackRun performs len(srcs) copy-backs chained in time — each ready
// when the one before completes — moving srcs[i] to dsts[i], all sources in
// one block and all destinations in one block of the same plane: what a
// collection does to a victim for as long as its destination block lasts.
// It returns the last completion time (ready for an empty run). Every page
// is checked as CopyBack checks it; block counters, statistics and the plane
// timeline are updated once. A run that fails at page i has performed pages
// [0, i), as i CopyBack calls would have, and returns when those complete.
func (d *Device) CopyBackRun(srcs, dsts []PPN, ready sim.Time, cause Cause) (sim.Time, error) {
	if len(srcs) != len(dsts) {
		return 0, fmt.Errorf("flash: copy-back run of %d sources to %d destinations: %w", len(srcs), len(dsts), ErrRunShape)
	}
	if len(srcs) == 0 {
		return ready, nil
	}
	if !d.validPPN(srcs[0]) || !d.validPPN(dsts[0]) {
		return 0, fmt.Errorf("flash: copy-back %w: src %d dst %d", ErrOutOfRange, srcs[0], dsts[0])
	}
	plane := d.PlaneOf(srcs[0])
	if plane != d.PlaneOf(dsts[0]) {
		return 0, fmt.Errorf("flash: copy-back src %v dst %v: %w",
			d.BlockOf(srcs[0]), d.BlockOf(dsts[0]), ErrCrossPlane)
	}
	sb, db := d.blockIndexOf(srcs[0]), d.blockIndexOf(dsts[0])
	sFirst, dFirst := PPN(sb*d.pagesPerBlock), PPN(db*d.pagesPerBlock)
	ppb := uint64(d.pagesPerBlock)
	var err error
	n, top := 0, dFirst-1 // pages moved; highest destination among them
	for ; n < len(srcs); n++ {
		src, dst := srcs[n], dsts[n]
		switch {
		case uint64(src-sFirst) >= ppb || uint64(dst-dFirst) >= ppb:
			err = fmt.Errorf("flash: copy-back run src %d dst %d leaves blocks %d, %d: %w", src, dst, sb, db, ErrRunShape)
		case (src^dst)&1 != 0:
			err = fmt.Errorf("flash: copy-back src page %d dst page %d: %w", src-sFirst, dst-dFirst, ErrParity)
		case d.pages[src] <= wordInvalid:
			err = fmt.Errorf("flash: copy-back src ppn %d: %w, page is %v", src, ErrReadInvalid, d.PageState(src))
		case d.pages[dst] != wordFree:
			err = fmt.Errorf("flash: copy-back dst ppn %d: %w, page is %v", dst, ErrWriteNotFree, d.PageState(dst))
		}
		if err != nil {
			break
		}
		d.pages[src], d.pages[dst] = wordInvalid, d.pages[src]
		top = max(top, dst)
	}
	d.blocks[sb] += uint32(n) * (rowInvalid - rowValid)
	d.blocks[db] += uint32(n) * rowValid
	d.raiseNextWrite(db, top)
	end := ready
	switch {
	case d.untimed:
	case d.rec != nil:
		// Op records are per operation: issue one by one.
		for _, dst := range dsts[:n] {
			end = d.issue(opCopyBack, cause, plane, wordTag(d.pages[dst]), end)
		}
	default:
		end = d.planes[plane].AcquireChain(ready, d.cbLat, n)
		d.stats.note(opCopyBack, cause, plane, int64(n))
	}
	return end, err
}

// Erase erases a whole block, returning every page to Free. The caller (the
// FTL's garbage collector) is responsible for having relocated valid pages;
// erasing a block that still holds valid data returns ErrEraseValid.
func (d *Device) Erase(pb PlaneBlock, ready sim.Time, cause Cause) (sim.Time, error) {
	if !d.geo.ValidBlock(pb) {
		return 0, fmt.Errorf("flash: erase %w: %v", ErrOutOfRange, pb)
	}
	bi := d.geo.BlockIndex(pb)
	if v := d.blocks[bi] & rowMask; v > 0 {
		return 0, fmt.Errorf("flash: erase %v: %w (%d valid pages)", pb, ErrEraseValid, v)
	}
	first := d.geo.FirstPPN(pb)
	clear(d.pages[first : first+PPN(d.pagesPerBlock)])
	d.blocks[bi] = 0
	d.wear[bi]++
	return d.issue(opErase, cause, pb.Plane, bi, ready), nil
}

// Invalidate marks a valid page stale without consuming simulated time; it
// models the metadata update an FTL performs when it supersedes a page.
func (d *Device) Invalidate(ppn PPN) error {
	if !d.validPPN(ppn) {
		return fmt.Errorf("flash: invalidate %w: ppn %d", ErrOutOfRange, ppn)
	}
	if d.pages[ppn] <= wordInvalid {
		return fmt.Errorf("flash: invalidate ppn %d: %w, page is %v", ppn, ErrReadInvalid, d.PageState(ppn))
	}
	d.invalidate(ppn)
	return nil
}

func (d *Device) invalidate(ppn PPN) {
	bi := d.blockIndexOf(ppn)
	d.pages[ppn] = wordInvalid
	d.blocks[bi] += rowInvalid - rowValid
}

// WastePage invalidates a free page without writing it. DLOOP uses it to
// skip a destination page whose parity does not match the source of a
// copy-back. It consumes no simulated time (it is pure FTL bookkeeping).
func (d *Device) WastePage(ppn PPN) error {
	if !d.validPPN(ppn) {
		return fmt.Errorf("flash: waste %w: ppn %d", ErrOutOfRange, ppn)
	}
	if d.pages[ppn] != wordFree {
		return fmt.Errorf("flash: waste ppn %d: %w, page is %v", ppn, ErrWriteNotFree, d.PageState(ppn))
	}
	bi := d.blockIndexOf(ppn)
	d.pages[ppn] = wordInvalid
	d.blocks[bi] += rowInvalid
	d.raiseNextWrite(bi, ppn)
	d.stats.WastedPages++
	return nil
}

// program stores a valid page's word w at the free page ppn.
func (d *Device) program(ppn PPN, w uint32) {
	bi := d.blockIndexOf(ppn)
	d.pages[ppn] = w
	d.blocks[bi] += rowValid
	d.raiseNextWrite(bi, ppn)
}

// raiseNextWrite lifts block bi's high-water mark past its page ppn.
func (d *Device) raiseNextWrite(bi int64, ppn PPN) {
	if p := uint32(int64(ppn)-bi*d.pagesPerBlock) + 1; p > d.blocks[bi]>>rowNextShift {
		d.blocks[bi] = d.blocks[bi]&(1<<rowNextShift-1) | p<<rowNextShift
	}
}
