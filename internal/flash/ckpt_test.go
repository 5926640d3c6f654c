package flash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/sim"
)

// columns locates a device encoding's page columns: the state byte of page
// i is at states+i and its tag at tags+8*i.
func columns(d *Device) (states, tags int) {
	n := int(d.Geometry().TotalPages())
	return 4, 4 + n + 4
}

// scriptedDevice returns a two-plane device of three 4-page blocks per plane
// holding every kind of page: valid data and translation pages, pages
// invalidated by a copy-back and by Invalidate, a wasted page, an erased
// block, and free pages. It is small so the fuzz target's inputs are.
func scriptedDevice(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice(Geometry{Channels: 1, PackagesPerChannel: 1, ChipsPerPackage: 1, DiesPerChip: 1,
		PlanesPerDie: 2, BlocksPerPlane: 3, PagesPerBlock: 4, PageSize: 2048}, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	var at sim.Time
	must := func(end sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	for p := 0; p < 4; p++ {
		must(d.WritePage(g.PPNOf(0, 0, p), int64(40+p), at, CauseHost))
	}
	must(d.WritePage(g.PPNOf(1, 0, 0), TransTagBase+3, at, CauseMap))
	must(d.CopyBack(g.PPNOf(0, 0, 0), g.PPNOf(0, 1, 0), at, CauseGC))
	if err := d.Invalidate(g.PPNOf(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.WastePage(g.PPNOf(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	must(d.WritePage(g.PPNOf(1, 1, 0), 9, at, CauseHost))
	if err := d.Invalidate(g.PPNOf(1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	must(d.Erase(PlaneBlock{1, 1}, at, CauseGC))
	return d
}

// TestDecodeStateRejectsInconsistentPages damages one page column of a sound
// device encoding per case: each is a state no sequence of device
// operations produces, and decoding it must fail with its typed error. The
// undamaged encoding decodes to the source's block rows, recounted from the
// pages, and re-encodes to the same bytes.
func TestDecodeStateRejectsInconsistentPages(t *testing.T) {
	src := scriptedDevice(t)
	good := stateBytes(src)
	g := src.Geometry()
	states, tags := columns(src)
	valid, free := int(g.PPNOf(0, 0, 2)), int(g.PPNOf(1, 2, 0))
	invalid, wasted := int(g.PPNOf(0, 0, 1)), int(g.PPNOf(0, 1, 1))
	setTag := func(b []byte, ppn int, tag int64) { binary.LittleEndian.PutUint64(b[tags+8*ppn:], uint64(tag)) }

	into, err := NewDevice(g, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(good)
	if into.DecodeState(r); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !bytes.Equal(stateBytes(into), good) {
		t.Fatal("a sound encoding did not re-encode to its bytes")
	}
	if !slices.Equal(into.blocks, src.blocks) {
		t.Fatalf("decoded block rows %+v, the source holds %+v", into.blocks, src.blocks)
	}
	for ppn, want := range map[int]PageState{valid: PageValid, free: PageFree, invalid: PageInvalid, wasted: PageInvalid} {
		if got := PageState(good[states+ppn]); got != want {
			t.Fatalf("page %d is %v, want %v: the script moved", ppn, got, want)
		}
	}

	for _, tc := range []struct {
		name   string
		damage func(b []byte)
		want   error
	}{
		{"valid page without a tag", func(b []byte) { setTag(b, valid, -1) }, ErrPageTag},
		{"free page with a tag", func(b []byte) { setTag(b, free, 7) }, ErrPageTag},
		{"invalid page with a tag", func(b []byte) { setTag(b, invalid, 41) }, ErrPageTag},
		{"data tag past the word", func(b []byte) { setTag(b, valid, maxDataTag+1) }, ErrTagRange},
		{"translation tag past the word", func(b []byte) { setTag(b, valid, TransTagBase+maxTransTag+1) }, ErrTagRange},
		{"negative tag", func(b []byte) { setTag(b, valid, -2) }, ErrTagRange},
		{"state byte beyond PageInvalid", func(b []byte) { b[states+free] = 3 }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Clone(good)
			tc.damage(bad)
			r := ckpt.NewReader(bad)
			into.DecodeState(r)
			if r.Err() == nil || tc.want != nil && !errors.Is(r.Err(), tc.want) {
				t.Fatalf("decode error %v, want %v", r.Err(), tc.want)
			}
		})
	}
}

// TestPageWordRoundTrip writes each boundary tag of the page word's two
// domains and reads it back through PageLPN, a recorder's Op.Stored (the
// write's, and the read's and copy-back's, which widen the stored word) and
// the checkpoint bytes, which must re-encode unchanged on a decoded twin.
func TestPageWordRoundTrip(t *testing.T) {
	d, err := NewDevice(runTestGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	rec := &countingRecorder{}
	d.SetRecorder(rec)
	g := d.Geometry()
	_, tagCol := columns(d)
	for i, tag := range []int64{0, maxDataTag, TransTagBase, TransTagBase + maxTransTag} {
		src, dst := g.PPNOf(i, 0, 0), g.PPNOf(i, 1, 0)
		if _, err := d.WritePage(src, tag, 0, CauseHost); err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if _, err := d.ReadPage(src, 0, CauseHost); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CopyBack(src, dst, 0, CauseGC); err != nil {
			t.Fatal(err)
		}
		for _, op := range rec.seen {
			if op.Stored != tag {
				t.Fatalf("tag %d: %v op recorded Stored %d", tag, op.Kind, op.Stored)
			}
		}
		rec.seen = rec.seen[:0]
		if got := d.PageLPN(dst); got != tag || d.PageLPN(src) != -1 {
			t.Fatalf("tag %d: PageLPN reads %d at the destination, %d at the source", tag, got, d.PageLPN(src))
		}
		data := stateBytes(d)
		if got := int64(binary.LittleEndian.Uint64(data[tagCol+8*int(dst):])); got != tag {
			t.Fatalf("tag %d: checkpoint holds %d", tag, got)
		}
		twin, err := NewDevice(g, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		r := ckpt.NewReader(data)
		if twin.DecodeState(r); r.Err() != nil {
			t.Fatalf("tag %d: %v", tag, r.Err())
		}
		if twin.PageLPN(dst) != tag || !bytes.Equal(stateBytes(twin), data) {
			t.Fatalf("tag %d: decoded twin reads %d or re-encodes differently", tag, twin.PageLPN(dst))
		}
	}
}

// TestWritePageTagRange: a tag just outside either domain of the page word,
// or the -1 of no tag, fails with ErrTagRange and leaves the page free.
func TestWritePageTagRange(t *testing.T) {
	d := newTestDevice(t)
	for _, tag := range []int64{-1, maxDataTag + 1, TransTagBase - 1, TransTagBase + maxTransTag + 1, -1 << 63} {
		if _, err := d.WritePage(3, tag, 0, CauseHost); !errors.Is(err, ErrTagRange) {
			t.Fatalf("tag %d: %v, want ErrTagRange", tag, err)
		}
		if d.PageState(3) != PageFree || d.Block(PlaneBlock{}) != (BlockInfo{}) {
			t.Fatalf("tag %d: the refused write changed the page", tag)
		}
	}
}

// TestDeviceBytesPerPage: the device keeps 4 bytes of page state per
// physical page on Table I's 64 GB geometry. The per-page cost is read off
// NewDevice's heap allocation on that geometry less its allocation on the
// same one with two-page blocks, which subtracts everything sized by
// blocks, planes or buses. A page column mapped outside the heap
// (NewColumn) allocates none; race builds check the heap column.
func TestDeviceBytesPerPage(t *testing.T) {
	geo := Geometry{Channels: 8, PackagesPerChannel: 4, ChipsPerPackage: 2, DiesPerChip: 2,
		PlanesPerDie: 2, BlocksPerPlane: 2110, PagesPerBlock: 64, PageSize: 2048}
	small := geo
	small.PagesPerBlock = 2
	alloc := func(g Geometry) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := NewDevice(g, DefaultTiming())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
		return after.TotalAlloc - before.TotalAlloc
	}
	pages := geo.TotalPages() - small.TotalPages()
	perPage := float64(alloc(geo)-alloc(small)) / float64(pages)
	if perPage > 4 {
		t.Fatalf("NewDevice allocates %.2f bytes per physical page, want at most 4", perPage)
	}
}

// FuzzDecodeDeviceState decodes arbitrary bytes into a built device. It must
// never panic, may allocate only in proportion to the bytes given, and any
// state it accepts must be one the device could hold: every valid page
// tagged within the word's domain and every other page untagged (PageLPN
// -1), every block row equal to a recount of its pages, and the accepted
// bytes re-encoding unchanged.
func FuzzDecodeDeviceState(f *testing.F) {
	scripted := scriptedDevice(f)
	d, err := NewDevice(scripted.Geometry(), DefaultTiming())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stateBytes(d))
	f.Add(stateBytes(scripted))
	_, tags := columns(d)
	tagless := stateBytes(scripted)
	binary.LittleEndian.PutUint64(tagless[tags+8*int(d.Geometry().PPNOf(0, 0, 2)):], ^uint64(0))
	f.Add(tagless)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var alloc uint64
		var accepted bool
		for try := 0; try < 3 && (try == 0 || alloc > 4*uint64(len(data))+4096); try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := ckpt.NewReader(data)
			d.DecodeState(r)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < alloc {
				alloc = n
			}
			accepted = r.Err() == nil
		}
		if alloc > 4*uint64(len(data))+4096 {
			t.Fatalf("allocated %d bytes decoding %d", alloc, len(data))
		}
		if !accepted {
			return
		}
		g := d.Geometry()
		for b := int64(0); b < g.TotalBlocks(); b++ {
			var want BlockInfo
			for off := 0; off < g.PagesPerBlock; off++ {
				p := PPN(b*int64(g.PagesPerBlock) + int64(off))
				st, tag := d.PageState(p), d.PageLPN(p)
				if _, ok := pageWord(tag); ok != (st == PageValid) {
					t.Fatalf("accepted page %d: %v with tag %d", p, st, tag)
				}
				switch st {
				case PageValid:
					want.Valid++
				case PageInvalid:
					want.Invalid++
				default:
					continue
				}
				want.NextWrite = off + 1
			}
			if info := rowInfo(d.blocks[b]); info != want {
				t.Fatalf("accepted block %d row %+v, its pages give %+v", b, info, want)
			}
		}
		if enc := stateBytes(d); !bytes.HasPrefix(data, enc) {
			t.Fatal("accepted state re-encodes to other bytes")
		}
	})
}
