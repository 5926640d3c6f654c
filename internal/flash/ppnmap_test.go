package flash

import (
	"errors"
	"testing"

	"dloop/internal/ckpt"
)

func TestPPNMapZeroValueIsInvalid(t *testing.T) {
	m := make(PPNMap, 8)
	for i := int64(0); i < 8; i++ {
		if got := m.Get(i); got != InvalidPPN {
			t.Fatalf("fresh entry %d reads %d, want InvalidPPN", i, got)
		}
	}
	if m.Len() != 8 {
		t.Fatalf("Len = %d, want 8", m.Len())
	}
}

func TestPPNMapRoundTrip(t *testing.T) {
	m := make(PPNMap, 3)
	for _, ppn := range []PPN{0, 1, maxPages - 1, InvalidPPN} {
		m.Set(1, ppn)
		if got := m.Get(1); got != ppn {
			t.Fatalf("Set(%d) then Get = %d", ppn, got)
		}
		if m.Get(0) != InvalidPPN || m.Get(2) != InvalidPPN {
			t.Fatalf("Set(%d) leaked into a neighbour", ppn)
		}
	}
	// Copies are plain slice copies.
	m.Set(2, 7)
	c := append(PPNMap(nil), m...)
	m.Set(2, 9)
	if c.Get(2) != 7 {
		t.Fatalf("copy reads %d, want 7", c.Get(2))
	}
}

// TestNewDeviceRejectsUnmappablePages: every LPN of a device must fit a data
// tag of its page words, so the page count stops at maxPages = 2^31-2 (and
// every page fits a PPNMap entry as ppn+1). Page counts are even, so 2^31 —
// which the reciprocal addressing alone would admit — is the first one
// refused.
func TestNewDeviceRejectsUnmappablePages(t *testing.T) {
	geo := runTestGeometry()
	geo.BlocksPerPlane = 1 << 25 // 4 planes x 2^25 blocks x 16 pages = 2^31 pages
	if _, err := NewDevice(geo, DefaultTiming()); !errors.Is(err, ErrTooManyPages) {
		t.Fatalf("NewDevice with %d pages: %v, want ErrTooManyPages", geo.TotalPages(), err)
	}
}

// TestPPNMapCodec: the column encodes as int64 page numbers with -1 for
// absent entries, decodes back exactly over a column of its length, and
// rejects an entry no device could hold with ErrUnmappable.
func TestPPNMapCodec(t *testing.T) {
	m := make(PPNMap, 4)
	m.Set(1, 0)
	m.Set(3, maxPages-1)
	var w ckpt.Writer
	m.EncodeState(&w)
	var want ckpt.Writer
	want.U32(4)
	for _, v := range []int64{-1, 0, -1, maxPages - 1} {
		want.I64(v)
	}
	if string(w.Bytes()) != string(want.Bytes()) {
		t.Fatalf("encoded %x, want %x", w.Bytes(), want.Bytes())
	}
	got := PPNMap{7, 7, 7, 7}
	r := ckpt.NewReader(w.Bytes())
	got.DecodeState(r)
	if r.Err() != nil || got.Get(0) != InvalidPPN || got.Get(1) != 0 || got.Get(2) != InvalidPPN || got.Get(3) != maxPages-1 {
		t.Fatalf("decoded %v, %v", got, r.Err())
	}

	for _, bad := range []int64{maxPages, -2} {
		var b ckpt.Writer
		b.U32(1)
		b.I64(bad)
		r := ckpt.NewReader(b.Bytes())
		if make(PPNMap, 1).DecodeState(r); !errors.Is(r.Err(), ErrUnmappable) {
			t.Fatalf("entry %d: error %v, want ErrUnmappable", bad, r.Err())
		}
	}
}

// TestDeviceTagsZeroIsAbsent: a zero page word is a free page, so an
// untouched page reads -1, as do invalidated and erased ones, and every tag
// written — a translation page's 1<<60 bias included — reads back unchanged.
func TestDeviceTagsZeroIsAbsent(t *testing.T) {
	d, err := NewDevice(runTestGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PageLPN(0); got != -1 {
		t.Fatalf("fresh page tag %d, want -1", got)
	}
	const trans = 1<<60 | 3
	for ppn, tag := range []int64{5, trans} {
		if _, err := d.WritePage(PPN(ppn), tag, 0, CauseHost); err != nil {
			t.Fatal(err)
		}
		if got := d.PageLPN(PPN(ppn)); got != tag {
			t.Fatalf("page %d tag %d, want %d", ppn, got, tag)
		}
	}
	if _, err := d.CopyBack(1, 3, 0, CauseGC); err != nil {
		t.Fatal(err)
	}
	if d.PageLPN(1) != -1 || d.PageLPN(3) != trans {
		t.Fatalf("after copy-back: src tag %d, dst tag %d", d.PageLPN(1), d.PageLPN(3))
	}
	if err := d.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(3); err != nil {
		t.Fatal(err)
	}
	if d.PageLPN(0) != -1 || d.PageLPN(3) != -1 {
		t.Fatal("invalidated pages keep their tags")
	}
	if _, err := d.Erase(PlaneBlock{}, 0, CauseGC); err != nil {
		t.Fatal(err)
	}
	for p := PPN(0); p < 4; p++ {
		if d.PageLPN(p) != -1 {
			t.Fatalf("erased page %d tag %d", p, d.PageLPN(p))
		}
	}
}
