package flash

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/sim"
)

// EncodeState appends the device's mutable state to w. The big columns go
// out as contiguous length-prefixed slabs: the page words widened into a
// state byte per page and an int64 OOB tag per page (-1 for none); the
// resource timelines follow per unit, then the statistics. The block rows
// are not written: the page words determine them, and DecodeState recounts
// them.
func (d *Device) EncodeState(w *ckpt.Writer) {
	n := len(d.pages)
	w.U32(uint32(n))
	states := w.Raw(n)
	for i, pw := range d.pages {
		states[i] = byte(wordState(pw))
	}
	w.U32(uint32(n))
	dst := w.Raw(8 * n)
	var buf [256]uint64
	for i := 0; i < n; i += len(buf) {
		chunk := buf[:min(len(buf), n-i)]
		for j, pw := range d.pages[i : i+len(chunk)] {
			chunk[j] = uint64(wordTag(pw))
		}
		ckpt.Store(dst[8*i:], chunk)
	}
	for _, rs := range [][]*sim.Resource{d.planes, d.chipBus, d.channels} {
		w.U32(uint32(len(rs)))
		for _, r := range rs {
			r.EncodeState(w)
		}
	}
	s := &d.stats
	for op := opKind(0); op < numOps; op++ {
		for c := Cause(0); c < numCauses; c++ {
			w.I64(s.ops[op][c])
		}
	}
	w.U32(uint32(len(s.PlaneOps)))
	for _, p := range s.PlaneOps {
		for c := Cause(0); c < numCauses; c++ {
			w.I64(p[c])
		}
	}
	w.I32s(d.wear)
	w.I64(s.WastedPages)
}

// DecodeState overwrites the device's mutable state with one EncodeState
// wrote, reusing the live columns and writing only the entries that change,
// so a fresh device takes on a checkpoint's state without touching the
// pages of its columns that the state leaves zero. Every column must have
// the length the device's geometry gives it, and every page's state and tag
// must agree (a valid page holds a tag a page word can hold, a free or
// invalid one none).
// The block rows are recounted from the decoded pages. On any failure r
// holds the error and the device is partly overwritten.
func (d *Device) DecodeState(r *ckpt.Reader) {
	states := r.Raw(r.ExpectLen(len(d.pages), 1))
	tags := r.Raw(8 * r.ExpectLen(len(d.pages), 8))
	if r.Err() != nil {
		return
	}
	var buf [256]uint64
	for i := 0; i < len(states); i += len(buf) {
		chunk := buf[:min(len(buf), len(states)-i)]
		ckpt.Load(chunk, tags[8*i:])
		for j, v := range chunk {
			w, err := decodeWord(PageState(states[i+j]), int64(v))
			if err != nil {
				r.Failf("flash: page %d: %w", i+j, err)
				return
			}
			if d.pages[i+j] != w {
				d.pages[i+j] = w
			}
		}
	}
	for i, row := range d.blocks {
		if b := d.blockRow(int64(i)); b != row {
			d.blocks[i] = b
		}
	}
	for _, rs := range [][]*sim.Resource{d.planes, d.chipBus, d.channels} {
		r.ExpectLen(len(rs), 20) // an idle resource's encoding: two i64 and a count
		for _, res := range rs {
			if r.Err() != nil {
				return
			}
			res.DecodeState(r)
		}
	}
	s := &d.stats
	for op := opKind(0); op < numOps; op++ {
		for c := Cause(0); c < numCauses; c++ {
			s.ops[op][c] = r.I64()
		}
	}
	r.ExpectLen(len(s.PlaneOps), 8*int(numCauses))
	for i := range s.PlaneOps {
		for c := Cause(0); c < numCauses; c++ {
			s.PlaneOps[i][c] = r.I64()
		}
	}
	wear := r.Raw(4 * r.ExpectLen(len(d.wear), 4))
	var wbuf [256]int32
	for i := 0; i < len(wear)/4; i += len(wbuf) {
		chunk := wbuf[:min(len(wbuf), len(wear)/4-i)]
		ckpt.Load(chunk, wear[4*i:])
		for j, v := range chunk {
			if d.wear[i+j] != v {
				d.wear[i+j] = v
			}
		}
	}
	s.WastedPages = r.I64()
}

// decodeWord returns the page word of a decoded page's state and tag.
func decodeWord(s PageState, tag int64) (uint32, error) {
	switch s {
	case PageValid:
		if tag == -1 {
			return 0, fmt.Errorf("valid page without a tag: %w", ErrPageTag)
		}
		w, ok := pageWord(tag)
		if !ok {
			return 0, fmt.Errorf("valid page tag %d: %w", tag, ErrTagRange)
		}
		return w, nil
	case PageFree, PageInvalid:
		if tag != -1 {
			return 0, fmt.Errorf("%v page with tag %d: %w", s, tag, ErrPageTag)
		}
		if s == PageFree {
			return wordFree, nil
		}
		return wordInvalid, nil
	}
	return 0, fmt.Errorf("state %d is no page state", uint8(s))
}

// blockRow recounts block bi's row from its page words.
func (d *Device) blockRow(bi int64) uint32 {
	var b uint32
	first := bi * d.pagesPerBlock
	for off, w := range d.pages[first : first+d.pagesPerBlock] {
		switch w {
		case wordFree:
			continue
		case wordInvalid:
			b += rowInvalid
		default:
			b += rowValid
		}
		b = b&(1<<rowNextShift-1) | uint32(off+1)<<rowNextShift
	}
	return b
}
