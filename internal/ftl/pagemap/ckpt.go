package pagemap

import (
	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
)

// EncodeState implements ftl.FTL: everything that changes as requests are
// served and the device's page words do not determine. Geometry, config,
// capacity, and the striping permutation are construction-time constants
// and stay out. An ideal layout writes its table where a demand-paged one
// writes the translation state; the write points follow as a counted list
// (one per plane when striped, DFTL's two logs, PureMap's one) of their
// blocks, without their cursors: a write point's next page is its block's
// high-water mark on the device.
func (f *FTL) EncodeState(w *ckpt.Writer) {
	if f.mapper != nil {
		f.mapper.EncodeState(w)
	} else {
		f.table.EncodeState(w)
	}
	f.pool.EncodeState(w)
	f.tracker.EncodeState(w)
	w.U32(uint32(len(f.cur)))
	for _, wp := range f.cur {
		w.Int(wp.pb.Plane)
		w.Int(wp.pb.Block)
		w.Bool(wp.active)
	}
	f.engine.EncodeState(w)
}

// DecodeState implements ftl.FTL, overwriting the live state in place. The
// device must be decoded first. A write point must lie on the device, and an
// active one's block cannot be a collection candidate. The mapping table and
// GTD must agree with the page tags (checkMapping). The counts the
// checkpoint does not carry restart from zero.
func (f *FTL) DecodeState(r *ckpt.Reader) {
	f.counts = obs.Counts{}
	if f.mapper != nil {
		f.mapper.DecodeState(r)
	} else {
		f.table.DecodeState(r)
	}
	f.pool.DecodeState(r, f.dev)
	f.tracker.DecodeState(r)
	n := r.ExpectLen(len(f.cur), 17) // two i64 and a bool each
	for i := range f.cur[:n] {
		pb := flash.PlaneBlock{Plane: r.Int(), Block: r.Int()}
		active := r.Bool()
		switch {
		case r.Err() != nil:
			return
		case !f.geo.ValidBlock(pb):
			r.Failf("pagemap: write point %d %+v is off the device", i, pb)
			return
		case active && f.tracker.Candidate(pb):
			r.Failf("pagemap: write point %d %+v is a collection candidate", i, pb)
			return
		}
		f.cur[i] = writePoint{pb: pb, next: f.dev.Block(pb).NextWrite, active: active}
	}
	f.engine.DecodeState(r)
	if r.Err() == nil {
		f.checkMapping(r)
	}
}

// checkMapping checks the decoded table and GTD against the page tags in one
// pass over the page words: every valid data page tagged l is where the
// table maps l, every valid translation page tagged v is where the GTD maps
// v, and the table and GTD map exactly as many entries as there are such
// pages, so none maps a page that does not hold it. A demand-paged table is
// read through ppn, which sees past the CMT's tagged words.
func (f *FTL) checkMapping(r *ckpt.Reader) {
	var gtd flash.PPNMap
	if f.mapper != nil {
		gtd = f.mapper.GTD
	}
	var data, trans int
	for ppn, end := flash.PPN(0), flash.PPN(f.geo.TotalPages()); ppn < end; ppn++ {
		switch tag := f.dev.PageLPN(ppn); {
		case tag < 0:
		case ftl.IsTrans(tag):
			if v := ftl.DecodeTrans(tag); v >= int64(gtd.Len()) || gtd.Get(v) != ppn {
				r.Failf("pagemap: translation page %d is valid at ppn %d, which the GTD does not map it to", v, ppn)
				return
			}
			trans++
		case tag >= int64(f.capacity) || f.ppn(ftl.LPN(tag)) != ppn:
			r.Failf("pagemap: lpn %d is valid at ppn %d, which the table does not map it to", tag, ppn)
			return
		default:
			data++
		}
	}
	mapped, tps := 0, 0
	for lpn := ftl.LPN(0); lpn < f.capacity; lpn++ {
		if f.ppn(lpn) != flash.InvalidPPN {
			mapped++
		}
	}
	for v := range gtd.Len() {
		if gtd.Get(int64(v)) != flash.InvalidPPN {
			tps++
		}
	}
	if mapped != data || tps != trans {
		r.Failf("pagemap: the table maps %d pages and the GTD %d, the device holds %d valid data and %d translation pages", mapped, tps, data, trans)
	}
}
