package pagemap

import (
	"dloop/internal/ckpt"
	"dloop/internal/flash"
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
// active one's block cannot be a collection candidate.
func (f *FTL) DecodeState(r *ckpt.Reader) {
	if f.mapper != nil {
		f.mapper.DecodeState(r)
	} else {
		f.table.DecodeState(r)
	}
	f.pool.DecodeState(r)
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
}
