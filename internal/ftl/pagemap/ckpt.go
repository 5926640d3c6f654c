package pagemap

import (
	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// EncodeState implements ftl.FTL: everything that changes as requests are
// served. Geometry, config, capacity, and the striping permutation are
// construction-time constants and stay out. An ideal layout writes its
// table where a demand-paged one writes the translation state; the write
// points follow as a counted list (one per plane when striped, DFTL's two
// logs, PureMap's one).
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
		w.Int(wp.next)
		w.Bool(wp.active)
	}
	f.engine.EncodeState(w)
}

// DecodeState implements ftl.FTL, overwriting the live state in place.
func (f *FTL) DecodeState(r *ckpt.Reader) {
	if f.mapper != nil {
		f.mapper.DecodeState(r)
	} else {
		f.table.DecodeState(r)
	}
	f.pool.DecodeState(r)
	f.tracker.DecodeState(r)
	n := r.ExpectLen(len(f.cur), 25) // three i64 and a bool each
	for i := range f.cur[:n] {
		wp := writePoint{pb: flash.PlaneBlock{Plane: r.Int(), Block: r.Int()}, next: r.Int(), active: r.Bool()}
		if wp.pb.Plane < 0 || wp.pb.Plane >= f.geo.Planes() || wp.pb.Block < 0 ||
			wp.pb.Block >= f.geo.BlocksPerPlane || wp.next < 0 || wp.next > f.geo.PagesPerBlock {
			r.Failf("pagemap: write point %d %+v is off the device", i, wp)
			return
		}
		f.cur[i] = wp
	}
	f.engine.DecodeState(r)
}
