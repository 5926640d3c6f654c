package pagemap

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// NewRecovered builds a page-mapping FTL from an existing device's state by
// scanning the out-of-band page tags, the way a controller rebuilds its
// mapping after power loss. The CMT starts cold. Partially-written blocks
// resume as write points: their plane's on a striped layout, where a plane
// holds at most one. A global layout keeps one log, or DFTL's two (data and
// translation); recovery cannot tell from page state alone which partial
// block served which role, so it resumes them in scan order — both roles
// only append, so the assignment does not affect correctness.
func NewRecovered(dev *flash.Device, cfg Config) (*FTL, error) {
	f, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	if err := f.recover(); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// recover fills a fresh FTL from the scan.
func (f *FTL) recover() error {
	transPages := 0
	if f.mapper != nil {
		transPages = f.mapper.TranslationPages()
	}
	st, err := ftl.ScanOOB(f.dev, f.capacity, transPages, f.pool, f.tracker)
	if err != nil {
		return err
	}
	defer st.Release()
	if f.mapper != nil {
		if err := f.mapper.AdoptState(st.Table, st.GTD); err != nil {
			return err
		}
	} else {
		copy(f.table, st.Table)
	}
	if f.perm == nil && len(st.Partial) > len(f.cur) { // one per log
		return fmt.Errorf("pagemap: recovery found %d partial blocks, want at most %d", len(st.Partial), len(f.cur))
	}
	for i, p := range st.Partial {
		slot := i
		if f.perm != nil {
			slot = p.PB.Plane
		}
		wp := &f.cur[slot]
		if wp.active {
			return fmt.Errorf("pagemap: recovery found two partial blocks on plane %d", slot)
		}
		wp.pb, wp.next, wp.active = p.PB, p.NextWrite, true
	}
	return nil
}
