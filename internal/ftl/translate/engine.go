package translate

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// Config assembles a translation engine for one page-mapping FTL.
type Config struct {
	// Dev is the flash device translation traffic is charged against.
	Dev *flash.Device
	// Placer supplies destination pages for translation-page programs (the
	// owning scheme: DLOOP stripes by plane, DFTL appends to a global write
	// point).
	Placer ftl.Placer
	// Tracker receives invalidation bookkeeping for superseded translation
	// pages.
	Tracker *ftl.Tracker
	// Capacity is the exported logical-page count.
	Capacity ftl.LPN
	// CMTEntries sizes the SRAM mapping cache.
	CMTEntries int
	// Policy selects the translation policy (default PolicySLRU).
	Policy Policy
	// StrideHint is the scheme's striping period — the LPN distance between
	// logical pages placed on the same plane (DLOOP: #planes, DFTL: 1; 0 is
	// treated as 1). The learned index trains one residue class at a time so
	// its segments follow the placement rule.
	StrideHint int
}

// Engine implements the demand-paged page-level mapping shared by DLOOP and
// DFTL (§II.A, §III.D): the full table lives in flash as translation pages,
// located through the in-SRAM GTD; hot entries are cached in the Cache (the
// CMT). The learned policy additionally predicts PPNs for regularly-placed
// ranges so verified predictions skip the translation read (see learned.go).
//
// The table (read through PPN) is authoritative for simulation correctness;
// the cache/GTD machinery exists to charge the flash traffic that a real
// controller's SRAM miss would cost.
type Engine struct {
	dev    *flash.Device
	placer ftl.Placer

	table flash.PPNMap // lpn -> current ppn, InvalidPPN if never written; read through Cache.word
	Cache *Cache
	GTD   flash.PPNMap // tvpn -> ppn of its translation page, InvalidPPN if never persisted

	entriesPerTP int
	tracker      *ftl.Tracker  // invalidation bookkeeping for superseded translation pages
	li           *learnedIndex // non-nil only under PolicyLearned

	// counts is the owning FTL's occurrence counters: CMT hits, misses,
	// evictions and write-backs, translation reads and writes, learned hits.
	counts *obs.Counts
}

// NewEngine builds a translation engine that counts into counts.
// Translation pages pack PageSize/8 entries (8 bytes per mapping entry, the
// figure DFTL uses).
func NewEngine(cfg Config, counts *obs.Counts) (*Engine, error) {
	per := cfg.Dev.Geometry().PageSize / 8
	if per < 1 {
		return nil, fmt.Errorf("translate: page size %d too small for translation entries", cfg.Dev.Geometry().PageSize)
	}
	nTP := (int64(cfg.Capacity) + int64(per) - 1) / int64(per)
	table, err := flash.NewColumn[uint32](int64(cfg.Capacity))
	if err != nil {
		return nil, err
	}
	cache, err := NewCacheForSpace(cfg.CMTEntries, per, table, int(nTP))
	if err != nil {
		flash.FreeColumn(table)
		return nil, err
	}
	m := &Engine{
		dev:          cfg.Dev,
		placer:       cfg.Placer,
		table:        table,
		Cache:        cache,
		GTD:          make(flash.PPNMap, nTP),
		entriesPerTP: per,
		tracker:      cfg.Tracker,
		counts:       counts,
	}
	if cfg.Policy == PolicyLearned {
		m.li = newLearnedIndex(int(nTP), cfg.StrideHint)
	}
	return m, nil
}

// Release frees the mapping table (see flash.NewColumn), which the engine
// and its cache both drop. The engine must not be used afterwards: a lookup
// then panics with an index error. Releasing again does nothing.
func (m *Engine) Release() {
	flash.FreeColumn(m.table)
	m.table, m.Cache.table = nil, nil
}

// PPN returns lpn's current physical page, or InvalidPPN if it was never
// written. The word holds ppn+1, as a flash.PPNMap entry does.
func (m *Engine) PPN(lpn ftl.LPN) flash.PPN { return flash.PPN(*m.Cache.word(lpn)) - 1 }

// setPPN points lpn at ppn, storing ppn+1 as flash.PPNMap.Set does.
func (m *Engine) setPPN(lpn ftl.LPN, ppn flash.PPN) { *m.Cache.word(lpn) = uint32(ppn + 1) }

// TVPN returns the translation-page number covering lpn.
func (m *Engine) TVPN(lpn ftl.LPN) int64 { return int64(lpn) / int64(m.entriesPerTP) }

// TranslationPages returns the number of translation pages in the GTD.
func (m *Engine) TranslationPages() int { return m.GTD.Len() }

// LearnedSegments reports the live learned-segment count (0 unless the
// learned policy is active).
func (m *Engine) LearnedSegments() int {
	if m.li == nil {
		return 0
	}
	return m.li.segments()
}

// Resolve ensures lpn's mapping is present in the cache, charging any
// translation-page traffic a miss incurs (dirty-victim write-back, then
// fetch). Under the learned policy a correct, OOB-verified prediction makes
// the fetch free. It returns the time address translation completes.
func (m *Engine) Resolve(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if m.Cache.Get(lpn) {
		m.counts[obs.EvCMTHit]++
		return ready, nil
	}
	m.counts[obs.EvCMTMiss]++
	t := ready
	victim, evicted := m.Cache.Insert(lpn)
	if evicted {
		m.counts[obs.EvCMTEvict]++
		if victim.Dirty {
			var err error
			t, err = m.writeBack(victim.LPN, t)
			if err != nil {
				return 0, err
			}
			m.counts[obs.EvCMTWriteback]++
		}
	}
	// Fetch the mapping from its translation page, if one has ever been
	// persisted; a never-written region costs nothing.
	tvpn := m.TVPN(lpn)
	if tp := m.GTD.Get(tvpn); tp != flash.InvalidPPN {
		if m.li != nil {
			var skip bool
			var err error
			skip, t, err = m.tryLearned(tvpn, lpn, t)
			if err != nil {
				return 0, err
			}
			if skip {
				return t, nil
			}
		}
		end, err := m.dev.ReadPage(tp, t, flash.CauseMap)
		if err != nil {
			return 0, err
		}
		m.counts[obs.EvTransRead]++
		t = end
	}
	return t, nil
}

// tryLearned consults the learned index for a missed mapping. A prediction
// matching the authoritative table is what a real controller observes when
// the predicted page's OOB tag names the wanted LPN: the mapping is
// confirmed without touching the translation page, so the fetch is skipped.
// A refuted prediction charges the wasted verification read (when the
// predicted page is physically readable) and falls back to the normal fetch,
// dropping the stale segment.
func (m *Engine) tryLearned(tvpn int64, lpn ftl.LPN, t sim.Time) (skip bool, _ sim.Time, _ error) {
	pred, ok := m.li.predict(tvpn, lpn)
	if !ok {
		return false, t, nil
	}
	if pred == m.PPN(lpn) {
		m.counts[obs.EvLearnedHit]++
		return true, t, nil
	}
	m.li.invalidate(tvpn, lpn)
	if pred >= 0 && int64(pred) < m.dev.Geometry().TotalPages() && m.dev.PageState(pred) == flash.PageValid {
		end, err := m.dev.ReadPage(pred, t, flash.CauseMap)
		if err != nil {
			return false, 0, err
		}
		t = end
	}
	return false, t, nil
}

// writeBack performs the read-modify-write of the translation page covering
// lpn (§III.D lines 7-9: consult the GTD, read, update, re-write to a new
// physical location, update the GTD). The rewrite persists the current
// authoritative table, so it also absorbs any lazy GC redirects and batched
// dirty mappings covering the same page. Under the learned policy the
// persisted span is also the training set: the page's segments refit here.
func (m *Engine) writeBack(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	tvpn := m.TVPN(lpn)
	t := ready
	old := m.GTD.Get(tvpn)
	if old != flash.InvalidPPN {
		end, err := m.dev.ReadPage(old, t, flash.CauseMap)
		if err != nil {
			return 0, err
		}
		m.counts[obs.EvTransRead]++
		t = end
	}
	ppn, t, err := m.placer.PlacePage(ftl.EncodeTrans(tvpn), t)
	if err != nil {
		return 0, err
	}
	// Placement may have garbage-collected the plane and relocated (or
	// erased the block of) the very translation page we are superseding;
	// re-read its location before invalidating.
	old = m.GTD.Get(tvpn)
	end, err := m.dev.WritePage(ppn, ftl.EncodeTrans(tvpn), t, flash.CauseMap)
	if err != nil {
		return 0, err
	}
	m.counts[obs.EvTransWrite]++
	if old != flash.InvalidPPN {
		if err := m.dev.Invalidate(old); err != nil {
			return 0, err
		}
		m.tracker.Invalidated(m.dev.BlockOf(old))
	}
	m.GTD.Set(tvpn, ppn)
	// DFTL's batch update: the rewrite persisted every cached dirty mapping
	// of this translation page, so clean them all.
	m.Cache.CleanPage(tvpn)
	if m.li != nil {
		lo := ftl.LPN(tvpn) * ftl.LPN(m.entriesPerTP)
		hi := lo + ftl.LPN(m.entriesPerTP)
		if hi > ftl.LPN(m.table.Len()) {
			hi = ftl.LPN(m.table.Len())
		}
		m.li.train(tvpn, lo, hi, m.PPN)
	}
	return end, nil
}

// RecordWrite commits a host write: the table points at newPPN and the cache
// entry (present after Resolve) becomes dirty. The superseded page, if any,
// is invalidated. It returns the old physical page or InvalidPPN.
func (m *Engine) RecordWrite(lpn ftl.LPN, newPPN flash.PPN) (flash.PPN, error) {
	old := m.PPN(lpn)
	m.setPPN(lpn, newPPN)
	if !m.Cache.Update(lpn) {
		return flash.InvalidPPN, fmt.Errorf("translate: RecordWrite of unresolved lpn %d", lpn)
	}
	if m.li != nil {
		// A random overwrite breaks the progression its segment learned;
		// drop it rather than letting it mispredict until retraining.
		m.li.invalidate(m.TVPN(lpn), lpn)
	}
	if old != flash.InvalidPPN {
		if err := m.dev.Invalidate(old); err != nil {
			return flash.InvalidPPN, err
		}
		m.tracker.Invalidated(m.dev.BlockOf(old))
	}
	return old, nil
}

// RedirectMoved updates mappings after garbage collection relocated pages.
// Relocated translation pages repoint the GTD; data pages whose mapping is
// cached mark it dirty (flushed at eviction). Uncached
// data pages update only the in-SRAM table: their on-flash translation page
// goes stale until its next write-back rewrites it wholesale. This is the
// lazy, OOB-backed scheme real controllers use — every physical page carries
// its logical number in the spare area (the device model stores it), so a
// stale translation entry is recoverable and need not be rewritten per move.
// Rewriting translation pages per GC move instead creates a feedback loop
// with gain above one (each move spawns a translation write, which consumes
// a page, which forces more GC) that collapses every configuration under
// sustained collection.
func (m *Engine) RedirectMoved(moved []ftl.Moved, ready sim.Time) (sim.Time, error) {
	for _, mv := range moved {
		if ftl.IsTrans(mv.Stored) {
			m.GTD.Set(ftl.DecodeTrans(mv.Stored), mv.New)
			continue
		}
		lpn := ftl.LPN(mv.Stored)
		m.setPPN(lpn, mv.New)
		if m.li != nil {
			// The relocation moved the page off its learned progression.
			m.li.invalidate(m.TVPN(lpn), lpn)
		}
		m.Cache.Update(lpn)
	}
	return ready, nil
}

// AdoptState installs a recovered table and GTD into the engine. The cache
// starts cold, as SRAM is lost at power-off: a new one replaces it over the
// adopted table. Learned segments are dropped too — they retrain lazily as
// translation-page write-backs resume.
func (m *Engine) AdoptState(table, gtd flash.PPNMap) error {
	if len(table) != len(m.table) || len(gtd) != len(m.GTD) {
		return fmt.Errorf("translate: recovered state shape %d/%d does not match engine %d/%d",
			len(table), len(gtd), len(m.table), len(m.GTD))
	}
	cache, err := NewCacheForSpace(m.Cache.capacity, m.entriesPerTP, m.table, len(m.GTD))
	if err != nil {
		return err
	}
	copy(m.table, table)
	m.Cache = cache
	copy(m.GTD, gtd)
	if m.li != nil {
		m.li.reset()
	}
	return nil
}
