package translate

import (
	"bytes"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 1, PlanesPerDie: 2, BlocksPerPlane: 8,
		PagesPerBlock: 4, PageSize: 2048,
	}
}

// seqPlacer hands out every physical page in order — a minimal Placer for
// exercising the engine without garbage collection.
type seqPlacer struct {
	dev  *flash.Device
	next flash.PPN
}

func (p *seqPlacer) PlacePage(stored int64, ready sim.Time) (flash.PPN, sim.Time, error) {
	ppn := p.next
	p.next++
	return ppn, ready, nil
}

// splitPlacer keeps DFTL-style twin write points: data pages ascend from 0,
// translation pages from a block-aligned region above them. Data PPNs then
// advance in lockstep with LPNs, the progression the learned index exists to
// capture.
type splitPlacer struct {
	data, trans flash.PPN
}

func (p *splitPlacer) PlacePage(stored int64, ready sim.Time) (flash.PPN, sim.Time, error) {
	if ftl.IsTrans(stored) {
		ppn := p.trans
		p.trans++
		return ppn, ready, nil
	}
	ppn := p.data
	p.data++
	return ppn, ready, nil
}

func newLearnedTestEngine(t *testing.T, cmtEntries int) (*Engine, *flash.Device, *splitPlacer) {
	t.Helper()
	dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	placer := &splitPlacer{trans: 128} // block-aligned, beyond the data span
	tr := newTracker(t, dev)
	m, err := NewEngine(Config{
		Dev: dev, Placer: placer, Tracker: tr,
		Capacity: 64, CMTEntries: cmtEntries, Policy: PolicyLearned,
		StrideHint: 1,
	}, new(obs.Counts))
	if err != nil {
		t.Fatal(err)
	}
	return m, dev, placer
}

// newTracker returns a tracker of dev, released when the test ends.
func newTracker(tb testing.TB, dev *flash.Device) *ftl.Tracker {
	tb.Helper()
	tr, err := ftl.NewTracker(dev)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tr.Release)
	return tr
}

func newTestEngine(t *testing.T, cmtEntries int, policy Policy) (*Engine, *flash.Device, *seqPlacer) {
	t.Helper()
	dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	placer := &seqPlacer{dev: dev}
	tr := newTracker(t, dev)
	m, err := NewEngine(Config{
		Dev: dev, Placer: placer, Tracker: tr,
		Capacity: 64, CMTEntries: cmtEntries, Policy: policy,
		StrideHint: 1,
	}, new(obs.Counts))
	if err != nil {
		t.Fatal(err)
	}
	return m, dev, placer
}

func TestEngineGeometryDerived(t *testing.T) {
	m, _, _ := newTestEngine(t, 8, PolicySLRU)
	if m.EntriesPerTP() != 2048/8 {
		t.Fatalf("EntriesPerTP = %d", m.EntriesPerTP())
	}
	if m.TranslationPages() != 1 { // 64 lpns fit one 256-entry page
		t.Fatalf("TranslationPages = %d", m.TranslationPages())
	}
	if m.TVPN(0) != 0 || m.TVPN(63) != 0 {
		t.Fatal("TVPN wrong")
	}
	if m.li != nil {
		t.Fatal("an SLRU engine built a learned index")
	}
}

func TestEngineResolveMissIsFreeWhenNothingPersisted(t *testing.T) {
	for _, policy := range []Policy{PolicySLRU, PolicyLearned} {
		m, _, _ := newTestEngine(t, 8, policy)
		end, err := m.Resolve(5, 100)
		if err != nil {
			t.Fatal(err)
		}
		if end != 100 {
			t.Fatalf("%v: unpersisted miss cost time: %v", policy, end)
		}
		// Now cached: a second resolve is also free.
		if end, _ := m.Resolve(5, 200); end != 200 {
			t.Fatalf("%v: hit cost time", policy)
		}
	}
}

func TestEngineWriteEvictFetchCycle(t *testing.T) {
	m, dev, _ := newTestEngine(t, 2, PolicySLRU)
	tm := dev.Timing()
	pageSize := dev.Geometry().PageSize

	// Write lpn 0: resolve (free), record (dirty).
	if _, err := m.Resolve(0, 0); err != nil {
		t.Fatal(err)
	}
	ppn0, t0, err := m.placer.PlacePage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WritePage(ppn0, 0, t0, flash.CauseHost); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RecordWrite(0, ppn0); err != nil {
		t.Fatal(err)
	}
	if m.PPN(0) != ppn0 {
		t.Fatal("table not updated")
	}

	// Fill the 2-entry cache so resolving a third lpn evicts dirty lpn 0,
	// forcing a translation-page write (no prior page to read: GTD empty).
	if _, err := m.Resolve(1, 0); err != nil {
		t.Fatal(err)
	}
	ready := sim.Time(1 * sim.Second)
	end, err := m.Resolve(2, ready)
	if err != nil {
		t.Fatal(err)
	}
	// Cost: one translation-page program (transfer+program); the fetch for
	// lpn 2 is free (GTD had no page before this write-back... it does now,
	// but lpn 2 shares the single translation page, so a fetch happens).
	wantMin := ready.Add(tm.ExternalWrite(pageSize))
	if end < wantMin {
		t.Fatalf("dirty eviction cost %v, want >= %v", end, wantMin)
	}
	// The victim was lpn 0, the dirty one: its write-back is the one
	// translation-page program.
	if st := *m.counts; st[obs.EvTransWrite] != 1 {
		t.Fatalf("stats %+v", st)
	}
	if m.Cache.Contains(0) || !m.Cache.Contains(1) || !m.Cache.Contains(2) {
		t.Fatal("the dirty eviction did not take lpn 0")
	}
	if m.GTD.Get(0) == flash.InvalidPPN {
		t.Fatal("GTD not set after write-back")
	}
	if dev.PageState(m.GTD.Get(0)) != flash.PageValid {
		t.Fatal("translation page not valid on flash")
	}

	// A later miss on lpn 0 must now pay a translation-page read.
	if _, err := m.Resolve(0, ready); err == nil {
		// lpn 0 was evicted, so this is a miss; it may evict lpn 1 or 2
		// (clean) and must read the translation page.
		if got := m.counts[obs.EvTransRead]; got < 1 {
			t.Fatalf("TransReads = %d, want >= 1", got)
		}
	} else {
		t.Fatal(err)
	}
}

func TestEngineBatchWriteback(t *testing.T) {
	m, dev, _ := newTestEngine(t, 4, PolicySLRU)
	// Dirty three mappings in the same translation page.
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 3; lpn++ {
		if _, err := m.Resolve(lpn, at); err != nil {
			t.Fatal(err)
		}
		ppn, t2, _ := m.placer.PlacePage(int64(lpn), at)
		end, err := dev.WritePage(ppn, int64(lpn), t2, flash.CauseHost)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RecordWrite(lpn, ppn); err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// Evicting one dirty entry persists all three (batch update).
	if _, err := m.Resolve(10, at); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(11, at); err != nil { // forces eviction
		t.Fatal(err)
	}
	st := *m.counts
	if st[obs.EvTransWrite] != 1 {
		t.Fatalf("TransWrites = %d, want 1 (batched)", st[obs.EvTransWrite])
	}
	// Five lookups, all misses; the fifth evicted lpn 0, dirty, wrote it
	// back, then read the page it had just written for lpn 11.
	want := obs.Counts{obs.EvCMTMiss: 5, obs.EvCMTEvict: 1, obs.EvCMTWriteback: 1, obs.EvTransWrite: 1, obs.EvTransRead: 1}
	if got := st; got != want {
		t.Fatalf("counts %v, want %v", got, want)
	}
	// lpn 0 was the victim; lpns 1 and 2 stay cached, cleaned by its
	// write-back.
	if !m.Cache.Contains(1) || !m.Cache.Contains(2) {
		t.Fatal("test setup: lpns 1 and 2 should stay cached")
	}
	if n := m.Cache.DirtyInPage(0); n != 0 {
		t.Fatalf("%d mappings of the written-back page still dirty, want 0 (batched)", n)
	}
	// The remaining dirty entries were cleaned: evicting them writes nothing.
	before := m.counts[obs.EvTransWrite]
	if _, err := m.Resolve(12, at); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(13, at); err != nil {
		t.Fatal(err)
	}
	if got := m.counts[obs.EvTransWrite]; got != before {
		t.Fatalf("clean evictions wrote %d pages", got-before)
	}
}

func TestEngineRecordWriteRequiresResolve(t *testing.T) {
	m, _, _ := newTestEngine(t, 4, PolicySLRU)
	if _, err := m.RecordWrite(7, 1); err == nil {
		t.Fatal("RecordWrite without Resolve accepted")
	}
}

func TestEngineRedirectMoved(t *testing.T) {
	m, dev, _ := newTestEngine(t, 4, PolicySLRU)
	// Set up two data pages and one translation page on flash.
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 2; lpn++ {
		if _, err := m.Resolve(lpn, at); err != nil {
			t.Fatal(err)
		}
		ppn, t2, _ := m.placer.PlacePage(int64(lpn), at)
		end, _ := dev.WritePage(ppn, int64(lpn), t2, flash.CauseHost)
		if _, err := m.RecordWrite(lpn, ppn); err != nil {
			t.Fatal(err)
		}
		at = end
	}

	// Simulate GC moving lpn 0 (cached: cache update, dirty, no flash
	// traffic) and a translation page (GTD repoint only).
	oldPPN := m.PPN(0)
	newPPN, _, _ := m.placer.PlacePage(0, at)
	at, _ = dev.CopyBack(oldPPN, newPPN, at, flash.CauseGC)
	transWritesBefore := m.counts[obs.EvTransWrite]
	end, err := m.RedirectMoved([]ftl.Moved{{Stored: 0, New: newPPN}}, at)
	if err != nil {
		t.Fatal(err)
	}
	if end != at {
		t.Fatal("cached redirect should be free")
	}
	if m.PPN(0) != newPPN {
		t.Fatal("table not redirected")
	}
	if m.counts[obs.EvTransWrite] != transWritesBefore {
		t.Fatal("cached redirect wrote a translation page")
	}

	// GTD repoint for a moved translation page.
	m.GTD.Set(0, 40)
	end, err = m.RedirectMoved([]ftl.Moved{{Stored: ftl.EncodeTrans(0), New: 41}}, end)
	if err != nil {
		t.Fatal(err)
	}
	if m.GTD.Get(0) != 41 {
		t.Fatal("GTD not repointed")
	}
	// Restore: 41 is a synthetic location; later fetches must not read it.
	m.GTD.Set(0, flash.InvalidPPN)

	// A non-cached data move updates the table lazily: no flash traffic, an
	// OOB-backed stale translation page (see RedirectMoved's doc comment).
	// Evict lpn 1 from the cache by filling it.
	for l := ftl.LPN(20); l < 24; l++ {
		if _, err := m.Resolve(l, end); err != nil {
			t.Fatal(err)
		}
	}
	if m.Cache.Contains(1) {
		t.Fatal("test setup: lpn 1 should be evicted")
	}
	old1 := m.PPN(1)
	new1, _, _ := m.placer.PlacePage(1, end)
	end2, _ := dev.CopyBack(old1, new1, end, flash.CauseGC)
	before := *m.counts
	got, err := m.RedirectMoved([]ftl.Moved{{Stored: 1, New: new1}}, end2)
	if err != nil {
		t.Fatal(err)
	}
	if got != end2 {
		t.Fatal("lazy redirect should cost no time")
	}
	if m.PPN(1) != new1 {
		t.Fatal("table not redirected for uncached move")
	}
	if *m.counts != before || m.Cache.Contains(1) {
		t.Fatalf("uncached redirect moved translation state: %+v, was %+v", *m.counts, before)
	}
	// The moved page resolves to its new location.
	if _, err := m.Resolve(1, got); err != nil {
		t.Fatal(err)
	}
	if m.PPN(1) != new1 {
		t.Fatal("lpn 1 resolves to its old page after the redirect")
	}
}

func TestEngineLazyRedirectPersistsAtNextWriteBack(t *testing.T) {
	m, dev, _ := newTestEngine(t, 2, PolicySLRU)
	// Persist lpn 0, evict it (dirty), so a translation page exists.
	var at sim.Time
	for _, lpn := range []ftl.LPN{0, 1, 2} {
		if _, err := m.Resolve(lpn, at); err != nil {
			t.Fatal(err)
		}
		ppn, t2, _ := m.placer.PlacePage(int64(lpn), at)
		end, _ := dev.WritePage(ppn, int64(lpn), t2, flash.CauseHost)
		if _, err := m.RecordWrite(lpn, ppn); err != nil {
			t.Fatal(err)
		}
		at = end
	}
	if m.GTD.Get(0) == flash.InvalidPPN {
		t.Fatal("no translation page persisted yet")
	}
	// Lazily redirect uncached lpn 0 (evicted by the 2-entry cache).
	if m.Cache.Contains(0) {
		t.Fatal("test setup: lpn 0 should be evicted")
	}
	old := m.PPN(0)
	dst, _, _ := m.placer.PlacePage(0, at)
	at, _ = dev.CopyBack(old, dst, at, flash.CauseGC)
	before := *m.counts
	if _, err := m.RedirectMoved([]ftl.Moved{{Stored: 0, New: dst}}, at); err != nil {
		t.Fatal(err)
	}
	if *m.counts != before || m.Cache.Contains(0) {
		t.Fatal("redirect not lazy: it moved translation state")
	}
	// The next write-back of that translation page persists the current
	// table (including the redirect) — a later fetch of lpn 0 reads a page
	// whose content is, by construction, the authoritative table.
	beforeW := m.counts[obs.EvTransWrite]
	if _, err := m.writeBack(0, at); err != nil {
		t.Fatal(err)
	}
	if m.counts[obs.EvTransWrite] != beforeW+1 {
		t.Fatal("write-back did not program a page")
	}
	if m.PPN(0) != dst {
		t.Fatal("table lost the redirect")
	}
}

// TestEngineSnapshotRestore encodes an engine, runs it on, and decodes the
// bytes back into it: the state must be the encoded one again.
func TestEngineSnapshotRestore(t *testing.T) {
	for _, policy := range []Policy{PolicySLRU, PolicyLearned} {
		m, dev, _ := newTestEngine(t, 4, policy)
		var at sim.Time
		for lpn := ftl.LPN(0); lpn < 8; lpn++ {
			if _, err := m.Resolve(lpn, at); err != nil {
				t.Fatal(err)
			}
			ppn, t2, _ := m.placer.PlacePage(int64(lpn), at)
			end, _ := dev.WritePage(ppn, int64(lpn), t2, flash.CauseHost)
			if _, err := m.RecordWrite(lpn, ppn); err != nil {
				t.Fatal(err)
			}
			at = end
		}
		snap := engineBytes(m)
		tableAt := tableOf(m)
		countsAt := carriedCounts(m.counts)
		segsAt := m.LearnedSegments()

		// Mutate past the snapshot.
		for lpn := ftl.LPN(8); lpn < 16; lpn++ {
			if _, err := m.Resolve(lpn, at); err != nil {
				t.Fatal(err)
			}
			ppn, t2, _ := m.placer.PlacePage(int64(lpn), at)
			end, _ := dev.WritePage(ppn, int64(lpn), t2, flash.CauseHost)
			if _, err := m.RecordWrite(lpn, ppn); err != nil {
				t.Fatal(err)
			}
			at = end
		}

		r := ckpt.NewReader(snap)
		if m.DecodeState(r); r.Err() != nil {
			t.Fatalf("%v: %v", policy, r.Err())
		}
		if !bytes.Equal(engineBytes(m), snap) {
			t.Fatalf("%v: state after decoding differs from the encoded one", policy)
		}
		for i := range tableAt {
			if got, want := m.PPN(ftl.LPN(i)), tableAt.Get(int64(i)); got != want {
				t.Fatalf("%v: PPN(%d) = %d after restore, want %d", policy, i, got, want)
			}
		}
		if got := carriedCounts(m.counts); got != countsAt {
			t.Fatalf("%v: counts not restored: %v vs %v", policy, got, countsAt)
		}
		if m.LearnedSegments() != segsAt {
			t.Fatalf("%v: learned segments %d after restore, want %d", policy, m.LearnedSegments(), segsAt)
		}
	}
}

func TestEngineAdoptStateResetsLearned(t *testing.T) {
	m, dev, _ := newLearnedTestEngine(t, 2)
	var at sim.Time
	// Enough sequential writes through a tiny cache to force write-backs
	// (and therefore training).
	for lpn := ftl.LPN(0); lpn < 32; lpn++ {
		if _, err := m.Resolve(lpn, at); err != nil {
			t.Fatal(err)
		}
		ppn, t2, _ := m.placer.PlacePage(int64(lpn), at)
		end, _ := dev.WritePage(ppn, int64(lpn), t2, flash.CauseHost)
		if _, err := m.RecordWrite(lpn, ppn); err != nil {
			t.Fatal(err)
		}
		at = end
	}
	if m.LearnedSegments() == 0 {
		t.Fatal("test setup: no segments trained")
	}
	table := tableOf(m)
	gtd := append(flash.PPNMap(nil), m.GTD...)
	if err := m.AdoptState(table, gtd); err != nil {
		t.Fatal(err)
	}
	if m.LearnedSegments() != 0 {
		t.Fatal("AdoptState kept learned segments; SRAM state must not survive power loss")
	}
	if err := m.AdoptState(table[:10], gtd); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
}

// tableOf copies the engine's mapping, read through PPN, into a plain table.
func tableOf(m *Engine) flash.PPNMap {
	table := make(flash.PPNMap, len(m.table))
	for i := range table {
		table.Set(int64(i), m.PPN(ftl.LPN(i)))
	}
	return table
}

// EntriesPerTP returns how many mapping entries one translation page holds.
func (m *Engine) EntriesPerTP() int { return m.entriesPerTP }

// carriedCounts is what a checkpoint of the engine carries of its counts.
func carriedCounts(c *obs.Counts) [5]int64 {
	return [5]int64{c[obs.EvCMTHit], c[obs.EvCMTMiss], c[obs.EvTransRead], c[obs.EvTransWrite], c[obs.EvLearnedHit]}
}
