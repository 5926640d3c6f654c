package translate

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// lookupOf reads a table written as plain page numbers.
func lookupOf(ppns []flash.PPN) func(ftl.LPN) flash.PPN {
	return func(lpn ftl.LPN) flash.PPN { return ppns[lpn] }
}

func TestLearnedTrainUnitStride(t *testing.T) {
	li := newLearnedIndex(1, 1)
	table := make([]flash.PPN, 32)
	for i := range table {
		table[i] = flash.PPN(100 + i)
	}
	if n := li.train(0, 0, 32, lookupOf(table)); n != 1 {
		t.Fatalf("train = %d segments, want 1", n)
	}
	for lpn := ftl.LPN(0); lpn < 32; lpn++ {
		ppn, ok := li.predict(0, lpn)
		if !ok || ppn != table[lpn] {
			t.Fatalf("predict(%d) = %d,%v, want %d", lpn, ppn, ok, table[lpn])
		}
	}
}

func TestLearnedTrainStridedResidues(t *testing.T) {
	// Two interleaved plane logs, DLOOP-style with 2 planes: even LPNs on
	// ascending even PPNs, odd LPNs on a different ascending progression.
	li := newLearnedIndex(1, 2)
	table := make([]flash.PPN, 16)
	for i := 0; i < 16; i += 2 {
		table[i] = flash.PPN(i * 10)       // delta 20 per even step
		table[i+1] = flash.PPN(1000 + i*3) // delta 6 per odd step
	}
	if n := li.train(0, 0, 16, lookupOf(table)); n != 2 {
		t.Fatalf("train = %d segments, want 2 (one per residue)", n)
	}
	for lpn := ftl.LPN(0); lpn < 16; lpn++ {
		ppn, ok := li.predict(0, lpn)
		if !ok || ppn != table[lpn] {
			t.Fatalf("predict(%d) = %d,%v, want %d", lpn, ppn, ok, table[lpn])
		}
	}
}

func TestLearnedTrainSkipsHolesAndShortRuns(t *testing.T) {
	li := newLearnedIndex(1, 1)
	table := make([]flash.PPN, 16)
	for i := range table {
		table[i] = flash.InvalidPPN
	}
	// A 3-run (below minSegRun), a hole, then a 5-run.
	for i := 0; i < 3; i++ {
		table[i] = flash.PPN(10 + i)
	}
	for i := 8; i < 13; i++ {
		table[i] = flash.PPN(50 + i)
	}
	if n := li.train(0, 0, 16, lookupOf(table)); n != 1 {
		t.Fatalf("train = %d segments, want only the 5-run", n)
	}
	if _, ok := li.predict(0, 1); ok {
		t.Fatal("short run predicted")
	}
	if _, ok := li.predict(0, 5); ok {
		t.Fatal("hole predicted")
	}
	ppn, ok := li.predict(0, 10)
	if !ok || ppn != table[10] {
		t.Fatalf("predict(10) = %d,%v", ppn, ok)
	}
}

func TestLearnedTrainNonUnitDelta(t *testing.T) {
	// Constant PPN delta != 1 (e.g. a plane log interleaved with another
	// plane's pages) still forms one segment.
	li := newLearnedIndex(1, 1)
	table := make([]flash.PPN, 8)
	for i := range table {
		table[i] = flash.PPN(7 + 4*i)
	}
	if n := li.train(0, 0, 8, lookupOf(table)); n != 1 {
		t.Fatalf("train = %d, want 1", n)
	}
	ppn, ok := li.predict(0, 6)
	if !ok || ppn != 7+24 {
		t.Fatalf("predict(6) = %d,%v", ppn, ok)
	}
}

func TestLearnedInvalidate(t *testing.T) {
	li := newLearnedIndex(1, 1)
	table := make([]flash.PPN, 16)
	for i := range table {
		table[i] = flash.PPN(i)
	}
	li.train(0, 0, 16, lookupOf(table))
	li.invalidate(0, 5)
	if _, ok := li.predict(0, 7); ok {
		t.Fatal("covering segment survived invalidate")
	}
	if li.segments() != 0 {
		t.Fatalf("segments = %d after invalidate", li.segments())
	}
	// Invalidating an uncovered lpn is a no-op.
	li.train(0, 0, 16, lookupOf(table))
	before := li.segments()
	li.invalidate(0, 200)
	if li.segments() != before {
		t.Fatal("invalidate of uncovered lpn dropped a segment")
	}
}

func TestLearnedSegmentCap(t *testing.T) {
	li := newLearnedIndex(1, 1)
	// 64 disjoint runs of length 4 with wild deltas between them.
	table := make([]flash.PPN, 64*5)
	for i := range table {
		table[i] = flash.InvalidPPN
	}
	for r := 0; r < 64; r++ {
		for i := 0; i < 4; i++ {
			table[r*5+i] = flash.PPN(r*1000 + i)
		}
	}
	if n := li.train(0, 0, ftl.LPN(len(table)), lookupOf(table)); n != maxSegsPerTP {
		t.Fatalf("train = %d segments, want cap %d", n, maxSegsPerTP)
	}
}

// TestEngineLearnedSkipsTranslationRead drives the full miss path: a
// sequential fill trains segments, then re-reading an evicted span must
// resolve misses via verified predictions instead of translation reads.
func TestEngineLearnedSkipsTranslationRead(t *testing.T) {
	m, dev, _ := newLearnedTestEngine(t, 2)
	var at sim.Time
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
		t.Fatal("sequential fill trained no segments")
	}
	// Ensure the whole span is persisted and the trained segments match the
	// final table: one more write-back through the engine's own path.
	if _, err := m.writeBack(0, at); err != nil {
		t.Fatal(err)
	}
	readsBefore := m.counts[obs.EvTransRead]
	hitsBefore := m.counts[obs.EvLearnedHit]
	for lpn := ftl.LPN(0); lpn < 30; lpn++ {
		if m.Cache.Contains(lpn) {
			continue
		}
		if _, err := m.Resolve(lpn, at); err != nil {
			t.Fatal(err)
		}
	}
	st := *m.counts
	if st[obs.EvLearnedHit] == hitsBefore {
		t.Fatal("no learned hits on re-read of a trained sequential span")
	}
	if st[obs.EvTransRead] != readsBefore {
		t.Fatalf("trained span still cost %d translation reads", st[obs.EvTransRead]-readsBefore)
	}
}

// TestEngineLearnedMispredictFallsBack overwrites pages behind the index's
// back (simulating staleness), then checks a wrong prediction is refuted,
// charged, and followed by the normal translation read.
func TestEngineLearnedMispredictFallsBack(t *testing.T) {
	m, dev, _ := newLearnedTestEngine(t, 2)
	var at sim.Time
	write := func(lpn ftl.LPN) {
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
	for lpn := ftl.LPN(0); lpn < 32; lpn++ {
		write(lpn)
	}
	if _, err := m.writeBack(0, at); err != nil {
		t.Fatal(err)
	}
	if m.LearnedSegments() == 0 {
		t.Fatal("no segments trained")
	}
	// Corrupt a trained segment's view: move lpn 10's mapping without telling
	// the index (bypassing RecordWrite's invalidation hook).
	oldPPN := m.PPN(10)
	newPPN, _, _ := m.placer.PlacePage(10, at)
	at, _ = dev.CopyBack(oldPPN, newPPN, at, flash.CauseGC)
	m.setPPN(10, newPPN)
	// Evict lpn 10 if cached so the next Resolve misses.
	for l := ftl.LPN(40); l < 44; l++ {
		if _, err := m.Resolve(l, at); err != nil {
			t.Fatal(err)
		}
	}
	hitsBefore := m.counts[obs.EvLearnedHit]
	readsBefore := m.counts[obs.EvTransRead]
	if _, err := m.Resolve(10, at); err != nil {
		t.Fatal(err)
	}
	st := *m.counts
	if st[obs.EvLearnedHit] != hitsBefore {
		t.Fatalf("LearnedHits = %d, want %d: a refuted prediction is no hit", st[obs.EvLearnedHit], hitsBefore)
	}
	if st[obs.EvTransRead] != readsBefore+1 {
		t.Fatalf("misprediction did not fall back to the translation read")
	}
	// The covering segment is gone: lpn 11 no longer predicts.
	if _, ok := m.li.predict(m.TVPN(10), 10); ok {
		t.Fatal("refuted segment survived")
	}
}

// TestEngineLearnedRecordWriteInvalidates pins the overwrite hook: updating
// a trained lpn through the public API drops its segment.
func TestEngineLearnedRecordWriteInvalidates(t *testing.T) {
	m, dev, _ := newLearnedTestEngine(t, 8)
	var at sim.Time
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
	if _, err := m.writeBack(0, at); err != nil {
		t.Fatal(err)
	}
	if m.LearnedSegments() == 0 {
		t.Fatal("no segments trained")
	}
	if _, err := m.Resolve(5, at); err != nil {
		t.Fatal(err)
	}
	ppn, _, _ := m.placer.PlacePage(5, at)
	if _, err := dev.WritePage(ppn, 5, at, flash.CauseHost); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RecordWrite(5, ppn); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.li.predict(m.TVPN(5), 5); ok {
		t.Fatal("overwrite left a stale covering segment")
	}
}
