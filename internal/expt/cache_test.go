package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// TestWarmupKeyCoalescesAndSplits pins the content-addressing contract:
// configurations describing the same simulator share a key (independently
// allocated Geometry/Timing, zero fields vs their defaults), and changing any
// single Config field — walked by reflection so a new field can't dodge the
// test — splits it. So does the footprint.
func TestWarmupKeyCoalescesAndSplits(t *testing.T) {
	base, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, quickOptions())
	if !ok {
		t.Fatal("configFor failed")
	}
	const fp = 1 << 20
	key := WarmupKey(base, fp)

	// Value-equal Geometry behind a different pointer must coalesce.
	clone := base
	geo := *base.Geometry
	clone.Geometry = &geo
	if WarmupKey(clone, fp) != key {
		t.Fatal("independently allocated equal Geometry split the key")
	}
	// A zero field and its applied default must coalesce (base holds the
	// default scheme, DLOOP).
	defaulted := base
	defaulted.FTL = ""
	if WarmupKey(defaulted, fp) != key {
		t.Fatal("zero FTL and explicit default split the key")
	}

	if WarmupKey(base, fp+1) == key {
		t.Fatal("footprint change did not split the key")
	}

	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		mut := base
		fv := reflect.ValueOf(&mut).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Int:
			fv.SetInt(fv.Int() + 7)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.017)
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.String:
			fv.SetString(fv.String() + "x")
		case reflect.Pointer:
			if fv.IsNil() {
				fv.Set(reflect.New(f.Type.Elem()))
			} else {
				// Mutate the first integer field of the pointee.
				pe := fv.Elem()
				for j := 0; j < pe.NumField(); j++ {
					if pe.Field(j).Kind() == reflect.Int {
						pe.Field(j).SetInt(pe.Field(j).Int() + 1)
						break
					}
				}
				// Re-point at a private copy so base stays pristine.
				cp := reflect.New(f.Type.Elem())
				cp.Elem().Set(pe)
				fv.Set(cp)
			}
		default:
			t.Fatalf("field %s has kind %v the mutation table does not cover", f.Name, fv.Kind())
		}
		if WarmupKey(mut, fp) == key {
			t.Errorf("mutating Config.%s did not split the warm-up key", f.Name)
		}
	}
}

// seedSweepJobs builds n cells that differ only in workload seed: one
// (config, footprint) warm-up, n divergent replays, so every cell after the
// first can restore the warm-up the first one published to the cache.
func seedSweepJobs(t testing.TB, opt Options, n int) []job {
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	jobs := make([]job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, job{key: fmt.Sprintf("seed%d", i), cfg: cfg, profile: p, seed: int64(100 + i)})
	}
	return jobs
}

// cachedSweepJobs is seedSweepJobs plus a DFTL, a FAST and a multi-queue
// DLOOP warm-up of two cells each, so the cached path is exercised across
// schemes and the sharded front-end layout in one sweep.
func cachedSweepJobs(t testing.TB, opt Options) []job {
	jobs := seedSweepJobs(t, opt, 3)
	p := scaleProfile(workload.Financial1(), opt.Scale)
	for _, scheme := range []string{ssd.SchemeDFTL, ssd.SchemeFAST} {
		cfg, ok := configFor(4, 2, 0.03, scheme, opt)
		if !ok {
			t.Fatal("configFor failed")
		}
		for i := 0; i < 2; i++ {
			jobs = append(jobs, job{
				key: fmt.Sprintf("%s-seed%d", scheme, i), cfg: cfg, profile: p, seed: int64(70 + i),
			})
		}
	}
	mq, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	mq.FTLShards = 2
	for i := 0; i < 2; i++ {
		jobs = append(jobs, job{
			key: fmt.Sprintf("mq-seed%d", i), cfg: mq, profile: p, seed: int64(80 + i),
		})
	}
	return jobs
}

// TestCachedSweepMatchesUncached is the persistent-cache determinism gate: a
// sweep that starts on an empty cache, a sweep that serves every warm-up
// from disk, and an uncached sweep that warms up every cell itself must all
// produce the same result map, across schemes and the multi-queue layout.
// With one worker the cold sweep simulates each of the four warm-ups once and
// restores it for the cells after the first.
func TestCachedSweepMatchesUncached(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 400
	opt.Workers = 1
	opt.WarmupCache = t.TempDir()
	opt.Stats = &SweepStats{}
	jobs := cachedSweepJobs(t, opt)
	const cells, warmups = 9, 4
	if len(jobs) != cells {
		t.Fatalf("%d cells, want %d", len(jobs), cells)
	}
	counts := func(st *SweepStats) [5]int64 {
		return [5]int64{st.CacheHits(), st.CacheMisses(), st.Warmups(), st.ForkedCells(), st.FreshCells()}
	}

	cold, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counts(opt.Stats), [5]int64{cells - warmups, warmups, warmups, cells - warmups, warmups}; got != want {
		t.Fatalf("cold sweep: %s; want hits/misses/warmups/forked/fresh %v", opt.Stats.Summary(), want)
	}

	opt.Stats = &SweepStats{}
	warm, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counts(opt.Stats), [5]int64{cells, 0, 0, cells, 0}; got != want {
		t.Fatalf("warm sweep: %s; want hits/misses/warmups/forked/fresh %v", opt.Stats.Summary(), want)
	}

	uncached := opt
	uncached.WarmupCache = ""
	uncached.Stats = &SweepStats{}
	fresh, err := runAll(jobs, uncached)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counts(uncached.Stats), [5]int64{0, 0, 0, 0, cells}; got != want {
		t.Fatalf("uncached sweep: %s; want hits/misses/warmups/forked/fresh %v", uncached.Stats.Summary(), want)
	}

	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cache-served sweep diverged from cache-populating sweep:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if !reflect.DeepEqual(cold, fresh) {
		t.Fatalf("cached sweep diverged from uncached sweep:\ncached: %+v\nfresh: %+v", cold, fresh)
	}
}

// TestWarmupCacheRobustness damages every cached file in turn — truncation,
// a flipped payload bit, a bumped format version, and junk content — and
// asserts the sweep silently falls back to fresh warm-up, produces identical
// results, and repopulates the cache.
func TestWarmupCacheRobustness(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 300
	opt.WarmupCache = t.TempDir()
	jobs := seedSweepJobs(t, opt, 3)

	want, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(opt.WarmupCache, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files written: %v %v", files, err)
	}
	pristine, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":   func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"version":   func(b []byte) []byte { b[4]++; return b },
		"junk":      func([]byte) []byte { return []byte("not a checkpoint") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			data := corrupt(append([]byte(nil), pristine...))
			if err := os.WriteFile(files[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			opt := opt
			opt.Stats = &SweepStats{}
			got, err := runAll(jobs, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sweep over damaged cache diverged:\n got %+v\nwant %+v", got, want)
			}
			if opt.Stats.CacheRejects()+opt.Stats.CacheMisses() == 0 {
				t.Fatal("damaged cache entry was not rejected")
			}
			if opt.Stats.Warmups() == 0 {
				t.Fatal("fallback did not simulate a fresh warm-up")
			}
			repaired, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if string(repaired) != string(pristine) {
				t.Fatal("fallback did not repopulate the damaged entry")
			}
		})
	}
}

// TestWarmPublishesAndRestores covers the single-run command path
// (dloopsim -warmup-cache): RunObserved on an empty cache warms up fresh and
// publishes, counting one fresh cell; run again, it restores a freshly built
// controller with identical subsequent behavior, counting one cell from the
// cache; and a different footprint misses.
func TestWarmPublishesAndRestores(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 300
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	wc := &WarmupCache{Dir: t.TempDir(), Stats: &SweepStats{}}

	want, err := RunObserved(cfg, p, opt.Requests, opt.Seed, wc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum := wc.Stats.Summary(); !strings.Contains(sum, "0 hits / 1 misses") ||
		!strings.Contains(sum, "cells: 0 forked / 1 fresh; warmups simulated: 1") {
		t.Fatalf("cold run: %s", sum)
	}

	wc.Stats = &SweepStats{}
	got, err := RunObserved(cfg, p, opt.Requests, opt.Seed, wc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum := wc.Stats.Summary(); !strings.Contains(sum, "1 hits / 0 misses") ||
		!strings.Contains(sum, "cells: 1 forked / 0 fresh; warmups simulated: 0") {
		t.Fatalf("warm run missed a just-published checkpoint: %s", sum)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run from the cached warm-up diverged:\n got %+v\nwant %+v", got, want)
	}
	// A different footprint must miss.
	c, err := wc.Warm(cfg, p.FootprintBytes+1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if wc.Stats.CacheHits() != 1 || wc.Stats.Warmups() != 1 {
		t.Fatalf("Warm hit on a different footprint: %s", wc.Stats.Summary())
	}
}

// BenchmarkSweepWarmupCached measures a 4-cell seed-replication sweep — one
// configuration and footprint, four seeds — with every warm-up served from a
// pre-populated on-disk cache: each cell builds its controller and decodes
// and restores the checkpoint instead of simulating the warm-up. One worker,
// so the numbers compare total work, not scheduling luck.
func BenchmarkSweepWarmupCached(b *testing.B) {
	opt := Options{Requests: 400, Scale: 0.02, Seed: 7, Workers: 1}
	opt.WarmupCache = b.TempDir()
	jobs := seedSweepJobs(b, opt, 4)
	if _, err := runAll(jobs, opt); err != nil { // populate the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runAll(jobs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmupCacheRejectsDamagedBody damages a cache entry where only Restore
// can see it: the container stays sound (magic, version and checksum pass)
// but one valid page loses its OOB tag. The cell must
// never run on the half-restored controller: RunObserved equals the
// uncached run, the entry counts as a reject, and the fresh warm-up heals it.
func TestWarmupCacheRejectsDamagedBody(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 300
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	want, err := RunObserved(cfg, p, opt.Requests, opt.Seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	wc := &WarmupCache{Dir: t.TempDir(), Stats: &SweepStats{}}
	c, err := wc.Warm(cfg, p.FootprintBytes)
	if err != nil {
		t.Fatal(err)
	}
	geo := c.Geometry()
	c.Close()
	path := wc.path(WarmupKey(cfg, p.FootprintBytes))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The device's page-state column follows the container header and the
	// preamble (scheme, digest, eight geometry fields, layout tag); the tag
	// column, an int64 per page, follows it.
	header := ckpt.NewWriterSize(0).Len()
	pages := int(geo.TotalPages())
	states := header + 4 + len(cfg.FTL) + sha256.Size + 8*8 + 1 + 4
	if got := binary.LittleEndian.Uint32(pristine[states-4:]); int(got) != pages {
		t.Fatalf("page count at offset %d reads %d, want %d: the layout moved", states-4, got, pages)
	}
	valid := bytes.IndexByte(pristine[states:states+pages], byte(flash.PageValid))
	if valid < 0 {
		t.Fatal("the warm-up holds no valid page")
	}
	bad := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint64(bad[states+pages+4+8*valid:], ^uint64(0))
	w := ckpt.NewWriterSize(0)
	copy(w.Raw(len(bad)-header), bad[header:])
	if err := os.WriteFile(path, w.Seal(), 0o644); err != nil {
		t.Fatal(err)
	}

	wc.Stats = &SweepStats{}
	got, err := RunObserved(cfg, p, opt.Requests, opt.Seed, wc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run over a damaged entry differs from the uncached run:\n got %+v\nwant %+v", got, want)
	}
	if wc.Stats.CacheRejects() != 1 || wc.Stats.CacheHits() != 0 || wc.Stats.Warmups() != 1 {
		t.Fatalf("damaged entry not rejected and rewarmed: %s", wc.Stats.Summary())
	}
	if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, pristine) {
		t.Fatalf("fresh warm-up did not heal the entry (err %v)", err)
	}
}

// CacheHits returns the number of warm-ups restored from the cache.
func (s *SweepStats) CacheHits() int64 { return atomic.LoadInt64(&s.cacheHits) }

// CacheMisses returns the number of absent cache entries.
func (s *SweepStats) CacheMisses() int64 { return atomic.LoadInt64(&s.cacheMisses) }

// CacheRejects returns the number of rejected (corrupt or mismatched) files.
func (s *SweepStats) CacheRejects() int64 { return atomic.LoadInt64(&s.cacheRejects) }
