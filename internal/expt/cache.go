package expt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"dloop/internal/ckpt"
	"dloop/internal/ssd"
)

// WarmupKey returns the content address of one warm-up prefix: a hex digest
// of the full simulator configuration (ssd.ConfigDigest, defaults applied,
// Geometry/Timing by value) and the preconditioned footprint. Cells with
// equal keys reach bit-identical simulator states after warm-up, so one
// checkpoint can seed them all — in this process or, through WarmupCache,
// in any later one.
func WarmupKey(cfg ssd.Config, footprintBytes int64) string {
	d := ssd.ConfigDigest(cfg)
	var buf [sha256.Size + 8]byte
	copy(buf[:], d[:])
	binary.LittleEndian.PutUint64(buf[sha256.Size:], uint64(footprintBytes))
	sum := sha256.Sum256(buf[:])
	return hex.EncodeToString(sum[:])
}

// WarmupCache is a content-addressed on-disk store of encoded warm-up
// checkpoints: one <key>.ckpt container (see internal/ckpt and
// ssd.EncodeCheckpoint) per (config, footprint) warm-up, published with
// write-to-temp-then-rename so concurrent writers and readers only ever see
// complete files. Every load path degrades gracefully — a missing, corrupt,
// truncated, or version/configuration-mismatched file counts as a miss and
// the caller simulates the warm-up fresh (then usually overwrites the bad
// entry).
type WarmupCache struct {
	// Dir is the cache directory, created on first store.
	Dir string
	// Stats, when non-nil, receives hit/miss/byte counters.
	Stats *SweepStats
}

func (wc *WarmupCache) path(key string) string {
	return filepath.Join(wc.Dir, key+".ckpt")
}

// load builds a controller for cfg and restores the cached warm-up for key
// into it. Any failure — no file, bad container, configuration mismatch, a
// body that does not decode — returns nil and the caller warms up a freshly
// built controller; the half-restored one is closed, never run. Only a
// controller build error is surfaced, since fresh warm-up would hit it too.
func (wc *WarmupCache) load(cfg ssd.Config, key string) (*ssd.Controller, error) {
	data, release, err := ckpt.LoadFile(wc.path(key))
	if err != nil {
		wc.Stats.noteMiss()
		return nil, nil
	}
	defer release()
	c, err := ssd.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("expt: build %s: %w", cfg.FTL, err)
	}
	cp, err := c.DecodeCheckpoint(data)
	if err == nil {
		err = c.Restore(cp)
	}
	if err != nil {
		c.Close()
		wc.Stats.noteReject()
		return nil, nil
	}
	wc.Stats.noteHit(int64(len(data)))
	return c, nil
}

// store publishes cp under key atomically. Store failures are dropped, not
// fatal: the run already holds the warmed controller.
func (wc *WarmupCache) store(key string, cp *ssd.Checkpoint) {
	if n, err := wc.write(key, cp); err == nil {
		wc.Stats.noteStore(n)
	}
}

func (wc *WarmupCache) write(key string, cp *ssd.Checkpoint) (int64, error) {
	if err := os.MkdirAll(wc.Dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(wc.Dir, ".ckpt-*.tmp")
	if err != nil {
		return 0, err
	}
	n, err := cp.WriteTo(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), wc.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return n, nil
}

// Warm returns a controller for cfg holding the warm-up of a footprint: the
// cached one when the cache holds a valid entry for (cfg, footprint), and
// otherwise a freshly built controller, preconditioned and then published
// for later processes. A nil or directory-less cache always warms up fresh.
// Every sweep cell and single run warms up here, and counts as one cell:
// from the cache on a hit, fresh otherwise.
func (wc *WarmupCache) Warm(cfg ssd.Config, footprintBytes int64) (*ssd.Controller, error) {
	if wc == nil {
		wc = &WarmupCache{}
	}
	var key string
	if wc.Dir != "" {
		key = WarmupKey(cfg, footprintBytes)
		if c, err := wc.load(cfg, key); c != nil || err != nil {
			return c, err
		}
	}
	c, err := ssd.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("expt: build %s: %w", cfg.FTL, err)
	}
	if err := c.PreconditionBytes(footprintBytes); err != nil {
		c.Close()
		return nil, fmt.Errorf("expt: precondition %s: %w", cfg.FTL, err)
	}
	wc.Stats.noteFresh()
	if wc.Dir != "" {
		wc.Stats.noteWarmup()
		if cp, err := c.Snapshot(); err == nil {
			wc.store(key, cp)
		}
	}
	return c, nil
}

// SweepStats accumulates sweep-execution counters: warm-up cache traffic and
// how each cell warmed up. All methods are safe for concurrent use and
// safe on a nil receiver, so instrumented and uninstrumented call sites share
// one code path. One SweepStats may span several sweeps; counters only grow.
type SweepStats struct {
	cacheHits    int64 // warm-ups restored from the cache
	cacheMisses  int64 // cache files absent
	cacheRejects int64 // cache files rejected: corrupt, truncated, or mismatched
	bytesRead    int64 // encoded checkpoint bytes loaded
	bytesWritten int64 // encoded checkpoint bytes published
	warmups      int64 // warm-ups simulated and published to the cache
	freshCells   int64 // cells that built and warmed their own simulator
}

func (s *SweepStats) noteHit(bytes int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.cacheHits, 1)
	atomic.AddInt64(&s.bytesRead, bytes)
}

func (s *SweepStats) noteMiss() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.cacheMisses, 1)
}

func (s *SweepStats) noteReject() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.cacheRejects, 1)
}

func (s *SweepStats) noteStore(bytes int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.bytesWritten, bytes)
}

func (s *SweepStats) noteWarmup() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.warmups, 1)
}

func (s *SweepStats) noteFresh() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.freshCells, 1)
}

// Warmups returns the number of warm-ups simulated with a cache directory
// set, each published for later runs.
func (s *SweepStats) Warmups() int64 { return atomic.LoadInt64(&s.warmups) }

// ForkedCells returns the number of cells whose warm-up was restored from the
// cache instead of simulated: the cache hits.
func (s *SweepStats) ForkedCells() int64 { return atomic.LoadInt64(&s.cacheHits) }

// FreshCells returns the number of cells that warmed up on their own.
func (s *SweepStats) FreshCells() int64 { return atomic.LoadInt64(&s.freshCells) }

// Summary renders the counters as one human-readable line.
func (s *SweepStats) Summary() string {
	return fmt.Sprintf(
		"warmup cache: %d hits / %d misses / %d rejects (%.1f MB read, %.1f MB written); cells: %d forked / %d fresh; warmups simulated: %d",
		atomic.LoadInt64(&s.cacheHits), atomic.LoadInt64(&s.cacheMisses), atomic.LoadInt64(&s.cacheRejects),
		float64(atomic.LoadInt64(&s.bytesRead))/(1<<20), float64(atomic.LoadInt64(&s.bytesWritten))/(1<<20),
		s.ForkedCells(), s.FreshCells(), s.Warmups())
}
