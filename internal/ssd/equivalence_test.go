package ssd

import (
	"reflect"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// lookup resolves an lpn through any FTL; every scheme exports Lookup.
func lookup(t *testing.T, f ftl.FTL, lpn ftl.LPN) flash.PPN {
	t.Helper()
	l, ok := f.(interface{ Lookup(ftl.LPN) flash.PPN })
	if !ok {
		t.Fatalf("FTL %T has no Lookup", f)
	}
	return l.Lookup(lpn)
}

// TestCrossFTLLogicalEquivalence replays one request stream through all
// three FTLs and asserts they expose the same logical state: exactly the
// same set of mapped LPNs, each stored valid under its own tag. Placement
// differs wildly between schemes; the logical contract must not.
func TestCrossFTLLogicalEquivalence(t *testing.T) {
	t.Run("seq", func(t *testing.T) {
		var mapped []map[ftl.LPN]bool
		for _, scheme := range Schemes() {
			c := buildTiny(t, scheme)
			preconditionTiny(t, c)
			reqs := tinyWorkload(t, c, 3000, 11)
			if _, err := c.Run(trace.NewSliceReader(reqs)); err != nil {
				t.Fatalf("%s: %v", scheme, err)
			}
			m := make(map[ftl.LPN]bool)
			for lpn := ftl.LPN(0); lpn < c.FTL().Capacity(); lpn++ {
				ppn := lookup(t, c.FTL(), lpn)
				if ppn == flash.InvalidPPN {
					continue
				}
				m[lpn] = true
				if got := c.Device().PageLPN(ppn); got != int64(lpn) {
					t.Fatalf("%s: lpn %d stored under tag %d", scheme, lpn, got)
				}
			}
			mapped = append(mapped, m)
		}
		for i := 1; i < len(mapped); i++ {
			if len(mapped[i]) != len(mapped[0]) {
				t.Fatalf("scheme %d maps %d lpns, scheme 0 maps %d",
					i, len(mapped[i]), len(mapped[0]))
			}
			for lpn := range mapped[0] {
				if !mapped[i][lpn] {
					t.Fatalf("scheme %d lost lpn %d", i, lpn)
				}
			}
		}
	})
}

// TestPageSizesEndToEnd runs every supported page size through each FTL on
// a miniature device, checking the pipeline survives non-default pages and
// that bigger pages mean fewer flash programs for the same byte volume.
func TestPageSizesEndToEnd(t *testing.T) {
	writesByPage := map[int]int64{}
	for _, pageKB := range []int{2, 4, 8, 16} {
		geo := tinyGeometry()
		geo.PageSize = pageKB * 1024
		geo.BlocksPerPlane = 24 * 2 / pageKB * 2 // keep capacity roughly level
		if geo.BlocksPerPlane < 8 {
			geo.BlocksPerPlane = 8
		}
		cfg := Config{FTL: SchemeDLOOP, Geometry: &geo, ExtraPct: 0.25, CMTEntries: 64}
		c, err := Build(cfg)
		if err != nil {
			t.Fatalf("%dKB: %v", pageKB, err)
		}
		capBytes := int64(c.FTL().Capacity()) * int64(geo.PageSize)
		if err := c.PreconditionBytes(capBytes / 2); err != nil {
			t.Fatalf("%dKB: %v", pageKB, err)
		}
		// Fixed byte volume of writes.
		var at int64
		for i := 0; i < 200; i++ {
			req := trace.Request{
				Arrival: 0,
				LBN:     (int64(i) * 64) % (capBytes / 2 / trace.SectorSize / 64 * 64),
				Sectors: 64, // 32 KB
				Op:      trace.OpWrite,
			}
			if _, err := c.Serve(req); err != nil {
				t.Fatalf("%dKB: %v", pageKB, err)
			}
			at++
		}
		res := c.Result()
		writesByPage[pageKB] = res.PagesWrit
		if res.MeanRespMs <= 0 {
			t.Fatalf("%dKB: zero response time", pageKB)
		}
	}
	if !(writesByPage[2] > writesByPage[4] && writesByPage[4] > writesByPage[8] && writesByPage[8] > writesByPage[16]) {
		t.Fatalf("page ops should fall with page size: %v", writesByPage)
	}
}

// TestSubPageRequests covers requests smaller than a page and requests that
// straddle page boundaries.
func TestSubPageRequests(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, c)
	// 1 sector write: pads to one page.
	if _, err := c.Serve(trace.Request{Arrival: 0, LBN: 5, Sectors: 1, Op: trace.OpWrite}); err != nil {
		t.Fatal(err)
	}
	if got := c.Result().PagesWrit; got != 1 {
		t.Fatalf("1-sector write programmed %d pages, want 1", got)
	}
	// 4 sectors straddling a page boundary (page = 4 sectors at 2 KB).
	before := c.Result().PagesWrit
	if _, err := c.Serve(trace.Request{Arrival: 0, LBN: 2, Sectors: 4, Op: trace.OpWrite}); err != nil {
		t.Fatal(err)
	}
	if got := c.Result().PagesWrit - before; got != 2 {
		t.Fatalf("straddling write programmed %d pages, want 2", got)
	}
}

// TestRunStopsOnReaderError verifies error propagation from trace readers.
func TestRunStopsOnReaderError(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	if _, err := c.Run(failingReader{}); err == nil {
		t.Fatal("reader error swallowed")
	}
}

type failingReader struct{}

func (failingReader) Next() (trace.Request, error) {
	return trace.Request{}, errBoom
}

func (failingReader) NextN([]trace.Request) (int, error) {
	return 0, errBoom
}

var errBoom = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestTimeSeriesRecording(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	if err := c.EnableTimeSeries(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableTimeSeries(0); err == nil {
		t.Fatal("zero bucket accepted")
	}
	preconditionTiny(t, c)
	if c.TimeSeries().Buckets() != 0 {
		t.Fatal("precondition leaked into the series")
	}
	reqs := tinyWorkload(t, c, 500, 4)
	if _, err := c.Run(trace.NewSliceReader(reqs)); err != nil {
		t.Fatal(err)
	}
	ts := c.TimeSeries()
	if ts == nil || ts.Buckets() == 0 {
		t.Fatal("series empty after run")
	}
	var n int64
	for i := 0; i < ts.Buckets(); i++ {
		b := ts.Bucket(i)
		n += b.N()
	}
	if n != 500 {
		t.Fatalf("series recorded %d samples, want 500", n)
	}
}

// TestForkBitIdentical is the checkpoint/fork acceptance test: for every
// FTL scheme, a run forked from a warm-up checkpoint must produce a Result
// bit-identical to an uninterrupted fresh run, and the checkpoint must
// survive being restored repeatedly (catching any aliasing between snapshot
// and live state).
func TestForkBitIdentical(t *testing.T) {
	schemes := []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped}
	for _, scheme := range schemes {
		t.Run(scheme+"/seq", func(t *testing.T) {
			fresh := buildTiny(t, scheme)
			preconditionTiny(t, fresh)
			w1 := tinyWorkload(t, fresh, 2000, 21)
			w2 := tinyWorkload(t, fresh, 1500, 22)
			want1, err := fresh.Run(trace.NewSliceReader(w1))
			if err != nil {
				t.Fatal(err)
			}

			fresh2 := buildTiny(t, scheme)
			preconditionTiny(t, fresh2)
			want2, err := fresh2.Run(trace.NewSliceReader(w2))
			if err != nil {
				t.Fatal(err)
			}

			c := buildTiny(t, scheme)
			preconditionTiny(t, c)
			cp, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got1, err := c.Run(trace.NewSliceReader(w1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got1, want1) {
				t.Fatalf("run after snapshot differs from fresh run:\n got %+v\nwant %+v", got1, want1)
			}
			// Fork the divergent cell w2 from the same checkpoint.
			if err := c.Restore(cp); err != nil {
				t.Fatal(err)
			}
			got2, err := c.Run(trace.NewSliceReader(w2))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got2, want2) {
				t.Fatalf("forked run differs from fresh run:\n got %+v\nwant %+v", got2, want2)
			}
			// Restore a second time: the checkpoint must be unscathed by the
			// forks that ran off it.
			if err := c.Restore(cp); err != nil {
				t.Fatal(err)
			}
			again, err := c.Run(trace.NewSliceReader(w1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want1) {
				t.Fatalf("second fork differs from fresh run:\n got %+v\nwant %+v", again, want1)
			}
		})
	}
}

// TestForkWithSeries covers the controller state the plain fork test does
// not reach: the response time series.
func TestForkWithSeries(t *testing.T) {
	build := func() *Controller {
		c := buildTiny(t, SchemeDLOOP)
		if err := c.EnableTimeSeries(1 * sim.Second); err != nil {
			t.Fatal(err)
		}
		preconditionTiny(t, c)
		return c
	}
	c := build()
	w := tinyWorkload(t, c, 1500, 23)
	cp, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	wantBuckets := c.TimeSeries().Buckets()
	if err := c.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if c.TimeSeries().Buckets() != 0 {
		t.Fatal("restored series not rewound")
	}
	got, err := c.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("forked run differs:\n got %+v\nwant %+v", got, want)
	}
	if c.TimeSeries().Buckets() != wantBuckets {
		t.Fatalf("series buckets %d, want %d", c.TimeSeries().Buckets(), wantBuckets)
	}
}

// TestControllerRecovery crashes a controller mid-run — after enough traffic
// that garbage collection is in flight (partially-filled blocks, open log
// blocks, half-consumed pools) — and checks the recovered one exposes
// identical mappings and keeps serving.
func TestControllerRecovery(t *testing.T) {
	schemes := []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped}
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			c := buildTiny(t, scheme)
			preconditionTiny(t, c)
			res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2000, 5)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Erases == 0 {
				t.Fatal("workload never triggered GC; the crash state is trivial")
			}
			r, err := c.Recover()
			if err != nil {
				t.Fatal(err)
			}
			// Exactly one valid copy of each written lpn exists on flash, so
			// even the hybrids' reconstructed (not identical) block roles must
			// resolve every lookup to the same physical page.
			for lpn := ftl.LPN(0); lpn < c.FTL().Capacity(); lpn++ {
				if got, want := lookup(t, r.FTL(), lpn), lookup(t, c.FTL(), lpn); got != want {
					t.Fatalf("lpn %d recovered %d want %d", lpn, got, want)
				}
			}
			c.Close() // releases the crashed FTLs; the devices are r's now
			if _, err := r.Run(trace.NewSliceReader(tinyWorkload(t, r, 1000, 6))); err != nil {
				t.Fatalf("post-recovery: %v", err)
			}
			checkMappingConsistency(t, r)
			r.Close()
		})
	}
}

// TestRecoveryKeepsGCPolicy checks that a non-default victim policy survives
// the crash: the recovered controller rebuilds its GC engine with the same
// policy the original was configured with.
func TestRecoveryKeepsGCPolicy(t *testing.T) {
	for _, scheme := range []string{SchemeDLOOP, SchemeFAST, SchemePureMap} {
		cfg := tinyConfig(scheme)
		cfg.GCPolicy = "costbenefit"
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		preconditionTiny(t, c)
		if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 1500, 9))); err != nil {
			t.Fatal(err)
		}
		r, err := c.Recover()
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		p, ok := r.FTL().(interface{ GCPolicyName() string })
		if !ok {
			t.Fatalf("%s: recovered FTL does not report its GC policy", scheme)
		}
		if got := p.GCPolicyName(); got != "costbenefit" {
			t.Errorf("%s: recovered policy %q, want costbenefit", scheme, got)
		}
		if _, err := r.Run(trace.NewSliceReader(tinyWorkload(t, r, 500, 10))); err != nil {
			t.Fatalf("%s post-recovery: %v", scheme, err)
		}
		checkMappingConsistency(t, r)
	}
}
