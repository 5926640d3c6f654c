package ssd

import (
	"fmt"
	"strings"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/pagemap"
	"dloop/internal/sim"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// tinyGeometry is a miniature device: 8 planes (2ch x 1pkg x 2chip x 1die x
// 2plane... kept hierarchical), 24 blocks/plane, 8 pages/block, 2 KB pages.
func tinyGeometry() flash.Geometry {
	return flash.Geometry{
		Channels:           2,
		PackagesPerChannel: 1,
		ChipsPerPackage:    2,
		DiesPerChip:        1,
		PlanesPerDie:       2,
		BlocksPerPlane:     24,
		PagesPerBlock:      8,
		PageSize:           2048,
	}
}

func tinyConfig(scheme string) Config {
	geo := tinyGeometry()
	return Config{
		FTL:        scheme,
		Geometry:   &geo,
		ExtraPct:   0.25, // 5 extra blocks/plane on the tiny device
		CMTEntries: 64,
	}
}

func buildTiny(t *testing.T, scheme string) *Controller {
	t.Helper()
	c, err := Build(tinyConfig(scheme))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// preconditionTiny populates the footprint tinyWorkload uses.
func preconditionTiny(t testing.TB, c *Controller) {
	t.Helper()
	capBytes := int64(c.Capacity()) * int64(c.Geometry().PageSize)
	if err := c.PreconditionBytes(capBytes * 3 / 4); err != nil {
		t.Fatal(err)
	}
}

// tinyWorkload generates requests that fit the tiny device's exported space.
func tinyWorkload(t testing.TB, c *Controller, n int, seed int64) []trace.Request {
	t.Helper()
	capBytes := int64(c.Capacity()) * int64(c.Geometry().PageSize)
	p := workload.Profile{
		Name:           "tiny",
		WriteRatio:     0.7,
		Sizes:          []workload.SizeWeight{{Sectors: 4, Weight: 1}, {Sectors: 8, Weight: 1}},
		RatePerSec:     2000,
		BurstProb:      0.3,
		FootprintBytes: capBytes * 3 / 4,
		ZipfS:          1.1,
		SeqProb:        0.1,
		AlignSectors:   4,
	}
	reqs, err := workload.Generate(p, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestGeometryFor(t *testing.T) {
	for _, tc := range []struct {
		gb, pageKB   int
		wantPlanes   int
		wantChannels int
		wantDataBlks int
	}{
		{4, 2, 16, 2, 2048},
		{8, 2, 32, 4, 2048},
		{16, 2, 64, 8, 2048},
		{32, 2, 128, 8, 2048},
		{64, 2, 256, 8, 2048},
		{8, 4, 32, 4, 1024},
		{8, 8, 32, 4, 512},
		{8, 16, 32, 4, 256},
	} {
		g, err := GeometryFor(tc.gb, tc.pageKB, 0.03, 3)
		if err != nil {
			t.Fatalf("GeometryFor(%d,%d): %v", tc.gb, tc.pageKB, err)
		}
		if g.Planes() != tc.wantPlanes {
			t.Errorf("%dGB/%dKB: planes %d, want %d", tc.gb, tc.pageKB, g.Planes(), tc.wantPlanes)
		}
		if g.Channels != tc.wantChannels {
			t.Errorf("%dGB/%dKB: channels %d, want %d", tc.gb, tc.pageKB, g.Channels, tc.wantChannels)
		}
		extra := extraBlocksFor(tc.wantDataBlks, 0.03, 3)
		if g.BlocksPerPlane != tc.wantDataBlks+extra {
			t.Errorf("%dGB/%dKB: blocks/plane %d, want %d data + %d extra",
				tc.gb, tc.pageKB, g.BlocksPerPlane, tc.wantDataBlks, extra)
		}
		// Exported capacity is exactly the nominal one.
		exported := int64(ftl.ExportedPages(g, extra)) * int64(g.PageSize)
		if exported != int64(tc.gb)<<30 {
			t.Errorf("%dGB/%dKB: exported %d bytes, want %d", tc.gb, tc.pageKB, exported, int64(tc.gb)<<30)
		}
	}
	if _, err := GeometryFor(3, 2, 0.03, 3); err == nil {
		t.Error("3 GB should not fill whole packages")
	}
	if _, err := GeometryFor(8, 7, 0.03, 3); err == nil {
		t.Error("7 KB pages should be rejected")
	}
}

func TestBuildRejectsUnknownFTL(t *testing.T) {
	cfg := tinyConfig("NOPE")
	_, err := Build(cfg)
	if err == nil || !strings.Contains(err.Error(), "unknown FTL") {
		t.Fatalf("got %v", err)
	}
	// The message names every scheme Build accepts.
	for _, scheme := range []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped} {
		if !strings.Contains(err.Error(), scheme) {
			t.Errorf("error %q does not name the accepted scheme %s", err, scheme)
		}
		if _, err := Build(tinyConfig(scheme)); err != nil {
			t.Errorf("Build rejected %s: %v", scheme, err)
		}
	}
}

// TestBuildRejectsDLOOPOnlySettings: DLOOP's ablation and extension settings
// fail on every other scheme, naming it, rather than being ignored; the
// translate-policy gate admits exactly the demand-paged schemes.
func TestBuildRejectsDLOOPOnlySettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"DisableCopyBack", func(c *Config) { c.DisableCopyBack = true }},
		{"AdaptiveGC", func(c *Config) { c.AdaptiveGC = true }},
		{"StripeBy", func(c *Config) { c.StripeBy = "channel" }},
		{"TranslatePolicy", func(c *Config) { c.TranslatePolicy = "learned" }},
	} {
		for _, scheme := range allSchemes {
			t.Run(tc.name+"/"+scheme, func(t *testing.T) {
				cfg := tinyConfig(scheme)
				tc.set(&cfg)
				c, err := Build(cfg)
				ok := scheme == SchemeDLOOP || tc.name == "TranslatePolicy" && scheme == SchemeDFTL
				if ok {
					if err != nil {
						t.Fatalf("rejected: %v", err)
					}
					c.Close()
					return
				}
				if err == nil {
					c.Close()
					t.Fatal("accepted")
				}
				if !strings.Contains(err.Error(), scheme) {
					t.Fatalf("error %q does not name the scheme", err)
				}
			})
		}
	}
}

func TestPreconditionFillsDevice(t *testing.T) {
	for _, scheme := range Schemes() {
		c := buildTiny(t, scheme)
		if err := c.Precondition(c.FTL().Capacity()); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		// Every exported page must now be mapped and valid.
		checkMappingConsistency(t, c)
		// Stats were reset.
		if got := c.Device().Stats().Writes(); got != 0 {
			t.Errorf("%s: writes after reset = %d", scheme, got)
		}
	}
}

// checkMappingConsistency cross-checks the FTL's mapping against device page
// state: every mapped LPN points at a valid page tagged with that LPN, and
// no two LPNs share a physical page.
func checkMappingConsistency(t *testing.T, c *Controller) {
	t.Helper()
	seen := make(map[flash.PPN]ftl.LPN)
	mapped := 0
	for lpn := ftl.LPN(0); lpn < c.FTL().Capacity(); lpn++ {
		ppn := lookup(t, c.FTL(), lpn)
		if ppn == flash.InvalidPPN {
			continue
		}
		mapped++
		if prev, dup := seen[ppn]; dup {
			t.Fatalf("%s: lpn %d and %d both map to ppn %d", c.FTL().Name(), prev, lpn, ppn)
		}
		seen[ppn] = lpn
		if st := c.Device().PageState(ppn); st != flash.PageValid {
			t.Fatalf("%s: lpn %d -> ppn %d state %v", c.FTL().Name(), lpn, ppn, st)
		}
		if got := c.Device().PageLPN(ppn); got != int64(lpn) {
			t.Fatalf("%s: ppn %d tagged %d, want %d", c.FTL().Name(), ppn, got, lpn)
		}
	}
	if mapped == 0 {
		t.Fatalf("%s: nothing mapped", c.FTL().Name())
	}
}

func TestEndToEndAllSchemes(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			c := buildTiny(t, scheme)
			preconditionTiny(t, c)
			reqs := tinyWorkload(t, c, 4000, 1)
			res, err := c.Run(trace.NewSliceReader(reqs))
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 4000 {
				t.Errorf("served %d", res.Requests)
			}
			if res.MeanRespMs <= 0 {
				t.Errorf("mean response %v ms", res.MeanRespMs)
			}
			if res.Erases == 0 {
				t.Errorf("no erases: GC/merges never ran on a 90%%-utilized device")
			}
			checkMappingConsistency(t, c)

			switch scheme {
			case SchemeDLOOP:
				// Copy-back must dominate; the external path is only the
				// low-space parity fallback, rare even on this tiny
				// saturated device.
				if res.GCCopyBacks == 0 {
					t.Errorf("DLOOP performed no copy-backs")
				}
				if res.GCExternalMoves*5 > res.GCCopyBacks {
					t.Errorf("DLOOP external moves %d exceed 20%% of copy-backs %d",
						res.GCExternalMoves, res.GCCopyBacks)
				}
			case SchemeDFTL:
				if res.CopyBacks != 0 {
					t.Errorf("DFTL used %d copy-backs; it must not", res.CopyBacks)
				}
				if res.GCExternalMoves == 0 {
					t.Errorf("DFTL GC never moved a page externally")
				}
			case SchemeFAST:
				if res.CopyBacks != 0 {
					t.Errorf("FAST used %d copy-backs; it must not", res.CopyBacks)
				}
				if res.FullMerges+res.PartialMerges+res.SwitchMerges == 0 {
					t.Errorf("FAST performed no merges")
				}
			}
		})
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		c := buildTiny(t, SchemeDLOOP)
		preconditionTiny(t, c)
		reqs := tinyWorkload(t, c, 2000, 7)
		res, err := c.Run(trace.NewSliceReader(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanRespMs != b.MeanRespMs || a.Erases != b.Erases || a.SDRPP != b.SDRPP ||
		a.GCCopyBacks != b.GCCopyBacks || a.WastedPages != b.WastedPages {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestReadsOfWrittenDataCostFlashReads(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, c)
	rt, err := c.Serve(trace.Request{Arrival: 0, LBN: 0, Sectors: 4, Op: trace.OpRead})
	if err != nil {
		t.Fatal(err)
	}
	if rt <= 0 {
		t.Fatal("read of preconditioned data should cost time")
	}
	if c.Device().Stats().Reads() == 0 {
		t.Fatal("no flash read issued")
	}
}

func TestServeRejectsOutOfRange(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	huge := trace.Request{Arrival: 0, LBN: 1 << 40, Sectors: 4, Op: trace.OpRead}
	if _, err := c.Serve(huge); err == nil {
		t.Fatal("out-of-range request accepted")
	}
	bad := trace.Request{Arrival: 0, LBN: 0, Sectors: 0, Op: trace.OpRead}
	if _, err := c.Serve(bad); err == nil {
		t.Fatal("invalid request accepted")
	}
}

// TestEnqueueBatchAllOrNothing pins EnqueueBatch's contract on both request
// paths: a chunk with an invalid request is rejected whole, so the valid
// requests before it are not served either.
func TestEnqueueBatchAllOrNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			c := buildMQ(t, mqConfig(SchemeDLOOP, tinyGeometry(), shards))
			valid := trace.Request{Arrival: 0, LBN: 0, Sectors: 4, Op: trace.OpWrite}
			invalid := trace.Request{Arrival: 1, LBN: 0, Sectors: 0, Op: trace.OpRead}
			if err := c.EnqueueBatch([]trace.Request{valid, invalid}); err == nil {
				t.Fatal("chunk with an invalid request accepted")
			}
			if res := c.Result(); res.Requests != 0 || res.PagesWrit != 0 {
				t.Fatalf("rejected chunk served %d requests, %d pages", res.Requests, res.PagesWrit)
			}
		})
	}
}

func TestMultiPageRequestSplitsAcrossPlanes(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, c)
	// 8 pages starting at page 0: with plane = lpn mod 8 they stripe over
	// all 8 planes. The first pass faults the mappings into the CMT; the
	// second, warmed pass must complete in roughly single-page time (plus
	// bus serialization), not 8x.
	pageSectors := 2048 / trace.SectorSize
	req := trace.Request{Arrival: 0, LBN: 0, Sectors: 8 * pageSectors, Op: trace.OpRead}
	if _, err := c.Serve(req); err != nil {
		t.Fatal(err)
	}
	req.Arrival = sim.Time(1 * sim.Second)
	rt, err := c.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	single := c.Device().Timing().ExternalRead(2048)
	if rt > 4*single {
		t.Errorf("8-page striped read took %v, want close to one page read %v (bus-serialized), not 8x", rt, single)
	}
	res := c.Result()
	nonzero := 0
	for _, ops := range res.PlaneOps {
		if ops > 0 {
			nonzero++
		}
	}
	if nonzero != 8 {
		t.Errorf("read touched %d planes, want 8", nonzero)
	}
}

func TestDLOOPParityWasteAccounted(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, c)
	reqs := tinyWorkload(t, c, 6000, 3)
	res, err := c.Run(trace.NewSliceReader(reqs))
	if err != nil {
		t.Fatal(err)
	}
	// The parity rule inevitably wastes some pages under random updates, and
	// waste must stay a small fraction of GC moves ("this extreme case
	// rarely happens").
	if res.GCCopyBacks > 0 && res.WastedPages == 0 {
		t.Log("no parity waste observed (acceptable but unusual)")
	}
	if res.WastedPages > res.GCCopyBacks {
		t.Errorf("parity waste %d exceeds copy-backs %d", res.WastedPages, res.GCCopyBacks)
	}
}

func TestAblationCopybackOff(t *testing.T) {
	cfg := tinyConfig(SchemeDLOOP)
	cfg.DisableCopyBack = true
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	preconditionTiny(t, c)
	res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 4000, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.CopyBacks != 0 {
		t.Errorf("ablation still used %d copy-backs", res.CopyBacks)
	}
	if res.GCExternalMoves == 0 {
		t.Errorf("ablation GC never moved pages")
	}
	if res.WastedPages != 0 {
		t.Errorf("ablation wasted %d pages; parity rule should not apply", res.WastedPages)
	}
}

func TestAdaptiveGCRuns(t *testing.T) {
	cfg := tinyConfig(SchemeDLOOP)
	cfg.AdaptiveGC = true
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	preconditionTiny(t, c)
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 4000, 1))); err != nil {
		t.Fatal(err)
	}
	checkMappingConsistency(t, c)
}

func TestDLOOPPlacementInvariant(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, c)
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 3000, 9))); err != nil {
		t.Fatal(err)
	}
	// Equation (1): every mapped data page lives on plane lpn mod planes,
	// even after arbitrary GC activity.
	f := c.FTL().(*pagemap.FTL)
	geo := c.Device().Geometry()
	for lpn := ftl.LPN(0); lpn < f.Capacity(); lpn++ {
		ppn := f.Lookup(lpn)
		if ppn == flash.InvalidPPN {
			continue
		}
		want := int(int64(lpn) % int64(geo.Planes()))
		if got := geo.PlaneOf(ppn); got != want {
			t.Fatalf("lpn %d on plane %d, want %d", lpn, got, want)
		}
	}
}

func TestExportedBytes(t *testing.T) {
	got, err := ExportedBytes(Config{CapacityGB: 8, PageSizeKB: 2, ExtraPct: 0.03, FTL: SchemeDLOOP})
	if err != nil {
		t.Fatal(err)
	}
	if got != 8<<30 {
		t.Fatalf("ExportedBytes = %d, want %d", got, int64(8)<<30)
	}
	geo := tinyGeometry()
	got, err = ExportedBytes(Config{Geometry: &geo, ExtraPct: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got >= geo.PhysicalBytes() {
		t.Fatalf("override geometry exported %d of %d physical", got, geo.PhysicalBytes())
	}
	bad := geo
	bad.Channels = 0
	if _, err := ExportedBytes(Config{Geometry: &bad}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if _, err := ExportedBytes(Config{CapacityGB: 3}); err == nil {
		t.Fatal("unbuildable capacity accepted")
	}
}

func TestScaledGeometryFor(t *testing.T) {
	full, err := ScaledGeometryFor(8, 2, 0.03, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := GeometryFor(8, 2, 0.03, 3)
	if full != ref {
		t.Fatal("scale 1 should equal GeometryFor")
	}
	small, err := ScaledGeometryFor(8, 2, 0.03, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Planes() != ref.Planes() {
		t.Fatal("scaling must preserve plane count")
	}
	if small.BlocksPerPlane >= ref.BlocksPerPlane {
		t.Fatal("scaling must shrink blocks per plane")
	}
	// Floor: never fewer than 16 data blocks.
	tiny, err := ScaledGeometryFor(8, 2, 0.03, 3, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.BlocksPerPlane < 16 {
		t.Fatalf("floor violated: %d", tiny.BlocksPerPlane)
	}
	for _, bad := range []float64{0, -1, 1.5} {
		if _, err := ScaledGeometryFor(8, 2, 0.03, 3, bad); err == nil {
			t.Fatalf("scale %v accepted", bad)
		}
	}
}

func TestPureMapSchemesEndToEnd(t *testing.T) {
	for _, scheme := range []string{SchemePureMap, SchemePureMapStriped} {
		cfg := tinyConfig(scheme)
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		preconditionTiny(t, c)
		res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2000, 13)))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.FTL == "" || res.MeanRespMs <= 0 || res.GCRuns == 0 {
			t.Fatalf("%s: result %+v", scheme, res)
		}
		// The ideal page map must beat its demand-paged counterpart given
		// identical placement, because translation is free.
		if res.TransReads != 0 || res.TransWrites != 0 {
			t.Fatalf("%s: ideal map paid translation traffic", scheme)
		}
	}
}

func TestPreconditionRejectsOversize(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	if err := c.Precondition(c.FTL().Capacity() + 1); err == nil {
		t.Fatal("oversized precondition accepted")
	}
}
