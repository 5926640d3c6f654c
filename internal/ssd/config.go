// Package ssd assembles a complete simulated solid-state disk: a flash
// device, one of the FTL schemes, and a controller that splits host requests
// into page operations, preconditions the device into steady state, replays
// traces, and collects the paper's metrics (mean response time, SDRPP, and
// the garbage-collection/merge accounting behind them).
package ssd

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/fast"
	"dloop/internal/ftl/gc"
	"dloop/internal/ftl/pagemap"
	"dloop/internal/ftl/translate"
)

// FTL scheme names accepted by Config.FTL. The paper evaluates the first
// three; the PureMap pair are idealized all-in-SRAM page maps used as upper
// bounds. DLOOP, DFTL and the PureMap pair are presets of the one
// page-mapping FTL in internal/ftl/pagemap.
const (
	SchemeDLOOP          = "DLOOP"
	SchemeDFTL           = "DFTL"
	SchemeFAST           = "FAST"
	SchemePureMap        = "PureMap"
	SchemePureMapStriped = "PureMap-striped"
)

// Schemes lists the three FTLs in the order the paper's figures plot them.
func Schemes() []string { return []string{SchemeDLOOP, SchemeDFTL, SchemeFAST} }

// allSchemes lists every scheme Build accepts: the paper's three, then the
// PureMap pair.
var allSchemes = []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped}

// AutoShards, as Config.FTLShards, selects one FTL shard per channel on
// shapes of at least eight channels.
const AutoShards = -1

// Config describes one simulated SSD, in the units Table I uses.
type Config struct {
	// CapacityGB is the exported (data) capacity. Table I varies
	// 4/8/16/32/64 with 8 the default.
	CapacityGB int
	// PageSizeKB is the flash page size. Table I varies 2/4/8/16 with 2 the
	// default.
	PageSizeKB int
	// ExtraPct is over-provisioning as a fraction of the data blocks.
	// Table I varies 0.03/0.05/0.07/0.10 with 0.03 the default.
	ExtraPct float64
	// FTL picks the scheme: SchemeDLOOP (the default), SchemeDFTL,
	// SchemeFAST, SchemePureMap, or SchemePureMapStriped.
	FTL string

	// CMTEntries sizes the SRAM mapping cache of DLOOP and DFTL (default
	// 4096 entries = 32 KB at 8 B/entry).
	CMTEntries int
	// GCThreshold is the free-block trigger (the paper's 3).
	GCThreshold int
	// GCPolicy selects the garbage-collection victim policy for every
	// scheme: "greedy" (default for the page-mapping FTLs), "costbenefit",
	// "windowed", or "fifo" (FAST's default log-block eviction). Empty keeps
	// each scheme's historical default.
	GCPolicy string
	// TranslatePolicy selects the address-translation policy of the
	// demand-paged schemes (DLOOP, DFTL): "slru" (default) or "learned" (see
	// internal/ftl/translate). Other schemes keep their all-in-SRAM maps and
	// reject a non-default setting.
	TranslatePolicy string
	// DisableCopyBack runs DLOOP's E5 ablation (external GC moves).
	DisableCopyBack bool
	// AdaptiveGC runs DLOOP's E7 extension (hot-plane-aware thresholds).
	AdaptiveGC bool
	// StripeBy runs DLOOP's E8 ablation: the unit consecutive logical pages
	// stripe over first ("plane" — the paper's equation (1) and the
	// default — "die", "chip", or "channel").
	StripeBy string
	// FTLShards partitions the logical address space over this many
	// concurrent FTL shards behind a multi-queue host front end (see
	// frontend.go). Each shard owns a private sub-device of
	// Channels/FTLShards channels with its own mapping state, free-block
	// pools, garbage collector, and worker goroutine, so placement and
	// collection decisions run concurrently — a different (striped) device
	// organization, not an accelerated identical one. Completions fold into
	// the statistics in arrival order, so a sharded run is bit-identical run
	// to run and to the controller's inline loop over the same shard layout.
	// 0 or 1 keeps a single FTL; AutoShards uses one shard per channel on
	// devices with at least 8 channels and a single FTL below that; other
	// values are reduced to the largest divisor of the channel count.
	// Attaching an *obs.Collector keeps the shards concurrent (each shard
	// records into a private child collector, merged deterministically at
	// epoch barriers); any other recorder stops the workers, so requests run
	// inline while it is attached.
	FTLShards int

	// Geometry, when non-nil, overrides the capacity-derived geometry
	// entirely (tests use miniature devices).
	Geometry *flash.Geometry
	// Timing, when non-nil, overrides Table I's latencies.
	Timing *flash.Timing
}

func (c *Config) setDefaults() {
	if c.CapacityGB == 0 {
		c.CapacityGB = 8
	}
	if c.PageSizeKB == 0 {
		c.PageSizeKB = 2
	}
	if c.ExtraPct == 0 {
		c.ExtraPct = 0.03
	}
	if c.FTL == "" {
		c.FTL = SchemeDLOOP
	}
	if c.CMTEntries == 0 {
		c.CMTEntries = 4096
	}
	if c.GCThreshold == 0 {
		c.GCThreshold = 3
	}
}

// Reference geometry constants (Fig. 1 and Table I, degarbled): 64 pages per
// block, 2048 data blocks per plane at the 2 KB reference page size, planes
// paired on dies, dies paired on chips, chips paired in packages, at most 8
// channels.
const (
	refPagesPerBlock  = 64
	refBlocksPerPlane = 2048
	refPageKB         = 2
	refPlanesPerDie   = 2
	refDiesPerChip    = 2
	refChipsPerPkg    = 2
	refMaxChannels    = 8
)

// planesPerPackage under the reference hierarchy.
const planesPerPackage = refPlanesPerDie * refDiesPerChip * refChipsPerPkg

// GeometryFor derives a device shape for a data capacity and page size.
// Plane count is fixed by capacity at the reference page size (one plane =
// 2048 blocks × 64 pages × 2 KB = 256 MB) so the page-size sweep (Fig. 9)
// varies page size at constant parallelism; capacity scales by adding
// packages spread round-robin over up to 8 channels (Fig. 8). Extra blocks
// are added per plane on top of the data blocks (Fig. 10).
func GeometryFor(capacityGB, pageSizeKB int, extraPct float64, gcThreshold int) (flash.Geometry, error) {
	if capacityGB < 1 || pageSizeKB < 1 {
		return flash.Geometry{}, fmt.Errorf("ssd: bad capacity %d GB / page %d KB", capacityGB, pageSizeKB)
	}
	planeMB := refBlocksPerPlane * refPagesPerBlock * refPageKB / 1024 // 256 MB
	planes := capacityGB * 1024 / planeMB
	if planes < 1 || capacityGB*1024%planeMB != 0 {
		return flash.Geometry{}, fmt.Errorf("ssd: capacity %d GB is not a whole number of %d MB planes", capacityGB, planeMB)
	}
	if planes%planesPerPackage != 0 {
		return flash.Geometry{}, fmt.Errorf("ssd: capacity %d GB does not fill whole packages", capacityGB)
	}
	packages := planes / planesPerPackage
	channels := packages
	if channels > refMaxChannels {
		channels = refMaxChannels
	}
	if packages%channels != 0 {
		return flash.Geometry{}, fmt.Errorf("ssd: %d packages do not spread evenly over %d channels", packages, channels)
	}
	dataBlocks := refBlocksPerPlane * refPageKB / pageSizeKB
	if dataBlocks < 8 || refBlocksPerPlane*refPageKB%pageSizeKB != 0 {
		return flash.Geometry{}, fmt.Errorf("ssd: page size %d KB too large for the reference plane", pageSizeKB)
	}
	extra := extraBlocksFor(dataBlocks, extraPct, gcThreshold)
	g := flash.Geometry{
		Channels:           channels,
		PackagesPerChannel: packages / channels,
		ChipsPerPackage:    refChipsPerPkg,
		DiesPerChip:        refDiesPerChip,
		PlanesPerDie:       refPlanesPerDie,
		BlocksPerPlane:     dataBlocks + extra,
		PagesPerBlock:      refPagesPerBlock,
		PageSize:           pageSizeKB * 1024,
	}
	return g, g.Validate()
}

// extraBlocksFor converts the paper's extra-block percentage (relative to
// data blocks) into a per-plane count, keeping at least gcThreshold+1 so
// collection always has destination room.
func extraBlocksFor(dataBlocks int, extraPct float64, gcThreshold int) int {
	extra := int(float64(dataBlocks)*extraPct + 0.999999)
	if min := gcThreshold + 1; extra < min {
		extra = min
	}
	return extra
}

// resolveGeometry derives the device geometry and per-plane extra-block
// count a Config describes (from an explicit override or the capacity).
func resolveGeometry(cfg Config) (flash.Geometry, int, error) {
	if cfg.Geometry != nil {
		geo := *cfg.Geometry
		if err := geo.Validate(); err != nil {
			return flash.Geometry{}, 0, err
		}
		return geo, ftl.ExtraBlocksPerPlane(geo.BlocksPerPlane, cfg.ExtraPct, cfg.GCThreshold), nil
	}
	geo, err := GeometryFor(cfg.CapacityGB, cfg.PageSizeKB, cfg.ExtraPct, cfg.GCThreshold)
	if err != nil {
		return flash.Geometry{}, 0, err
	}
	return geo, geo.BlocksPerPlane - refBlocksPerPlane*refPageKB/cfg.PageSizeKB, nil
}

// buildFTL constructs the configured FTL scheme, fresh, over dev.
func buildFTL(dev *flash.Device, cfg Config, extra int) (ftl.FTL, error) {
	switch cfg.FTL {
	case SchemeDLOOP, SchemeDFTL, SchemePureMap, SchemePureMapStriped:
		return pagemap.New(dev, pageMapConfig(cfg, extra))
	case SchemeFAST:
		return fast.New(dev, fast.Config{ExtraPerPlane: extra, GCPolicy: cfg.GCPolicy})
	}
	return nil, unknownScheme(cfg.FTL)
}

// recoverFTL reconstructs the configured FTL scheme over dev from its
// out-of-band page tags (each scheme's NewRecovered).
func recoverFTL(dev *flash.Device, cfg Config, extra int) (ftl.FTL, error) {
	switch cfg.FTL {
	case SchemeDLOOP, SchemeDFTL, SchemePureMap, SchemePureMapStriped:
		return pagemap.NewRecovered(dev, pageMapConfig(cfg, extra))
	case SchemeFAST:
		return fast.NewRecovered(dev, fast.Config{ExtraPerPlane: extra, GCPolicy: cfg.GCPolicy})
	}
	return nil, unknownScheme(cfg.FTL)
}

func unknownScheme(name string) error {
	return fmt.Errorf("ssd: unknown FTL %q (want %v)", name, allSchemes)
}

// pageMapConfig maps a page-mapping scheme to its preset layout, adjusted
// by DLOOP's ablation settings (Build rejects them on the other schemes).
func pageMapConfig(cfg Config, extra int) pagemap.Config {
	l, _ := pagemap.Preset(cfg.FTL)
	if cfg.DisableCopyBack {
		l.Moves = gc.MoveExternalParity
	}
	if cfg.StripeBy != "" {
		l.StripeBy = pagemap.Striping(cfg.StripeBy)
	}
	return pagemap.Config{
		Layout:          l,
		CMTEntries:      cfg.CMTEntries,
		TranslatePolicy: cfg.TranslatePolicy,
		GCThreshold:     cfg.GCThreshold,
		ExtraPerPlane:   extra,
		AdaptiveGC:      cfg.AdaptiveGC,
		GCPolicy:        cfg.GCPolicy,
	}
}

// Build constructs the device and FTL described by cfg — or, with
// FTLShards > 1, the N-shard multi-queue front end.
func Build(cfg Config) (*Controller, error) {
	explicitCMT := cfg.CMTEntries != 0
	cfg.setDefaults()
	if _, err := translate.ParsePolicy(cfg.TranslatePolicy); err != nil {
		return nil, fmt.Errorf("ssd: %w", err)
	}
	if p := cfg.TranslatePolicy; p != "" && p != translate.DefaultPolicy {
		if l, _ := pagemap.Preset(cfg.FTL); !l.DemandPaged {
			return nil, fmt.Errorf("ssd: translate policy %q needs a demand-paged scheme (DLOOP or DFTL), not %s", p, cfg.FTL)
		}
	}
	if cfg.FTL != SchemeDLOOP && (cfg.DisableCopyBack || cfg.AdaptiveGC || cfg.StripeBy != "") {
		return nil, fmt.Errorf("ssd: DisableCopyBack, AdaptiveGC and StripeBy apply to DLOOP only, not %s", cfg.FTL)
	}
	geo, extra, err := resolveGeometry(cfg)
	if err != nil {
		return nil, err
	}
	if explicitCMT {
		if cfg.CMTEntries < 2 {
			return nil, fmt.Errorf("ssd: CMTEntries %d too small (need at least 2)", cfg.CMTEntries)
		}
		if space := int64(ftl.ExportedPages(geo, extra)); int64(cfg.CMTEntries) > space {
			return nil, fmt.Errorf("ssd: CMTEntries %d exceeds the %d-page logical space (the cache would never evict)", cfg.CMTEntries, space)
		}
	}
	timing := flash.DefaultTiming()
	if cfg.Timing != nil {
		timing = *cfg.Timing
	}
	shards, err := buildShards(geo, timing, resolveFTLShards(cfg.FTLShards, geo.Channels), func(dev *flash.Device) (ftl.FTL, error) {
		return buildFTL(dev, cfg, extra)
	})
	if err != nil {
		return nil, err
	}
	return newController(shards, geo, cfg), nil
}

// ScaledGeometryFor shrinks GeometryFor's result by scale for quick runs:
// data blocks per plane scale down while the plane count, channel layout,
// and pages per block stay, so capacity ratios, parallelism, and relative
// utilization are preserved. scale must be in (0, 1].
func ScaledGeometryFor(capacityGB, pageSizeKB int, extraPct float64, gcThreshold int, scale float64) (flash.Geometry, error) {
	g, err := GeometryFor(capacityGB, pageSizeKB, extraPct, gcThreshold)
	if err != nil {
		return flash.Geometry{}, err
	}
	if scale <= 0 || scale > 1 {
		return flash.Geometry{}, fmt.Errorf("ssd: scale %v out of (0,1]", scale)
	}
	if scale == 1 {
		return g, nil
	}
	dataBlocks := refBlocksPerPlane * refPageKB / pageSizeKB
	scaled := int(float64(dataBlocks) * scale)
	if scaled < 16 {
		scaled = 16
	}
	extra := extraBlocksFor(scaled, extraPct, gcThreshold)
	g.BlocksPerPlane = scaled + extra
	return g, g.Validate()
}

// ExportedBytes computes the data capacity a Config will export, without
// building the device. Experiments use it to skip workloads whose footprint
// does not fit a configuration.
func ExportedBytes(cfg Config) (int64, error) {
	cfg.setDefaults()
	geo, extra, err := resolveGeometry(cfg)
	if err != nil {
		return 0, err
	}
	return int64(ftl.ExportedPages(geo, extra)) * int64(geo.PageSize), nil
}

// Recover simulates a power loss: it builds a fresh controller over c's
// device with all SRAM state (mapping table, GTD, CMT, pools, write points)
// rebuilt from the out-of-band page tags, the way a real controller comes
// back up. The page-mapping schemes (DLOOP, DFTL, PureMap) rebuild their
// exact tables; the hybrid FAST keeps block-role metadata the OOB tags do not
// capture, so its recovery reconstructs an equivalent — not identical —
// assignment of data and log blocks (see fast.NewRecovered).
func (c *Controller) Recover() (*Controller, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	cfg := c.cfg
	cfg.setDefaults()
	var extra int
	if cfg.Geometry != nil {
		extra = ftl.ExtraBlocksPerPlane(cfg.Geometry.BlocksPerPlane, cfg.ExtraPct, cfg.GCThreshold)
	} else {
		extra = c.geo.BlocksPerPlane - refBlocksPerPlane*refPageKB/cfg.PageSizeKB
	}
	c.Close() // the crashed controller stays usable for read-only lookups
	shards := make([]*ftlShard, len(c.shards))
	for i, sh := range c.shards {
		f, err := recoverFTL(sh.dev, cfg, extra)
		if err != nil {
			return nil, err
		}
		sh.dev.SetRecorder(nil)
		shards[i] = &ftlShard{idx: i, dev: sh.dev, f: f, planeMap: sh.planeMap, chipMap: sh.chipMap, chanMap: sh.chanMap}
	}
	nc := newController(shards, c.geo, cfg)
	nc.ResetMeasurement()
	return nc, nil
}
