package expt

import (
	"fmt"

	"dloop/internal/ftl"
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// Capacities, page sizes, and extra-block percentages from Table I.
var (
	CapacitiesGB = []int{4, 8, 16, 32, 64}
	PageSizesKB  = []int{2, 4, 8, 16}
	ExtraPcts    = []float64{0.03, 0.05, 0.07, 0.10}
)

func seriesName(trace, ftl string) string { return trace + "/" + ftl }

// sweep runs trace x scheme over one swept parameter and fills a mean-
// response-time grid and an SDRPP grid.
func sweep(title, xLabel string, xVals []string, mkJob func(x string, p workload.Profile, scheme string) (job, bool), opt Options) (*Grid, *Grid, error) {
	opt.setDefaults()
	var jobs []job
	for _, p := range workload.All() {
		p := scaleProfile(p, opt.Scale)
		for _, x := range xVals {
			for _, scheme := range ssd.Schemes() {
				j, ok := mkJob(x, p, scheme)
				if !ok {
					continue
				}
				j.series = seriesName(p.Name, scheme)
				j.x = x
				j.key = j.series + "@" + x
				jobs = append(jobs, j)
			}
		}
	}
	results, err := runAll(jobs, opt)
	if err != nil {
		return nil, nil, err
	}
	mrt := NewGrid(title+" — mean response time", xLabel, "ms", xVals)
	sdrpp := NewGrid(title+" — SDRPP", xLabel, "ln(stddev of requests per plane)", xVals)
	for _, j := range jobs {
		res, ok := results[j.key]
		if !ok {
			continue
		}
		mrt.Set(j.series, j.x, res.MeanRespMs)
		sdrpp.Set(j.series, j.x, res.SDRPP)
	}
	return mrt, sdrpp, nil
}

// Fig8 regenerates the SSD-capacity sweep: mean response time and SDRPP for
// the five traces and three FTLs at 4/8/16/32/64 GB, 2 KB pages, 3% extra.
func Fig8(opt Options) (mrt, sdrpp *Grid, err error) {
	xVals := make([]string, len(CapacitiesGB))
	for i, gb := range CapacitiesGB {
		xVals[i] = fmt.Sprintf("%d", gb)
	}
	return sweep("Fig. 8: impact of flash SSD capacity", "GB", xVals,
		func(x string, p workload.Profile, scheme string) (job, bool) {
			var gb int
			fmt.Sscanf(x, "%d", &gb)
			cfg, ok := configFor(gb, 2, 0.03, scheme, opt)
			if !ok || !footprintFits(cfg, p) {
				return job{}, false
			}
			return job{cfg: cfg, profile: p}, true
		}, opt)
}

// Fig9 regenerates the page-size sweep: 2/4/8/16 KB pages at 8 GB, 3% extra.
func Fig9(opt Options) (mrt, sdrpp *Grid, err error) {
	xVals := make([]string, len(PageSizesKB))
	for i, kb := range PageSizesKB {
		xVals[i] = fmt.Sprintf("%d", kb)
	}
	return sweep("Fig. 9: impact of page size (8 GB SSD)", "KB", xVals,
		func(x string, p workload.Profile, scheme string) (job, bool) {
			var kb int
			fmt.Sscanf(x, "%d", &kb)
			cfg, ok := configFor(8, kb, 0.03, scheme, opt)
			return job{cfg: cfg, profile: p}, ok
		}, opt)
}

// Fig10 regenerates the extra-blocks sweep: 3/5/7/10% at 8 GB, 2 KB pages.
func Fig10(opt Options) (mrt, sdrpp *Grid, err error) {
	xVals := make([]string, len(ExtraPcts))
	for i, pct := range ExtraPcts {
		xVals[i] = fmt.Sprintf("%.0f%%", pct*100)
	}
	return sweep("Fig. 10: impact of extra blocks (8 GB SSD)", "extra", xVals,
		func(x string, p workload.Profile, scheme string) (job, bool) {
			var pct float64
			fmt.Sscanf(x, "%f%%", &pct)
			cfg, ok := configFor(8, 2, pct/100, scheme, opt)
			return job{cfg: cfg, profile: p}, ok
		}, opt)
}

// configFor builds the ssd.Config for one run, honoring Options.Scale by
// substituting a proportionally shrunk geometry and SRAM cache.
func configFor(capacityGB, pageKB int, extraPct float64, scheme string, opt Options) (ssd.Config, bool) {
	cfg := ssd.Config{
		CapacityGB: capacityGB,
		PageSizeKB: pageKB,
		ExtraPct:   extraPct,
		FTL:        scheme,
	}
	if opt.Scale < 1 {
		geo, err := ssd.ScaledGeometryFor(capacityGB, pageKB, extraPct, ftl.GCThreshold, opt.Scale)
		if err != nil {
			return ssd.Config{}, false
		}
		cfg.Geometry = &geo
		cmt := int(4096 * opt.Scale)
		if cmt < 64 {
			cmt = 64
		}
		cfg.CMTEntries = cmt
	}
	if opt.CMTEntries != 0 {
		cfg.CMTEntries = opt.CMTEntries
	}
	return cfg, true
}

// Headline computes the paper's §I/§V.B summary: DLOOP's mean-response-time
// improvement over DFTL and FAST at the smallest and largest capacities,
// averaged over the traces that fit. It reuses a Fig8 mean-response grid.
func Headline(mrt *Grid) *Grid {
	out := NewGrid("Headline: DLOOP improvement in mean response time", "GB", "% improvement", mrt.XVals)
	for _, x := range mrt.XVals {
		for _, base := range []string{ssd.SchemeDFTL, ssd.SchemeFAST} {
			var sum float64
			var n int
			for _, p := range workload.All() {
				d, okD := mrt.Get(seriesName(p.Name, ssd.SchemeDLOOP), x)
				b, okB := mrt.Get(seriesName(p.Name, base), x)
				if !okD || !okB || b == 0 {
					continue
				}
				sum += (b - d) / b * 100
				n++
			}
			if n > 0 {
				out.Set("vs "+base, x, sum/float64(n))
			}
		}
	}
	return out
}
