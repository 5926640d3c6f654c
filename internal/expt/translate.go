package expt

import (
	"fmt"

	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// TranslatePolicies lists the translation policies the E10 study compares:
// the default segmented-LRU cache against the learned LPN→PPN index.
func TranslatePolicies() []string { return []string{"slru", "learned"} }

// translateCMTSizes are the SRAM cache capacities E10 sweeps, honoring
// Options.Scale the same way configFor scales the default cache.
func translateCMTSizes(scale float64) []int {
	base := []int{1024, 4096, 16384}
	if scale >= 1 {
		return base
	}
	out := make([]int, len(base))
	for i, n := range base {
		s := int(float64(n) * scale)
		if s < 64 {
			s = 64
		}
		out[i] = s
	}
	return out
}

// TranslateStudy (E10) sweeps the translation engine's policy across the two
// demand-paged schemes on the sequential-write workload — the regularly
// placed traffic the learned index exists for — at three SRAM cache sizes.
// Per (scheme@policy, CMT entries) cell it reports the translation-page
// reads the mapping machinery charged (first grid) and the mean response
// time (second grid). A correct learned prediction resolves a CMT miss
// without the translation-page read, so at equal cache size `learned` should
// sit below `slru` in the first grid, most visibly at the smallest cache
// where misses dominate.
func TranslateStudy(opt Options) (*Grid, *Grid, error) {
	opt.setDefaults()
	p := scaleProfile(workload.SeqWrite(), opt.Scale)
	schemes := []string{ssd.SchemeDLOOP, ssd.SchemeDFTL}
	sizes := translateCMTSizes(opt.Scale)
	xVals := make([]string, len(sizes))
	for i, n := range sizes {
		xVals[i] = fmt.Sprintf("%d", n)
	}
	var jobs []job
	for _, scheme := range schemes {
		for _, pol := range TranslatePolicies() {
			for i, n := range sizes {
				cfg, ok := configFor(4, 2, 0.03, scheme, opt)
				if !ok || !footprintFits(cfg, p) {
					continue
				}
				cfg.CMTEntries = n
				cfg.TranslatePolicy = pol
				jobs = append(jobs, job{
					key:     scheme + "@" + pol + "@" + xVals[i],
					series:  scheme + "/" + pol,
					x:       xVals[i],
					cfg:     cfg,
					profile: p,
				})
			}
		}
	}
	results, err := runAll(jobs, opt)
	if err != nil {
		return nil, nil, err
	}
	reads := NewGrid("E10: translation policy vs translation-page reads (SeqWrite, 4 GB)", "CMT entries", "count", xVals)
	mrt := NewGrid("E10: translation policy vs mean response time (SeqWrite, 4 GB)", "CMT entries", "ms", xVals)
	for _, j := range jobs {
		res, ok := results[j.key]
		if !ok {
			continue
		}
		reads.Set(j.series, j.x, float64(res.TransReads))
		mrt.Set(j.series, j.x, res.MeanRespMs)
	}
	return reads, mrt, nil
}
