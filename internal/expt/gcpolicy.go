package expt

import (
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// GCPolicies lists the victim-selection policies the E9 study sweeps. The
// empty string keeps each scheme's historical default (greedy for the
// page-mapping FTLs, fifo log eviction for the hybrids).
func GCPolicies() []string { return []string{"", "costbenefit", "fifo"} }

// gcPolicyLabel names a policy column; the default is labeled by role rather
// than "" so the table reads.
func gcPolicyLabel(pol string) string {
	if pol == "" {
		return "default"
	}
	return pol
}

// GCPolicyStudy (E9) sweeps the unified GC engine's victim-selection policy
// across the paper's three schemes on the update-heavy Financial1 trace:
// each scheme's historical default against cost-benefit (Kawaguchi's
// age-scaled benefit/cost ratio) and FIFO (oldest block first, FAST's own
// default). It reports
// mean response time per (scheme, policy) cell and, in a second grid, the GC
// relocation volume that explains the differences.
func GCPolicyStudy(opt Options) (*Grid, *Grid, error) {
	opt.setDefaults()
	p := scaleProfile(workload.Financial1(), opt.Scale)
	schemes := []string{ssd.SchemeDLOOP, ssd.SchemeDFTL, ssd.SchemeFAST}
	var xVals []string
	for _, pol := range GCPolicies() {
		xVals = append(xVals, gcPolicyLabel(pol))
	}
	var jobs []job
	for _, scheme := range schemes {
		for _, pol := range GCPolicies() {
			cfg, ok := configFor(4, 2, 0.03, scheme, opt)
			if !ok || !footprintFits(cfg, p) {
				continue
			}
			cfg.GCPolicy = pol
			jobs = append(jobs, job{
				key:     scheme + "@" + gcPolicyLabel(pol),
				series:  scheme,
				x:       gcPolicyLabel(pol),
				cfg:     cfg,
				profile: p,
			})
		}
	}
	results, err := runAll(jobs, opt)
	if err != nil {
		return nil, nil, err
	}
	mrt := NewGrid("E9: GC victim policy vs mean response time (Financial1, 4 GB)", "policy", "ms", xVals)
	moves := NewGrid("E9: GC victim policy vs pages relocated (Financial1, 4 GB)", "policy", "count", xVals)
	for _, j := range jobs {
		res, ok := results[j.key]
		if !ok {
			continue
		}
		mrt.Set(j.series, j.x, res.MeanRespMs)
		// GCExternalMoves counts every CauseGC write at the device, which
		// already includes the hybrids' merge copies.
		moves.Set(j.series, j.x, float64(res.GCCopyBacks+res.GCExternalMoves))
	}
	return mrt, moves, nil
}
