package expt

import (
	"fmt"

	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// AblationCopyback (E5) isolates the paper's central mechanism: DLOOP with
// intra-plane copy-back versus the same FTL forced to move GC pages
// externally through the buses, on the write-dominant Financial1 trace
// across capacities. The gap is the benefit §III.A quantifies per move
// (225 µs vs 325 µs plus freed bus time).
func AblationCopyback(opt Options) (*Grid, error) {
	opt.setDefaults()
	p := scaleProfile(workload.Financial1(), opt.Scale)
	xVals := make([]string, len(CapacitiesGB))
	for i, gb := range CapacitiesGB {
		xVals[i] = fmt.Sprintf("%d", gb)
	}
	var jobs []job
	for _, gb := range CapacitiesGB {
		for _, variant := range []string{"copy-back", "external"} {
			cfg, ok := configFor(gb, 2, 0.03, ssd.SchemeDLOOP, opt)
			if !ok || !footprintFits(cfg, p) {
				continue
			}
			cfg.DisableCopyBack = variant == "external"
			jobs = append(jobs, job{
				key:     variant + "@" + fmt.Sprintf("%d", gb),
				series:  "DLOOP " + variant,
				x:       fmt.Sprintf("%d", gb),
				cfg:     cfg,
				profile: p,
			})
		}
	}
	results, err := runAll(jobs, opt)
	if err != nil {
		return nil, err
	}
	g := NewGrid("E5 ablation: DLOOP GC moves via copy-back vs external (Financial1)", "GB", "ms", xVals)
	for _, j := range jobs {
		if res, ok := results[j.key]; ok {
			g.Set(j.series, j.x, res.MeanRespMs)
		}
	}
	return g, nil
}

// ParityReport (E6) quantifies §III.A's same-parity overhead across the five
// traces at the default configuration: wasted pages per hundred GC moves.
// The paper asserts the worst case "rarely happens"; this measures it.
func ParityReport(opt Options) (*Grid, error) {
	opt.setDefaults()
	var jobs []job
	var xVals []string
	for _, p := range workload.All() {
		p := scaleProfile(p, opt.Scale)
		cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
		if !ok || !footprintFits(cfg, p) {
			continue
		}
		xVals = append(xVals, p.Name)
		jobs = append(jobs, job{key: p.Name, x: p.Name, cfg: cfg, profile: p})
	}
	results, err := runAll(jobs, opt)
	if err != nil {
		return nil, err
	}
	g := NewGrid("E6: same-parity waste (4 GB SSD)", "trace", "count / %", xVals)
	for _, j := range jobs {
		res, ok := results[j.key]
		if !ok {
			continue
		}
		g.Set("GC moves", j.x, float64(res.GCCopyBacks+res.GCExternalMoves))
		g.Set("wasted pages", j.x, float64(res.WastedPages))
		moves := res.GCCopyBacks + res.GCExternalMoves
		if moves > 0 {
			g.Set("waste per 100 moves", j.x, 100*float64(res.WastedPages)/float64(moves))
		} else {
			g.Set("waste per 100 moves", j.x, 0)
		}
	}
	return g, nil
}

// StripingStudy (E8) quantifies §II.C's parallelism-priority debate: the
// same DLOOP FTL striping consecutive logical pages across planes (equation
// (1)), dies, chips, or channels first. Run on the sequential-heavy Build
// trace, where a multi-page request's pages land on consecutive stripe
// units, and the bus-sharing of the chosen unit dominates.
func StripingStudy(opt Options) (*Grid, error) {
	opt.setDefaults()
	policies := []string{"plane", "die", "chip", "channel"}
	traces := []workload.Profile{workload.Build(), workload.Financial1()}
	var xVals []string
	for _, p := range traces {
		xVals = append(xVals, p.Name)
	}
	var jobs []job
	for _, p := range traces {
		p := scaleProfile(p, opt.Scale)
		for _, pol := range policies {
			cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
			if !ok || !footprintFits(cfg, p) {
				continue
			}
			cfg.StripeBy = pol
			jobs = append(jobs, job{
				key:     pol + "@" + p.Name,
				series:  "stripe-" + pol,
				x:       p.Name,
				cfg:     cfg,
				profile: p,
			})
		}
	}
	results, err := runAll(jobs, opt)
	if err != nil {
		return nil, err
	}
	g := NewGrid("E8 ablation: striping unit (DLOOP, 4 GB)", "trace", "ms", xVals)
	for _, j := range jobs {
		if res, ok := results[j.key]; ok {
			g.Set(j.series, j.x, res.MeanRespMs)
		}
	}
	return g, nil
}
