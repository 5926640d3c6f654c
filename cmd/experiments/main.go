// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Each figure produces an aligned text table on stdout
// and, with -out, a CSV per grid.
//
// Usage:
//
//	experiments -exp all -requests 400000 -out results/
//	experiments -exp fig8 -scale 0.05 -requests 20000   # quick pass
//
// Experiments: fig8 (capacity sweep), fig9 (page size), fig10 (extra
// blocks), headline (improvement ratios, implies fig8), ablation (E5
// copy-back on/off), parity (E6 same-parity waste), striping (E8 striping
// unit), gcpolicy (E9 victim-policy sweep), translate (E10
// translation-policy sweep), all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dloop"
	"dloop/internal/obs/httpexport"
	"dloop/internal/prof"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig8|fig9|fig10|headline|ablation|parity|striping|gcpolicy|translate|all")
		requests   = flag.Int("requests", 400_000, "requests per run")
		seed       = flag.Int64("seed", 42, "workload seed")
		scale      = flag.Float64("scale", 1.0, "shrink device+footprint for quick runs (0,1]")
		workers    = flag.Int("workers", 0, "concurrent runs (0 = NumCPU)")
		translate  = flag.String("translate", "", "translation policy for the DLOOP/DFTL runs: slru|learned (empty = slru; the translate experiment sweeps its own)")
		cmtEntries = flag.Int("cmt-entries", 0, "SRAM mapping-cache entries for DLOOP/DFTL runs (0 = scheme default; the translate experiment sweeps its own)")
		outDir     = flag.String("out", "", "directory for CSV output (optional)")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		warmCache  = flag.String("warmup-cache", "", "directory of persistent warm-up checkpoints, content-addressed by (config, footprint); sweeps restore matching warm-ups instead of simulating them and publish fresh ones for later runs")

		metricsOut  = flag.String("metrics-out", "", "directory receiving one metrics.json per run")
		traceEvents = flag.String("trace-events", "", "directory receiving one Chrome trace-event document per run")
		snapshotMs  = flag.Int("snapshot-interval", 0, "emit SDRPP/utilization time-series snapshots every N simulated ms (0 = off)")
		listen      = flag.String("listen", "", "serve live Prometheus /metrics, /metrics.json and /debug/pprof on this address (e.g. :9090) while the sweep runs")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut   = flag.String("trace-out", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	stopProf, perr := prof.Start(prof.Config{CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *traceOut})
	if perr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", perr)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	opt := dloop.Options{
		Requests: *requests, Seed: *seed, Scale: *scale, Workers: *workers,
		TranslatePolicy: *translate, CMTEntries: *cmtEntries,
		MetricsDir: *metricsOut, TraceDir: *traceEvents, SnapshotIntervalMs: *snapshotMs,
		WarmupCache: *warmCache,
	}
	stats := &dloop.SweepStats{}
	if *warmCache != "" {
		opt.Stats = stats
	}
	if *listen != "" {
		srv, err := httpexport.Listen(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (Prometheus), /metrics.json, /debug/pprof/\n", srv.Addr())
		opt.Exporter = srv
	}
	if !*quiet {
		opt.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	start := time.Now()
	if err := run(*exp, opt, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *warmCache != "" {
		fmt.Fprintln(os.Stderr, stats.Summary())
	}
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
}

func run(exp string, opt dloop.Options, outDir string) error {
	want := func(name string) bool { return exp == "all" || exp == name }
	emit := func(name string, grids ...*dloop.Grid) error {
		for i, g := range grids {
			if g == nil {
				continue
			}
			fmt.Println()
			if err := g.Render(os.Stdout); err != nil {
				return err
			}
			if outDir != "" {
				if err := os.MkdirAll(outDir, 0o755); err != nil {
					return err
				}
				path := filepath.Join(outDir, fmt.Sprintf("%s_%d.csv", name, i))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := g.CSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	ran := false
	var fig8MRT *dloop.Grid
	if want("fig8") || want("headline") {
		ran = true
		mrt, sdrpp, err := dloop.Fig8(opt)
		if err != nil {
			return err
		}
		fig8MRT = mrt
		if err := emit("fig8", mrt, sdrpp); err != nil {
			return err
		}
	}
	if want("headline") {
		ran = true
		if err := emit("headline", dloop.Headline(fig8MRT)); err != nil {
			return err
		}
	}
	if want("fig9") {
		ran = true
		mrt, sdrpp, err := dloop.Fig9(opt)
		if err != nil {
			return err
		}
		if err := emit("fig9", mrt, sdrpp); err != nil {
			return err
		}
	}
	if want("fig10") {
		ran = true
		mrt, sdrpp, err := dloop.Fig10(opt)
		if err != nil {
			return err
		}
		if err := emit("fig10", mrt, sdrpp); err != nil {
			return err
		}
	}
	if want("ablation") {
		ran = true
		g, err := dloop.AblationCopyback(opt)
		if err != nil {
			return err
		}
		if err := emit("ablation", g); err != nil {
			return err
		}
	}
	if want("parity") {
		ran = true
		g, err := dloop.ParityReport(opt)
		if err != nil {
			return err
		}
		if err := emit("parity", g); err != nil {
			return err
		}
	}
	if want("striping") {
		ran = true
		g, err := dloop.StripingStudy(opt)
		if err != nil {
			return err
		}
		if err := emit("striping", g); err != nil {
			return err
		}
	}
	if want("gcpolicy") {
		ran = true
		mrt, moves, err := dloop.GCPolicyStudy(opt)
		if err != nil {
			return err
		}
		if err := emit("gcpolicy", mrt, moves); err != nil {
			return err
		}
	}
	if want("translate") {
		ran = true
		reads, mrt, err := dloop.TranslateStudy(opt)
		if err != nil {
			return err
		}
		if err := emit("translate", reads, mrt); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", exp,
			strings.Join([]string{"fig8", "fig9", "fig10", "headline", "ablation", "parity", "striping", "gcpolicy", "translate", "all"}, "|"))
	}
	return nil
}
