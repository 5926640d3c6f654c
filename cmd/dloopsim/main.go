// Command dloopsim runs one SSD simulation and prints a detailed report.
// The workload is either one of the paper's five synthetic profiles or a
// trace file in DiskSim ASCII or SPC-1 CSV format.
//
// Usage:
//
//	dloopsim -ftl DLOOP -capacity 8 -trace Financial1 -requests 200000
//	dloopsim -ftl FAST -tracefile f1.spc -format spc
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dloop"
	"dloop/internal/expt"
	"dloop/internal/obs"
	"dloop/internal/obs/httpexport"
	"dloop/internal/prof"
	"dloop/internal/sim"
	"dloop/internal/ssd"
	"dloop/internal/trace"
)

func main() {
	var (
		ftlName    = flag.String("ftl", "DLOOP", "FTL scheme: DLOOP|DFTL|FAST|BAST|PureMap|PureMap-striped")
		capacity   = flag.Int("capacity", 8, "SSD capacity in GB (4/8/16/32/64)")
		pageKB     = flag.Int("page", 2, "page size in KB (2/4/8/16)")
		extraPct   = flag.Float64("extra", 0.03, "extra blocks as a fraction of data blocks")
		traceName  = flag.String("trace", "Financial1", "synthetic workload: Financial1|Financial2|TPC-C|Exchange|Build")
		traceFile  = flag.String("tracefile", "", "replay a trace file instead of a synthetic workload")
		format     = flag.String("format", "disksim", "trace file format: disksim|spc")
		requests   = flag.Int("requests", 200_000, "synthetic requests to replay")
		seed       = flag.Int64("seed", 42, "workload seed")
		footprint  = flag.Int64("footprint", 0, "precondition footprint in MiB (0 = workload default)")
		nocb       = flag.Bool("no-copyback", false, "DLOOP E5 ablation: external GC moves")
		adaptive   = flag.Bool("adaptive-gc", false, "DLOOP E7 extension: hot-plane-aware GC thresholds")
		stripeBy   = flag.String("stripe-by", "", "DLOOP E8 ablation: plane|die|chip|channel")
		gcPolicy   = flag.String("gc-policy", "", "GC victim policy: greedy|costbenefit|windowed|fifo (empty = scheme default)")
		translate  = flag.String("translate", "", "translation policy for DLOOP/DFTL: slru|lru|learned (empty = slru)")
		cmtEntries = flag.Int("cmt-entries", 0, "SRAM mapping-cache entries for DLOOP/DFTL (0 = default 4096); validated against the logical space")
		bufPages   = flag.Int("buffer-pages", 0, "DRAM write buffer capacity in pages (0 = off)")
		ftlShards  = flag.String("ftl-shards", "1", "concurrent FTL shards: the logical space splits LPN mod N over N independent FTLs (1 = single FTL), or 'auto' for one per channel on 8+ channel shapes")
		warmCache  = flag.String("warmup-cache", "", "directory of persistent warm-up checkpoints, content-addressed by (config, footprint); matching warm-ups restore from disk instead of simulating, fresh ones are published for later runs")

		metricsOut  = flag.String("metrics-out", "", "write the run's observability metrics.json to this file")
		traceEvents = flag.String("trace-events", "", "write a Chrome trace-event/Perfetto timeline of every flash op to this file")
		snapshotMs  = flag.Int("snapshot-interval", 0, "emit SDRPP/utilization time-series snapshots every N simulated ms (0 = off)")
		listen      = flag.String("listen", "", "serve live Prometheus /metrics, /metrics.json and /debug/pprof on this address (e.g. :9090) while the run executes")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut   = flag.String("trace-out", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	stopProf, perr := prof.Start(prof.Config{CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *traceOut})
	if perr != nil {
		fmt.Fprintln(os.Stderr, "dloopsim:", perr)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dloopsim:", err)
		}
	}()

	nFTLShards, err := dloop.ParseShards(*ftlShards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dloopsim: -ftl-shards:", err)
		os.Exit(1)
	}

	cfg := dloop.Config{
		CapacityGB:      *capacity,
		PageSizeKB:      *pageKB,
		ExtraPct:        *extraPct,
		FTL:             *ftlName,
		DisableCopyBack: *nocb,
		AdaptiveGC:      *adaptive,
		StripeBy:        *stripeBy,
		GCPolicy:        *gcPolicy,
		TranslatePolicy: *translate,
		CMTEntries:      *cmtEntries,
		BufferPages:     *bufPages,
		FTLShards:       nFTLShards,
	}

	ob, err := newObserver(*metricsOut, *traceEvents, *snapshotMs, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dloopsim:", err)
		os.Exit(1)
	}

	wc := &dloop.WarmupCache{Dir: *warmCache, Stats: &dloop.SweepStats{}}

	start := time.Now()
	var res dloop.Result
	if *traceFile != "" {
		res, err = replayFile(cfg, *traceFile, *format, *footprint, wc, ob)
	} else {
		p, ok := dloop.WorkloadByName(*traceName)
		if !ok {
			fmt.Fprintf(os.Stderr, "dloopsim: unknown trace %q\n", *traceName)
			os.Exit(1)
		}
		if *footprint > 0 {
			p.FootprintBytes = *footprint << 20
		}
		res, err = expt.RunCachedObserved(cfg, p, *requests, *seed, wc, ob.attach)
	}
	if err == nil {
		err = ob.finish()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dloopsim:", err)
		os.Exit(1)
	}
	if *warmCache != "" {
		fmt.Fprintln(os.Stderr, wc.Stats.Summary())
	}
	report(res, time.Since(start))
}

// observer owns the command's observability sinks: it builds one collector
// per run (at the post-precondition attach point), publishes live snapshots
// to the HTTP exporter at epoch barriers, and flushes the metrics and trace
// files when the run finishes.
type observer struct {
	metricsOut string
	traceFile  *os.File
	snapshot   sim.Duration
	col        *obs.Collector
	srv        *httpexport.Server
	lastPub    time.Time
}

func newObserver(metricsOut, traceEvents string, snapshotMs int, listen string) (*observer, error) {
	ob := &observer{
		metricsOut: metricsOut,
		snapshot:   sim.Duration(snapshotMs) * sim.Millisecond,
	}
	if traceEvents != "" {
		f, err := os.Create(traceEvents)
		if err != nil {
			return nil, err
		}
		ob.traceFile = f
	}
	if listen != "" {
		srv, err := httpexport.Listen(listen)
		if err != nil {
			if ob.traceFile != nil {
				ob.traceFile.Close()
			}
			return nil, err
		}
		ob.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (Prometheus), /metrics.json, /debug/pprof/\n", srv.Addr())
	}
	return ob, nil
}

// enabled reports whether any observability output was requested.
func (ob *observer) enabled() bool {
	return ob.metricsOut != "" || ob.traceFile != nil || ob.snapshot > 0 || ob.srv != nil
}

// attach builds the collector for a freshly preconditioned SSD; it returns
// nil (observability disabled, zero overhead) when no flag asked for output.
func (ob *observer) attach(c *ssd.Controller) obs.Recorder {
	if !ob.enabled() {
		return nil
	}
	o := c.ObsOptions()
	if ob.traceFile != nil {
		o.TraceEvents = ob.traceFile
	}
	o.SnapshotInterval = ob.snapshot
	ob.col = obs.NewCollector(o)
	if ob.srv != nil {
		c.SetPulse(ob.publish)
		ob.publish()
	}
	return ob.col
}

// publish pushes a merged registry snapshot to the exporter, throttled on
// the wall clock: the simulator pulses at every epoch barrier, far faster
// than any scraper polls.
func (ob *observer) publish() {
	if time.Since(ob.lastPub) < 250*time.Millisecond {
		return
	}
	ob.lastPub = time.Now()
	ob.srv.Publish(ob.col.SnapshotRegistry())
}

// finish closes the collector and writes the requested artifacts.
func (ob *observer) finish() error {
	if ob.col == nil {
		return nil
	}
	if err := ob.col.Close(); err != nil {
		return err
	}
	if ob.srv != nil {
		// Final state, bypassing the rate limit; the endpoint stays up until
		// the process exits so a last scrape can collect it.
		if err := ob.srv.Publish(ob.col.SnapshotRegistry()); err != nil {
			return err
		}
	}
	if ob.traceFile != nil {
		if err := ob.traceFile.Close(); err != nil {
			return err
		}
	}
	if ob.metricsOut == "" {
		return nil
	}
	f, err := os.Create(ob.metricsOut)
	if err != nil {
		return err
	}
	if err := ob.col.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func replayFile(cfg dloop.Config, path, format string, footprintMiB int64, wc *dloop.WarmupCache, ob *observer) (dloop.Result, error) {
	// LoadArena parses the file once into a shared columnar arena; repeated
	// replays of the same file (and the stats summary below) reuse it.
	arena, err := trace.LoadArena(path, format)
	if err != nil {
		return dloop.Result{}, err
	}
	st := arena.Stats()
	fmt.Printf("trace: %s\n", st)

	c, err := ssd.Build(cfg)
	if err != nil {
		return dloop.Result{}, err
	}
	defer c.Close()
	footprint := st.MaxEnd * trace.SectorSize
	if footprintMiB > 0 {
		footprint = footprintMiB << 20
	}
	// A cached warm-up replaces the preconditioning simulation when the cache
	// holds this (config, footprint); otherwise precondition and publish.
	if !wc.LoadInto(c, cfg, footprint) {
		if err := c.PreconditionBytes(footprint); err != nil {
			return dloop.Result{}, err
		}
		_ = wc.Save(c, cfg, footprint)
	}
	if rec := ob.attach(c); rec != nil {
		c.SetRecorder(rec)
	}
	return c.Run(arena.Cursor())
}

func report(res dloop.Result, wall time.Duration) {
	fmt.Printf("FTL:                 %s\n", res.FTL)
	if res.GCPolicy != "" {
		fmt.Printf("GC policy:           %s\n", res.GCPolicy)
	}
	fmt.Printf("requests:            %d (%d page reads, %d page writes)\n", res.Requests, res.PagesRead, res.PagesWrit)
	fmt.Printf("simulated time:      %.1f s\n", res.SimulatedS)
	fmt.Printf("mean response time:  %.3f ms (std %.3f, p50 %.3f, p99 %.3f, max %.3f)\n",
		res.MeanRespMs, res.StdRespMs, res.P50Ms, res.P99Ms, res.MaxRespMs)
	fmt.Printf("  reads %.3f ms / writes %.3f ms\n", res.ReadMeanMs, res.WriteMeanMs)
	fmt.Printf("SDRPP (ln):          %.2f over %d planes\n", res.SDRPP, len(res.PlaneOps))
	fmt.Printf("flash ops:           %d reads, %d writes, %d copy-backs, %d erases\n",
		res.Reads, res.Writes, res.CopyBacks, res.Erases)
	fmt.Printf("GC:                  %d runs, %d copy-back moves, %d external moves, %d parity-wasted pages\n",
		res.GCRuns, res.GCCopyBacks, res.GCExternalMoves, res.WastedPages)
	if res.TransReads+res.TransWrites > 0 {
		fmt.Printf("mapping:             CMT hit %.1f%%, %d translation reads, %d translation writes\n",
			100*res.CMTHitRate, res.TransReads, res.TransWrites)
		if res.LearnedHits > 0 {
			fmt.Printf("  learned index:     %d verified predictions (translation reads skipped)\n", res.LearnedHits)
		}
	}
	if res.SwitchMerges+res.PartialMerges+res.FullMerges > 0 {
		fmt.Printf("merges:              %d switch, %d partial, %d full (%d pages copied)\n",
			res.SwitchMerges, res.PartialMerges, res.FullMerges, res.MergeCopies)
	}
	fmt.Printf("wear:                %d erases total, CV %.3f\n", res.TotalErases, res.WearCV)
	fmt.Printf("wall time:           %v\n", wall.Round(time.Millisecond))
}
