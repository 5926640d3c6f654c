// Package expt regenerates every table and figure of the paper's evaluation
// (§V): the capacity sweep (Fig. 8), the page-size sweep (Fig. 9), the
// extra-blocks sweep (Fig. 10), the headline improvement ratios (§I, §V.B),
// and this reproduction's ablations (copy-back on/off, parity-waste
// accounting). Each experiment preconditions the device with the workload's
// footprint, replays a deterministic synthetic trace, and reports the
// paper's two metrics: mean response time and SDRPP.
package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// Options tune how much work an experiment does.
type Options struct {
	// Requests per run (default 400,000; the paper replays 0.4M-5.3M).
	Requests int
	// Seed for the workload generators (default 42). Every run of an
	// experiment uses the same seed so FTLs see identical request streams.
	Seed int64
	// Workers bounds concurrent runs (default runtime.NumCPU()).
	Workers int
	// TranslatePolicy, when non-empty, is copied into every demand-paged
	// (DLOOP/DFTL) job's ssd.Config that does not set its own: "slru" or
	// "learned" (see internal/ftl/translate). Schemes without a
	// demand-paged map ignore it.
	TranslatePolicy string
	// CMTEntries, when non-zero, overrides the SRAM mapping-cache size for
	// every job that does not pin its own (including the Scale-derived
	// default).
	CMTEntries int
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)
	// Scale shrinks workload footprints and request counts together for
	// quick runs (default 1.0 = paper scale). Capacities shrink too, via
	// mini geometries, when Scale < 1.
	Scale float64

	// MetricsDir, when set, attaches an observability collector to every run
	// and writes one <key>.metrics.json per run into the directory.
	MetricsDir string
	// TraceDir, when set, writes one <key>.trace.json Chrome trace-event
	// document per run (openable in ui.perfetto.dev). The trace buffer is
	// capped at obs.DefaultTraceLimit events; overflow is counted, not kept.
	TraceDir string
	// SnapshotIntervalMs, when > 0, adds SDRPP/utilization/throughput time
	// series to each run's metrics, sampled every N simulated milliseconds.
	SnapshotIntervalMs int
	// Exporter, when non-nil, receives live merged registry snapshots from
	// every observed cell at its epoch barriers (wall-clock rate-limited);
	// serve it over HTTP with internal/obs/httpexport. Sweep cells run
	// concurrently, so the exporter shows whichever cell published last —
	// each snapshot carries its cell's ftl label.
	Exporter Publisher

	// WarmupCache, when set, is a directory of persistent warm-up checkpoints
	// (see WarmupCache): before simulating a cell's warm-up the sweep looks
	// for <WarmupKey>.ckpt there, and after a fresh warm-up it publishes one.
	// Entries are content-addressed by configuration digest and footprint, so
	// a stale or foreign file can never poison a run — it is rejected on load
	// and overwritten. Share one directory across processes and sweeps to make
	// repeated sweeps skip preconditioning entirely. Unset, every cell builds
	// and preconditions its own simulator: the from-scratch reference.
	WarmupCache string
	// Stats, when non-nil, accumulates warm-up cache and cell counters across
	// every sweep run with these Options.
	Stats *SweepStats
}

func (o *Options) setDefaults() {
	if o.Requests == 0 {
		o.Requests = 400_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Run executes one simulation: build the SSD, precondition the workload's
// footprint, replay the trace, return the results.
func Run(cfg ssd.Config, profile workload.Profile, requests int, seed int64) (ssd.Result, error) {
	return RunObserved(cfg, profile, requests, seed, nil, nil)
}

// RunObserved is Run with a warm-up cache and an observability attach point.
// The warm-up comes from wc.Warm: restored when the cache holds a checkpoint
// for (cfg, footprint), simulated and published otherwise, and always
// simulated with a nil or directory-less cache. After the warm-up (so the
// recorded stream covers exactly the measured window), attach is called with
// the warmed controller and any non-nil Recorder it returns is wired through
// the whole stack. attach may be nil. The request stream comes from the
// shared packed arena for (profile, seed) — generated once per process,
// replayed read-only through a private cursor — so concurrent cells serving
// the same stream never regenerate it.
func RunObserved(cfg ssd.Config, profile workload.Profile, requests int, seed int64,
	wc *WarmupCache, attach func(*ssd.Controller) obs.Recorder) (ssd.Result, error) {
	c, err := wc.Warm(cfg, profile.FootprintBytes)
	if err != nil {
		return ssd.Result{}, err
	}
	defer c.Close()
	if attach != nil {
		if rec := attach(c); rec != nil {
			if err := c.SetRecorder(rec); err != nil {
				return ssd.Result{}, fmt.Errorf("expt: %w", err)
			}
		}
	}
	arena, err := workload.MaterializeArena(profile, seed, requests)
	if err != nil {
		return ssd.Result{}, err
	}
	// Run replays the cursor in chunks (NextN + EnqueueBatch), pipelining
	// page commands onto the FTL shard workers on a multi-queue controller;
	// on a single-FTL controller each request is served inline.
	res, err := c.Run(arena.Cursor())
	if err != nil {
		return ssd.Result{}, fmt.Errorf("expt: %s/%s: %w", cfg.FTL, profile.Name, err)
	}
	return res, nil
}

// job is one (config, workload) cell of a sweep.
type job struct {
	key     string
	series  string
	x       string
	cfg     ssd.Config
	profile workload.Profile
	// seed, when non-zero, overrides Options.Seed for this cell, so cells can
	// share one warm-up (through the cache) and replay different streams.
	seed int64
}

// effSeed resolves the cell's workload seed.
func (j job) effSeed(opt Options) int64 {
	if j.seed != 0 {
		return j.seed
	}
	return opt.Seed
}

// sanitizeKey turns a job key into a safe file-name stem.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}

// runCell executes one sweep cell: warm up (from the cache when
// opt.WarmupCache holds the cell's warm-up), then replay the measured window.
// When the options request observability output it attaches a collector per
// cell and writes the cell's metrics.json (and optionally its trace-event
// document) named after the job key.
func runCell(j job, opt Options) (ssd.Result, error) {
	path := func(dir, ext string) (string, error) {
		if dir == "" {
			return "", nil
		}
		return filepath.Join(dir, sanitizeKey(j.key)+ext), os.MkdirAll(dir, 0o755)
	}
	metricsPath, err := path(opt.MetricsDir, ".metrics.json")
	if err != nil {
		return ssd.Result{}, err
	}
	tracePath, err := path(opt.TraceDir, ".trace.json")
	if err != nil {
		return ssd.Result{}, err
	}
	ob, err := NewObserver(metricsPath, tracePath, sim.Duration(opt.SnapshotIntervalMs)*sim.Millisecond, opt.Exporter)
	if err != nil {
		return ssd.Result{}, err
	}
	wc := &WarmupCache{Dir: opt.WarmupCache, Stats: opt.Stats}
	res, err := RunObserved(j.cfg, j.profile, opt.Requests, j.effSeed(opt), wc, ob.Attach)
	if err := ob.Finish(err); err != nil {
		return ssd.Result{}, err
	}
	return res, nil
}

// runAll executes jobs on a bounded worker pool: at most opt.Workers
// goroutines pull cells from a shared queue in submission order, so a
// 60-cell sweep does not spawn 60 goroutines (each run pins megabytes of
// simulator state). Completed cells stream their Result to a single
// aggregator goroutine immediately, so no worker holds simulator state while
// waiting for the sweep to end. After the first failure the remaining queue
// drains without running.
func runAll(jobs []job, opt Options) (map[string]ssd.Result, error) {
	opt.setDefaults()
	// Translation-engine knobs: the policy applies only to the demand-paged
	// schemes (ssd.Build rejects it elsewhere), the cache size to any job
	// that did not pin its own.
	if opt.TranslatePolicy != "" {
		for i := range jobs {
			scheme := jobs[i].cfg.FTL
			if (scheme == ssd.SchemeDLOOP || scheme == ssd.SchemeDFTL) && jobs[i].cfg.TranslatePolicy == "" {
				jobs[i].cfg.TranslatePolicy = opt.TranslatePolicy
			}
		}
	}
	if opt.CMTEntries != 0 {
		for i := range jobs {
			if jobs[i].cfg.CMTEntries == 0 {
				jobs[i].cfg.CMTEntries = opt.CMTEntries
			}
		}
	}

	// Streaming aggregation: cells publish results as they finish.
	type keyed struct {
		key string
		res ssd.Result
	}
	resCh := make(chan keyed, opt.Workers)
	results := make(map[string]ssd.Result, len(jobs))
	aggDone := make(chan struct{})
	go func() {
		defer close(aggDone)
		for r := range resCh {
			results[r.key] = r.res
		}
	}()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	stopped := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	queue := make(chan job, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < min(opt.Workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if stopped() {
					continue
				}
				res, err := runCell(j, opt)
				if err != nil {
					fail(err)
					continue
				}
				resCh <- keyed{key: j.key, res: res}
				opt.progress("done %-28s mean=%8.3f ms  sdrpp=%5.2f  gc=%d", j.key, res.MeanRespMs, res.SDRPP, res.GCRuns)
			}
		}()
	}
	wg.Wait()
	close(resCh)
	<-aggDone
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// scaleProfile shrinks a workload for quick runs.
func scaleProfile(p workload.Profile, scale float64) workload.Profile {
	if scale >= 1 {
		return p
	}
	return p.ScaleFootprint(scale)
}

// footprintFits reports whether a workload's footprint fits the capacity a
// configuration exports.
func footprintFits(cfg ssd.Config, p workload.Profile) bool {
	exported, err := ssd.ExportedBytes(cfg)
	return err == nil && p.FootprintBytes <= exported
}
