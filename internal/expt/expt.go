// Package expt regenerates every table and figure of the paper's evaluation
// (§V): the capacity sweep (Fig. 8), the page-size sweep (Fig. 9), the
// extra-blocks sweep (Fig. 10), the headline improvement ratios (§I, §V.B),
// and this reproduction's ablations (copy-back on/off, parity-waste
// accounting, hot-plane adaptive GC). Each experiment preconditions the
// device with the workload's footprint, replays a deterministic synthetic
// trace, and reports the paper's two metrics: mean response time and SDRPP.
package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dloop/internal/obs"
	"dloop/internal/obs/httpexport"
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
	Exporter *httpexport.Server

	// NoFork disables warm-up sharing: every sweep cell builds and
	// preconditions its own simulator instead of forking a checkpoint taken
	// after one shared warm-up. It also bypasses WarmupCache, so a NoFork
	// sweep is always the from-scratch reference. Forked and fresh runs are
	// bit-identical, so this exists only for debugging and for A/B-ing the
	// optimisation itself.
	NoFork bool
	// WarmupCache, when set, is a directory of persistent warm-up checkpoints
	// (see WarmupCache): before simulating a group's warm-up prefix the sweep
	// looks for <WarmupKey>.ckpt there, and after a fresh warm-up it publishes
	// one. Entries are content-addressed by configuration digest and
	// footprint, so a stale or foreign file can never poison a run — it is
	// rejected on load and overwritten. Share one directory across processes
	// and sweeps to make repeated sweeps skip preconditioning entirely.
	WarmupCache string
	// Stats, when non-nil, accumulates warm-up cache and fork-scheduler
	// counters across every sweep run with these Options.
	Stats *SweepStats
}

// observes reports whether any observability output is requested.
func (o Options) observes() bool {
	return o.MetricsDir != "" || o.TraceDir != "" || o.SnapshotIntervalMs > 0 ||
		o.Exporter != nil
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
	return RunObserved(cfg, profile, requests, seed, nil)
}

// RunObserved is Run with an observability attach point: after the device is
// preconditioned (so the recorded stream covers exactly the measured window),
// attach is called with the built controller and any non-nil Recorder it
// returns is wired through the whole stack. attach may be nil.
func RunObserved(cfg ssd.Config, profile workload.Profile, requests int, seed int64,
	attach func(*ssd.Controller) obs.Recorder) (ssd.Result, error) {
	c, err := buildWarm(cfg, profile)
	if err != nil {
		return ssd.Result{}, err
	}
	defer c.Close()
	return resumeObserved(c, cfg, profile, requests, seed, attach)
}

// RunCachedObserved is RunObserved backed by a persistent warm-up cache: when
// the cache holds a checkpoint for (cfg, footprint) the preconditioning phase
// is restored from disk instead of simulated, and a freshly simulated warm-up
// is published back for later processes (see WarmupCache.Warm). With a nil or
// directory-less cache it returns RunObserved's result. Cache publication
// failures are counted in the cache's Stats but never fail the run.
func RunCachedObserved(cfg ssd.Config, profile workload.Profile, requests int, seed int64,
	wc *WarmupCache, attach func(*ssd.Controller) obs.Recorder) (ssd.Result, error) {
	c, err := wc.Warm(cfg, profile.FootprintBytes)
	if err != nil {
		return ssd.Result{}, err
	}
	defer c.Close()
	return resumeObserved(c, cfg, profile, requests, seed, attach)
}

// buildWarm builds the SSD and preconditions the workload's footprint — the
// warm-up prefix that every cell of a (config, footprint) group shares.
func buildWarm(cfg ssd.Config, profile workload.Profile) (*ssd.Controller, error) {
	c, err := ssd.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("expt: build %s: %w", cfg.FTL, err)
	}
	if err := c.PreconditionBytes(profile.FootprintBytes); err != nil {
		return nil, fmt.Errorf("expt: precondition %s/%s: %w", cfg.FTL, profile.Name, err)
	}
	return c, nil
}

// resumeObserved replays the measured window on an already warmed controller.
// The request stream comes from the shared columnar arena for (profile, seed)
// — generated once per process, replayed read-only through a private cursor —
// so concurrent cells serving the same stream never regenerate it. Any
// recorder the attach hook wires up is detached again before returning, which
// lets the fork path restore and reuse the controller for the next cell.
func resumeObserved(c *ssd.Controller, cfg ssd.Config, profile workload.Profile, requests int, seed int64,
	attach func(*ssd.Controller) obs.Recorder) (ssd.Result, error) {
	if attach != nil {
		if rec := attach(c); rec != nil {
			c.SetRecorder(rec)
			defer c.SetRecorder(nil)
		}
	}
	arena, err := workload.MaterializeArena(profile, seed, requests)
	if err != nil {
		return ssd.Result{}, err
	}
	cur := arena.Cursor()
	for i := 0; i < requests; i++ {
		req, err := cur.Next()
		if err != nil {
			return ssd.Result{}, err
		}
		// Enqueue pipelines page commands onto the FTL shard workers on a
		// multi-queue controller (epoch handoffs happen inside the
		// controller); on a single-FTL controller it is Serve.
		if err := c.Enqueue(req); err != nil {
			return ssd.Result{}, fmt.Errorf("expt: %s/%s request %d: %w", cfg.FTL, profile.Name, i, err)
		}
	}
	return c.Result(), nil
}

// job is one (config, workload) cell of a sweep.
type job struct {
	key     string
	series  string
	x       string
	cfg     ssd.Config
	profile workload.Profile
	// seed, when non-zero, overrides Options.Seed for this cell. Replication
	// sweeps use it to fan several request streams out of one shared warm-up.
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

// runJob executes one sweep cell from scratch: own build, own warm-up.
func runJob(j job, opt Options) (ssd.Result, error) {
	return runCell(j, opt, nil)
}

// runCell executes one sweep cell. When warmed is non-nil it is a controller
// already holding the cell's shared warm-up state (the fork path) and only
// the measured window runs; otherwise the cell builds and preconditions its
// own. When the options request observability output it attaches a collector
// per cell and writes the cell's metrics.json (and optionally its trace-event
// document) named after the job key.
func runCell(j job, opt Options, warmed *ssd.Controller) (ssd.Result, error) {
	seed := j.effSeed(opt)
	exec := func(attach func(*ssd.Controller) obs.Recorder) (ssd.Result, error) {
		if warmed != nil {
			return resumeObserved(warmed, j.cfg, j.profile, opt.Requests, seed, attach)
		}
		return RunObserved(j.cfg, j.profile, opt.Requests, seed, attach)
	}
	if !opt.observes() {
		return exec(nil)
	}
	var tf *os.File
	if opt.TraceDir != "" {
		if err := os.MkdirAll(opt.TraceDir, 0o755); err != nil {
			return ssd.Result{}, err
		}
		var err error
		tf, err = os.Create(filepath.Join(opt.TraceDir, sanitizeKey(j.key)+".trace.json"))
		if err != nil {
			return ssd.Result{}, err
		}
		defer tf.Close()
	}
	var col *obs.Collector
	res, err := exec(func(c *ssd.Controller) obs.Recorder {
		o := c.ObsOptions()
		if tf != nil {
			o.TraceEvents = tf
		}
		o.SnapshotInterval = sim.Duration(opt.SnapshotIntervalMs) * sim.Millisecond
		col = obs.NewCollector(o)
		if opt.Exporter != nil {
			// Publish merged snapshots at epoch barriers, throttled on the
			// wall clock so tight barrier loops don't spend their time
			// rendering expositions.
			var last time.Time
			c.SetPulse(func() {
				if time.Since(last) < 250*time.Millisecond {
					return
				}
				last = time.Now()
				opt.Exporter.Publish(col.SnapshotRegistry())
			})
		}
		return col
	})
	if err != nil {
		return ssd.Result{}, err
	}
	if err := col.Close(); err != nil {
		return ssd.Result{}, err
	}
	if opt.Exporter != nil {
		if err := opt.Exporter.Publish(col.SnapshotRegistry()); err != nil {
			return ssd.Result{}, err
		}
	}
	if opt.MetricsDir != "" {
		if err := os.MkdirAll(opt.MetricsDir, 0o755); err != nil {
			return ssd.Result{}, err
		}
		mf, err := os.Create(filepath.Join(opt.MetricsDir, sanitizeKey(j.key)+".metrics.json"))
		if err != nil {
			return ssd.Result{}, err
		}
		if err := col.WriteMetrics(mf); err != nil {
			mf.Close()
			return ssd.Result{}, err
		}
		if err := mf.Close(); err != nil {
			return ssd.Result{}, err
		}
	}
	return res, nil
}

// runAll executes jobs on a bounded worker pool: exactly opt.Workers
// goroutines pull from a shared task queue, so a 60-cell sweep does not spawn
// 60 goroutines (each run pins megabytes of simulator state). Jobs sharing a
// (config, footprint) warm-up prefix are grouped; a group obtains the warm
// state once — from the persistent cache when opt.WarmupCache hits, from one
// fresh warm-up otherwise — and fans its remaining cells back out to the pool
// as fork tasks, each restoring the group's shared checkpoint on whichever
// worker picks it up (see runGroupTask / runForkTask). Completed cells stream
// their Result to a single aggregator goroutine immediately, so no worker
// holds simulator state while waiting for the sweep to end. After the first
// failure the remaining queue drains without running.
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
	groups := groupJobs(jobs, opt)

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
	emit := func(j job, res ssd.Result) {
		resCh <- keyed{key: j.key, res: res}
		opt.progress("done %-28s mean=%8.3f ms  sdrpp=%5.2f  gc=%d", j.key, res.MeanRespMs, res.SDRPP, res.GCRuns)
	}

	sc := &sweepCtx{
		opt:     opt,
		cache:   &WarmupCache{Dir: opt.WarmupCache, Stats: opt.Stats},
		stats:   opt.Stats,
		emit:    emit,
		fail:    fail,
		stopped: stopped,
	}
	// The queue holds every group task up front plus, transiently, the fork
	// tasks groups fan back out — at most one per job — so the buffer below
	// means no send ever blocks. pending counts queued-but-undrained tasks;
	// whichever worker drains the last one closes the queue. A group task
	// enqueues its forks before its own done(), so pending cannot touch zero
	// while work is still being produced.
	tasks := make(chan task, len(jobs)+len(groups))
	pending := int64(len(groups))
	done := func() {
		if atomic.AddInt64(&pending, -1) == 0 {
			close(tasks)
		}
	}
	sc.enqueue = func(t task) {
		atomic.AddInt64(&pending, 1)
		tasks <- t
	}
	for _, g := range groups {
		tasks <- task{group: g}
	}
	if len(groups) == 0 {
		close(tasks)
	}
	var wg sync.WaitGroup
	// Cap at the job count, not the group count: a single-config sweep is one
	// group, but its forked cells spread across every worker.
	workers := opt.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws workerState
			defer ws.close()
			for t := range tasks {
				if t.group != nil {
					runGroupTask(sc, &ws, t.group)
				} else {
					runForkTask(sc, &ws, t)
				}
				done()
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

// sortedKeys returns map keys in sorted order for deterministic rendering.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// footprintFits reports whether a workload's footprint fits the capacity a
// configuration exports.
func footprintFits(cfg ssd.Config, p workload.Profile) bool {
	exported, err := ssd.ExportedBytes(cfg)
	return err == nil && p.FootprintBytes <= exported
}
