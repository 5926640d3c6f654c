package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dloop/internal/expt"
	"dloop/internal/ssd"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// childEnv carries a childSpec to a repetition's child process. Every
// untraced repetition is a fresh process, so heap growth and peak RSS of one
// repetition never leak into the next.
const childEnv = "DLOOP_BENCH_CHILD"

type childSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Dir      string  `json:"dir"` // scratch directory for the trace file
}

// repReport is what one repetition measured.
type repReport struct {
	Attempted int64    `json:"attempted"` // requests offered
	Served    int64    `json:"served"`    // requests Run completed without error
	SetupS    float64  `json:"setup_s"`
	WindowS   float64  `json:"window_s"`
	RSSMB     float64  `json:"peak_rss_mb"`
	Digest    string   `json:"digest"` // of the whole Result (sweep: both grids)
	Sim       values   `json:"sim"`    // simulated metrics, exact for a fixed seed
	Layer     values   `json:"layer"`  // per-layer counts and timed set-up calls
	Regime    []string `json:"regime"` // broken regime checks
	Broken    []string `json:"broken"` // broken output checks
	// StolenS is the CPU time the hypervisor took from this VM while the
	// repetition ran, summed over CPUs.
	StolenS float64 `json:"stolen_s"`
}

// stolen reports whether the hypervisor took more than 2 % of one CPU away
// during the repetition. On the reference VM that happens in episodes of
// tens of seconds at half speed, which no statistic over five repetitions
// survives; such a repetition's timings are set aside and it is run again.
func (r *repReport) stolen() bool { return r.StolenS > 0.02*(r.SetupS+r.WindowS) }

// stolenSeconds reads the cumulative steal time off /proc/stat (0 where
// there is none to read).
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseFloat(f[8], 64)
		return ticks / 100 // USER_HZ
	}
	return 0
}

// capProcs applies GOMAXPROCS = min(nproc, 4): one driver goroutine plus the
// shard or sweep workers the reference box has cores for.
func capProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

func childMain(raw string) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(raw), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad spec:", err)
		return 2
	}
	s, ok := specByName(cs.Workload)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench child: unknown workload", cs.Workload)
		return 2
	}
	capProcs()
	stolen := stolenSeconds()
	var rep *repReport
	var err error
	if s.sweep {
		rep, err = sweepRep(s, cs)
	} else {
		rep, err = singleRep(s, cs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	rep.RSSMB = peakRSSMB()
	rep.StolenS = stolenSeconds() - stolen
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// pageSpan is the benchmark's own derivation of the logical pages a request
// touches (LBN·512 / PageSize), independent of the controller's.
func pageSpan(r trace.Request, pageSize int64) (first, n int64) {
	first = r.LBN * trace.SectorSize / pageSize
	last := (r.End()*trace.SectorSize - 1) / pageSize
	return first, last - first + 1
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// buildWarm builds and preconditions a simulator — everything the measured
// window starts from except the request stream — and returns it with the
// time each call took (ssd.build_s, ssd.precondition_s).
func buildWarm(cfg ssd.Config, p workload.Profile) (*ssd.Controller, values, error) {
	timing := values{}
	t := time.Now()
	c, err := ssd.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	timing["ssd.build_s"] = since(t)
	t = time.Now()
	if err := c.PreconditionBytes(p.FootprintBytes); err != nil {
		c.Close()
		return nil, nil, err
	}
	timing["ssd.precondition_s"] = since(t)
	return c, timing, nil
}

// writeTraceFile generates the stream and stores it in DiskSim ASCII, the
// form a user's -tracefile run starts from.
func writeTraceFile(path string, p workload.Profile, seed int64, n int) ([]trace.Request, error) {
	reqs, err := workload.Generate(p, seed, n)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := trace.WriteDiskSim(f, reqs); err != nil {
		f.Close()
		return nil, err
	}
	return reqs, f.Close()
}

// singleRep is one untraced repetition of a single-run workload: set-up,
// then the measured window Controller.Run -> Result.
func singleRep(s spec, cs childSpec) (*repReport, error) {
	n := scaled(s.n, cs.Scale)
	rep := &repReport{Attempted: int64(n), Layer: values{}}

	t0 := time.Now()
	cfg, p, err := s.config()
	if err != nil {
		return nil, err
	}
	c, timing, err := buildWarm(cfg, p)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	tm := time.Now()
	var arena *trace.Arena
	var at func(int) trace.Request // the generated stream, before any parsing
	path := filepath.Join(cs.Dir, s.name+".trace")
	if s.traceFile {
		reqs, err := writeTraceFile(path, p, cs.Seed, n)
		if err != nil {
			return nil, err
		}
		at = func(i int) trace.Request { return reqs[i] }
	} else {
		if arena, err = workload.MaterializeArena(p, cs.Seed, n); err != nil {
			return nil, err
		}
		at = arena.At
	}
	rep.Layer["workload.materialize_s"] = since(tm)
	runtime.GC() // set-up garbage is set-up cost, not the window's
	rep.SetupS = since(t0)
	for k, v := range timing {
		rep.Layer[k] = v
	}

	pageSize := int64(c.Geometry().PageSize)
	var pages int64
	for i := 0; i < n; i++ {
		_, k := pageSpan(at(i), pageSize)
		pages += k
	}
	at = nil

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := time.Now()
	if s.traceFile {
		if arena, err = trace.LoadArena(path, trace.FormatDiskSim); err != nil {
			return nil, err
		}
		rep.Layer["trace.parse_ns_per_req"] = float64(time.Since(w0).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&m1)
		rep.Layer["trace.parse_allocs"] = float64(m1.Mallocs - m0.Mallocs)
	}
	res, runErr := c.Run(arena.Cursor())
	rep.WindowS = since(w0)
	runtime.ReadMemStats(&m1)
	if runErr != nil {
		// The stream stops at the first failed request; everything not
		// served counts as failed.
		res = c.Result()
		rep.Broken = append(rep.Broken, "Run: "+runErr.Error())
	}
	rep.Served = res.Requests
	rep.Layer["ssd.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	rep.Layer["ssd.bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)

	if res.Requests != int64(n) {
		rep.Broken = append(rep.Broken, fmt.Sprintf("Requests %d, want %d", res.Requests, n))
	}
	if got := res.PagesRead + res.PagesWrit; got != pages {
		rep.Broken = append(rep.Broken, fmt.Sprintf("PagesRead+PagesWrit %d, stream spans %d", got, pages))
	}
	rep.Regime = s.regime(res, c)
	rep.Digest = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res))))
	rep.Sim = values{
		"sim_mrt_ms":      res.MeanRespMs,
		"sim_p99_ms":      res.P99Ms,
		"sim_sdrpp":       res.SDRPP,
		"sim_waf":         waf(res),
		"sim_simulated_s": res.SimulatedS,
	}
	resultCounts(rep.Layer, res, c, rep.WindowS)
	return rep, nil
}

// resultCounts reads the count-kind per-layer metrics off a finished window.
// They repeat exactly for a fixed seed.
func resultCounts(out values, res ssd.Result, c *ssd.Controller, windowS float64) {
	req := float64(res.Requests)
	switch c.Config().FTL {
	case ssd.SchemeDLOOP, ssd.SchemeDFTL:
		out["translate.cmt_hit_rate"] = res.CMTHitRate
		out["translate.trans_reads_per_req"] = float64(res.TransReads) / req
		out["translate.trans_writes_per_req"] = float64(res.TransWrites) / req
		out["translate.learned_hits"] = float64(res.LearnedHits)
	case ssd.SchemeFAST:
		out["fast.switch_merges"] = float64(res.SwitchMerges)
		out["fast.partial_merges"] = float64(res.PartialMerges)
		out["fast.full_merges"] = float64(res.FullMerges)
		out["fast.merge_copies"] = float64(res.MergeCopies)
	}
	out["gc.runs"] = float64(res.GCRuns)
	if res.GCRuns > 0 {
		out["gc.copybacks_per_run"] = float64(res.GCCopyBacks) / float64(res.GCRuns)
	}
	out["gc.external_moves"] = float64(res.GCExternalMoves)
	out["gc.wasted_pages"] = float64(res.WastedPages)
	ops := float64(res.Reads + res.Writes + res.CopyBacks + res.Erases)
	out["flash.ops_per_req"] = ops / req
	out["flash.host_ns_per_op"] = windowS * 1e9 / ops
	out["stats.wear_cv"] = res.WearCV

	var planeBusy, chanBusy float64
	var planes, chans int
	for i := 0; i < c.FTLShards(); i++ {
		pb, _, cb := c.ShardDevice(i).BusyTimes()
		for _, d := range pb {
			planeBusy += d.Seconds()
		}
		for _, d := range cb {
			chanBusy += d.Seconds()
		}
		planes += len(pb)
		chans += len(cb)
	}
	out["flash.plane_util_mean"] = planeBusy / float64(planes) / res.SimulatedS
	out["flash.channel_util_mean"] = chanBusy / float64(chans) / res.SimulatedS
}

// sweepProfiles are the request streams expt.Fig8 replays at sweepScale.
func sweepProfiles() []workload.Profile {
	ps := workload.All()
	for i := range ps {
		ps[i] = ps[i].ScaleFootprint(sweepScale)
	}
	return ps
}

func sweepOptions(seed int64, requests int, st *expt.SweepStats) expt.Options {
	return expt.Options{
		Scale:    sweepScale,
		Requests: requests,
		Seed:     seed,
		Workers:  runtime.GOMAXPROCS(0),
		Stats:    st,
	}
}

// sweepCells is the grid Fig8 must fill: 5 traces x 3 schemes x 5 capacities.
func sweepCells() int {
	return len(workload.All()) * len(ssd.Schemes()) * len(expt.CapacitiesGB)
}

// sweepRep is one untraced repetition of sweep_fig8: the shared arenas are
// materialised in set-up (as on every workload, generation is never on the
// clock), then one cold expt.Fig8 is the window.
func sweepRep(s spec, cs childSpec) (*repReport, error) {
	requests := scaled(s.n, cs.Scale)
	cells := sweepCells()
	rep := &repReport{Attempted: int64(cells * requests), Layer: values{}}

	t0 := time.Now()
	for _, p := range sweepProfiles() {
		if _, err := workload.MaterializeArena(p, cs.Seed, requests); err != nil {
			return nil, err
		}
	}
	rep.Layer["workload.materialize_s"] = since(t0)
	runtime.GC()
	rep.SetupS = since(t0)

	st := &expt.SweepStats{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := time.Now()
	mrt, sdrpp, err := expt.Fig8(sweepOptions(cs.Seed, requests, st))
	rep.WindowS = since(w0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		rep.Broken = append(rep.Broken, "Fig8: "+err.Error())
		return rep, nil
	}

	var filled int
	var mrtSum, sdrppSum float64
	var dloopCells int
	for _, p := range workload.All() {
		for _, scheme := range ssd.Schemes() {
			series := p.Name + "/" + scheme
			for _, x := range mrt.XVals {
				m, ok1 := mrt.Get(series, x)
				sd, ok2 := sdrpp.Get(series, x)
				if !ok1 || !ok2 {
					continue
				}
				filled++
				if scheme == ssd.SchemeDLOOP {
					dloopCells++
					mrtSum += m
					sdrppSum += sd
				}
			}
		}
	}
	rep.Served = int64(filled * requests)
	if filled != cells {
		rep.Broken = append(rep.Broken, fmt.Sprintf("%d of %d sweep cells present", filled, cells))
	}
	at := func(scheme string) float64 {
		v, _ := mrt.Get("Financial1/"+scheme, "4")
		return v
	}
	if d, f, x := at(ssd.SchemeDLOOP), at(ssd.SchemeDFTL), at(ssd.SchemeFAST); !(d < f && f < x) {
		rep.Regime = append(rep.Regime, fmt.Sprintf("Financial1@4GB MRT DLOOP %.3f, DFTL %.3f, FAST %.3f: want DLOOP < DFTL < FAST", d, f, x))
	}
	var grids bytes.Buffer
	if err := mrt.CSV(&grids); err != nil {
		return nil, err
	}
	if err := sdrpp.CSV(&grids); err != nil {
		return nil, err
	}
	rep.Digest = fmt.Sprintf("%x", sha256.Sum256(grids.Bytes()))
	rep.Sim = values{}
	if dloopCells > 0 {
		rep.Sim["sim_mrt_ms"] = mrtSum / float64(dloopCells)
		rep.Sim["sim_sdrpp"] = sdrppSum / float64(dloopCells)
	}
	rep.Layer["expt.wall_s"] = rep.WindowS
	rep.Layer["expt.cells_per_s"] = float64(filled) / rep.WindowS
	rep.Layer["expt.warmups"] = float64(st.Warmups())
	rep.Layer["expt.forked_cells"] = float64(st.ForkedCells())
	rep.Layer["expt.fresh_cells"] = float64(st.FreshCells())
	rep.Layer["ssd.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(rep.Attempted)
	rep.Layer["ssd.bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rep.Attempted)
	return rep, nil
}

// runOpts are the knobs of one benchmark run.
type runOpts struct {
	exe     string  // this program, re-executed for every repetition
	outDir  string  // bench/out
	seed    int64   // workload seed
	seconds float64 // how long to measure
	scale   float64 // size factor on every N (0.01 under -smoke)
	strict  bool    // broken regime checks fail the run (off under -smoke)
	minReps int
	maxReps int
}

// runResult is one untraced run of one workload: repetitions as child
// processes until the measured windows add up to opts.seconds.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Host      map[string]summary `json:"host"` // setup_s, sim_req_per_s, peak_rss_mb over the repetitions
	Values    values             `json:"values"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Stable    bool               `json:"result_digest_stable"`
	Digest    string             `json:"digest"`             // of the first repetition's Result
	Stolen    int                `json:"stolen_repetitions"` // re-run: the hypervisor took the CPU
	Problems  []string           `json:"problems"`
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 }

func spawnRep(o runOpts, s spec, dir string) (*repReport, error) {
	raw, err := json.Marshal(childSpec{Workload: s.name, Seed: o.seed, Scale: o.scale, Dir: dir})
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(o.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition of %s: %w", s.name, err)
	}
	var rep repReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("repetition of %s: bad report: %w", s.name, err)
	}
	return &rep, nil
}

func runUntraced(o runOpts, s spec) (*runResult, error) {
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &runResult{Workload: s.name, Seed: o.seed, Stable: true, Values: values{}}
	var reps []*repReport
	var setup, rate, rss []float64
	var measured float64
	timed := 0 // repetitions whose timings count
	for timed < o.maxReps && (timed < o.minReps || measured < o.seconds) {
		rep, err := spawnRep(o, s, dir)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		// A stolen repetition still counts for the output checks; its
		// timings count only once re-running has not helped either.
		if !rep.stolen() || len(reps) > timed+o.maxReps/2 {
			timed++
			measured += rep.WindowS
			setup = append(setup, rep.SetupS)
			rate = append(rate, float64(rep.Served)/rep.WindowS)
			rss = append(rss, rep.RSSMB)
		} else {
			res.Stolen++
		}
		res.Attempted += rep.Attempted
		res.Failed += rep.Attempted - rep.Served
		for _, b := range rep.Broken {
			res.Problems = append(res.Problems, "output check: "+b)
		}
		for _, b := range rep.Regime {
			if o.strict {
				res.Problems = append(res.Problems, "regime check: "+b)
			} else {
				fmt.Printf("  (regime check not enforced at this size: %s)\n", b)
			}
		}
		if rep.Digest != reps[0].Digest {
			res.Stable = false
		}
	}
	if !res.Stable {
		res.Problems = append(res.Problems, "repetitions produced different Results for one seed")
	}
	if res.Failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d requests failed", res.Failed, res.Attempted))
	}
	res.Host = map[string]summary{
		"setup_s":       summarize(setup),
		"sim_req_per_s": summarize(rate),
		"peak_rss_mb":   summarize(rss),
	}
	res.Digest = reps[0].Digest
	for k, v := range reps[0].Layer {
		res.Values[k] = v
	}
	for k, v := range reps[0].Sim {
		res.Values[k] = v
	}
	// Host time on a shared box only ever gets added to: identical windows
	// took 0.84 to 1.56 s within ten minutes on the reference VM, and the
	// best repetition spread a third as wide as the median one over ten
	// runs. So the timings report the best repetition (the median and the
	// quartiles are printed beside it); memory reports the median.
	res.Values["setup_s"] = slices.Min(setup)
	res.Values["sim_req_per_s"] = slices.Max(rate)
	res.Values["peak_rss_mb"] = median(rss)
	return res, nil
}

func (r *runResult) print() {
	fmt.Printf("== %s  seed %d: end to end (%d fresh-process repetitions, %d more set aside as stolen; timings report the best one)\n",
		r.Workload, r.Seed, r.Host["setup_s"].N, r.Stolen)
	for _, d := range endToEnd {
		if h, ok := r.Host[d.Name]; ok {
			fmt.Printf("  %-32s %16.6g %-5s median %.6g  q1 %.6g  q3 %.6g  n %d\n", d.Name, r.Values[d.Name], d.Unit, h.Median, h.Q1, h.Q3, h.N)
		} else {
			fmt.Printf("  %-32s %16.6g %-5s exact for the seed\n", d.Name, r.Values[d.Name], d.Unit)
		}
	}
	for _, name := range simOnly {
		if v, ok := r.Values[name]; ok {
			fmt.Printf("  %-32s %16.6g       exact for the seed\n", name, v)
		} else {
			fmt.Printf("  %-32s %16s\n", name, "n/a")
		}
	}
	stable := 0
	if r.Stable {
		stable = 1
	}
	fmt.Printf("  %-32s %16d 0/1\n", "result_digest_stable", stable)
	fmt.Printf("  %-32s %16.6g       %d failed of %d attempted\n", "failed_share", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Println("  FAIL", p)
	}
}
