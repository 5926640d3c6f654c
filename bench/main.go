// Command bench is the repository's benchmark (see README.md and
// ../BENCHMARK.json). With -workload it is one driver run of one workload and
// ends with the driver's one-line JSON result; without, it runs the whole
// set, prints every metric by name, and writes out/result.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// hostInfo says what the host numbers were measured on, so a different
// runner reads as a different calibration rather than as a change.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readHost(procs int) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: procs, Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// calibrate times a fixed pure-CPU loop (xorshift steps walking a 32 KB
// array, no allocation) and returns nanoseconds per step, best of five.
func calibrate() float64 {
	const steps = 1 << 22
	var arr [4096]uint64
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		t := time.Now()
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			arr[x&4095] += x
		}
		ns := float64(time.Since(t).Nanoseconds()) / steps
		if best == 0 || ns < best {
			best = ns
		}
		calibSink += arr[x&4095]
	}
	return best
}

var calibSink uint64

// resultLine is the last line of a driver run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// workloadResult is one workload's part of out/result.json.
type workloadResult struct {
	Why      string        `json:"why"`
	Untraced *runResult    `json:"untraced"`
	Ladder   *ladderResult `json:"ladder,omitempty"`
	PerLayer values        `json:"per_layer,omitempty"`
}

type suiteResult struct {
	Host        hostInfo                  `json:"host"`
	CalibBefore float64                   `json:"bench.calib_ns_before"`
	CalibAfter  float64                   `json:"bench.calib_ns_after"`
	Seed        int64                     `json:"seed"`
	Scale       float64                   `json:"scale"`
	EndToEnd    []metricDef               `json:"end_to_end"`
	PerLayer    []metricDef               `json:"per_layer"`
	Workloads   map[string]workloadResult `json:"workloads"`
	Correct     bool                      `json:"correct"`
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this one workload and end with the driver's JSON result line")
	seed := fs.Int64("seed", 42, "workload seed: the generator receives only this")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traced := fs.Int("trace", 0, "0: untraced repetitions, end-to-end metrics; 1: one repetition plus the layer ladder, per-layer metrics")
	smoke := fs.Bool("smoke", false, "every N / 100, one repetition, ladder on fin1_dloop only, regime checks reported but not enforced")
	repeatCheck := fs.Bool("repeat-check", false, "run the untraced set twice and fail unless the second agrees with the first within the bounds")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for result.json, span files and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 {
		*seed = 42 // expt.Options treats 0 as "default"; keep one meaning everywhere
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o := runOpts{exe: exe, outDir: *outDir, seed: *seed, seconds: *seconds, scale: 1, strict: true, minReps: 3, maxReps: 8}
	if *smoke {
		o.scale, o.strict, o.minReps, o.maxReps = 0.01, false, 1, 1
	}
	procs := capProcs()

	var code int
	switch {
	case *workloadName != "":
		code, err = driverRun(o, *workloadName, *traced == 1)
	case *repeatCheck:
		code, err = repeatCheckRun(o)
	default:
		code, err = suiteRun(o, procs, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// tracedRun is the --trace 1 side of a workload: the count metrics of an
// untraced run (one repetition of its own when the caller has none), then
// the ladder. It returns every per-layer value.
func tracedRun(o runOpts, s spec, run *runResult, ladder bool) (*runResult, *ladderResult, values, error) {
	all := values{"bench.calib_ns": calibrate()}
	if run == nil {
		one := o
		one.minReps, one.maxReps = 1, 1
		var err error
		if run, err = runUntraced(one, s); err != nil {
			return nil, nil, nil, err
		}
	}
	for k, v := range run.Values {
		all[k] = v
	}
	if !ladder {
		return run, nil, all, nil
	}
	lr, err := runLadder(o, s)
	if err != nil {
		return nil, nil, nil, err
	}
	for k, v := range lr.Values {
		all[k] = v
	}
	if err := lr.writeSpans(o.outDir); err != nil {
		return nil, nil, nil, err
	}
	for _, d := range perLayer {
		_, ok := all[d.Name]
		if want := s.has(d.On) && (d.On != "gc" || all["gc.runs"] > 0); ok != want {
			lr.Problems = append(lr.Problems, fmt.Sprintf("%s: emitted %v, defined on this workload %v", d.Name, ok, want))
		}
	}
	return run, lr, all, nil
}

func driverRun(o runOpts, name string, traced bool) (int, error) {
	s, ok := specByName(name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	line := resultLine{}
	if traced {
		run, lr, all, err := tracedRun(o, s, nil, true)
		if err != nil {
			return 1, err
		}
		run.print()
		lr.print()
		fmt.Printf("== %s: per-layer metrics\n", s.name)
		all.print(perLayer)
		line = resultLine{Correct: run.correct() && len(lr.Problems) == 0, Attempted: run.Attempted, Failed: run.Failed,
			Metrics: all.resultMetrics(perLayer)}
	} else {
		run, err := runUntraced(o, s)
		if err != nil {
			return 1, err
		}
		run.print()
		line = resultLine{Correct: run.correct(), Attempted: run.Attempted, Failed: run.Failed,
			Metrics: run.Values.resultMetrics(endToEnd)}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// suiteRun is the one command that runs all six workloads, untraced and
// traced, prints every metric by name with its unit and writes result.json.
func suiteRun(o runOpts, procs int, smoke bool) (int, error) {
	suite := suiteResult{Host: readHost(procs), Seed: o.seed, Scale: o.scale, EndToEnd: endToEnd, PerLayer: perLayer,
		Workloads: map[string]workloadResult{}, Correct: true}
	suite.CalibBefore = calibrate()
	fmt.Printf("host: %d x %s, GOMAXPROCS %d, %s, commit %s; bench.calib_ns %.4f\n",
		suite.Host.NProc, suite.Host.CPU, suite.Host.GOMAXPROCS, suite.Host.Go, suite.Host.Commit, suite.CalibBefore)
	for _, s := range specs() {
		run, err := runUntraced(o, s)
		if err != nil {
			return 1, err
		}
		run.print()
		_, lr, all, err := tracedRun(o, s, run, !smoke || s.name == "fin1_dloop")
		if err != nil {
			return 1, err
		}
		if lr != nil {
			lr.print()
			suite.Correct = suite.Correct && len(lr.Problems) == 0
		}
		fmt.Printf("== %s: per-layer metrics\n", s.name)
		all.print(perLayer)
		suite.Correct = suite.Correct && run.correct()
		suite.Workloads[s.name] = workloadResult{Why: s.why, Untraced: run, Ladder: lr, PerLayer: all}
	}
	suite.CalibAfter = calibrate()
	fmt.Printf("bench.calib_ns after the set %.4f (ratio to before %.3f; host metrics are not normalised by it)\n",
		suite.CalibAfter, suite.CalibAfter/suite.CalibBefore)
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return 1, err
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Println("wrote", path)
	if !suite.Correct {
		fmt.Println("FAIL: see the FAIL lines above")
		return 1, nil
	}
	return 0, nil
}

// repeatCheckRun runs the untraced set twice and compares the second with
// the first: sim_* and the digest must be identical, host metrics within
// their bound. A host metric whose quartile spread exceeds its bound is
// unresolved: raise N, not the bound.
func repeatCheckRun(o runOpts) (int, error) {
	ok := true
	fmt.Printf("%-18s %-16s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "spread", "verdict")
	for _, s := range specs() {
		var runs [2]*runResult
		for i := range runs {
			r, err := runUntraced(o, s)
			if err != nil {
				return 1, err
			}
			if !r.correct() {
				r.print()
				ok = false
			}
			runs[i] = r
		}
		for _, d := range endToEnd {
			a, b := runs[0].Values[d.Name], runs[1].Values[d.Name]
			worse := d.worseBy(a, b)
			spread := 0.0
			verdict := "ok"
			if h, host := runs[0].Host[d.Name]; host {
				spread = max(h.spread(), runs[1].Host[d.Name].spread())
				switch {
				case worse > d.Bound:
					verdict, ok = "FAIL", false
				case spread > d.Bound && d.Name != "setup_s":
					verdict = "unresolved (spread > bound: raise N)"
				}
			} else if a != b {
				verdict, ok = "FAIL (must be identical)", false
			}
			fmt.Printf("%-18s %-16s %14.6g %14.6g %7.1f%% %7.1f%% %7.1f%%  %s\n", s.name, d.Name, a, b, 100*worse, 100*d.Bound, 100*spread, verdict)
		}
		for _, name := range simOnly {
			if a, b := runs[0].Values[name], runs[1].Values[name]; a != b {
				fmt.Printf("%-18s %-16s %14.6g %14.6g  FAIL (must be identical)\n", s.name, name, a, b)
				ok = false
			}
		}
		if runs[0].Digest != runs[1].Digest {
			fmt.Printf("%-18s the two runs' Results differ  FAIL (must be identical)\n", s.name)
			ok = false
		}
	}
	if !ok {
		return 1, nil
	}
	return 0, nil
}
