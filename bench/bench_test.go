package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// The repetitions re-execute the running binary; under `go test` that is the
// test binary, which must then act as the child.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

func smokeOpts(t *testing.T) runOpts {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return runOpts{exe: exe, outDir: t.TempDir(), seed: 42, seconds: 1, scale: 0.01, minReps: 1, maxReps: 1}
}

// BENCHMARK.json must declare exactly what the program measures.
func TestDeclarationMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", decl.Paths, decl.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !validName(n) || seen[n] {
			t.Errorf("name %q is invalid or used twice", n)
		}
		seen[n] = true
	}
	if len(decl.Workloads) != len(specs()) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(specs()))
	}
	for i, s := range specs() {
		w := decl.Workloads[i]
		name(w.Name)
		if w.Name != s.name || w.Why != s.why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q / %q, program has %q / %q", i, w.Name, w.Why, s.name, s.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			name(g.Name)
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: declared %+v, program has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, program has %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

// Two smoke runs of every workload: every end-to-end metric is emitted and
// non-zero, the outputs check out, and the simulated metrics repeat exactly.
func TestSmokeUntraced(t *testing.T) {
	o := smokeOpts(t)
	for _, s := range specs() {
		var runs [2]*runResult
		for i := range runs {
			r, err := runUntraced(o, s)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() || !r.Stable || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: problems %v, stable %v, %d failed of %d", s.name, r.Problems, r.Stable, r.Failed, r.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := r.Values[d.Name]; !ok || !(v > 0) {
					t.Errorf("%s: %s = %v (emitted %v), want > 0", s.name, d.Name, v, ok)
				}
			}
			runs[i] = r
		}
		for _, n := range append([]string{"sim_mrt_ms", "sim_sdrpp"}, simOnly...) {
			a, okA := runs[0].Values[n]
			b, okB := runs[1].Values[n]
			if a != b || okA != okB || okA != (!s.sweep || n == "sim_mrt_ms" || n == "sim_sdrpp") {
				t.Errorf("%s: %s = %v then %v (emitted %v, %v)", s.name, n, a, b, okA, okB)
			}
		}
	}
}

// The traced run emits every per-layer metric defined on the workload and
// only those (tracedRun checks it), and the ladder's rows add up.
func TestSmokeLadder(t *testing.T) {
	o := smokeOpts(t)
	for _, name := range []string{"fin1_dloop", "sweep_fig8"} {
		s, _ := specByName(name)
		_, lr, all, err := tracedRun(o, s, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Problems) > 0 {
			t.Errorf("%s: %v", name, lr.Problems)
		}
		line := all.resultMetrics(perLayer)
		if len(line) != len(perLayer) {
			t.Errorf("%s: result line has %d metrics, %d declared", name, len(line), len(perLayer))
		}
		if s.sweep {
			continue
		}
		var sum float64
		for _, r := range lr.Budget {
			if !r.Part {
				sum += r.NsPerReq
			}
		}
		if enq := all["ssd.enqueue_ns_per_req"]; !(enq > 0) || math.Abs(sum-enq) > 1e-6*enq {
			t.Errorf("budget rows add up to %v, ssd.enqueue_ns_per_req is %v", sum, enq)
		}
		for _, rung := range []string{"workload.gen_ns_per_req", "trace.cursor_ns_per_req", "ftl.page_ns", "flash.replay_ns_per_op", "sim.acquire_ns_per_op", "stats.fold_ns_per_req"} {
			if !(all[rung] > 0) {
				t.Errorf("rung %s = %v, want > 0", rung, all[rung])
			}
		}
		if !strings.Contains(lr.Fidelity, "completion times identical") {
			t.Errorf("replay fidelity: %s", lr.Fidelity)
		}
		if _, err := os.Stat(o.outDir + "/spans-" + name + ".json"); err != nil {
			t.Error(err)
		}
	}
}

// A workload sized out of its regime must fail, not drift: at N / 100
// build_dftl_trace never collects garbage.
func TestRegimeCheckFires(t *testing.T) {
	o := smokeOpts(t)
	o.strict = true
	s, _ := specByName("build_dftl_trace")
	r, err := runUntraced(o, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.correct() || !strings.Contains(strings.Join(r.Problems, "\n"), "regime check: GCExternalMoves") {
		t.Errorf("problems %v, want a broken GCExternalMoves regime check", r.Problems)
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), which the
// driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v, want 1, 3", q1, q3)
	}
}

func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_.-", r)) {
			return false
		}
	}
	return true
}
