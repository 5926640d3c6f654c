package expt

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// quickOptions shrinks runs so the whole experiment suite stays fast in CI.
func quickOptions() Options {
	return Options{Requests: 1200, Scale: 0.02, Seed: 7, Workers: 2}
}

func TestGridSetGetRender(t *testing.T) {
	g := NewGrid("title", "x", "y", []string{"1", "2"})
	g.Set("a", "1", 1.5)
	g.Set("a", "2", 2.5)
	g.Set("b", "1", 9)
	if v, ok := g.Get("a", "2"); !ok || v != 2.5 {
		t.Fatalf("Get: %v %v", v, ok)
	}
	if _, ok := g.Get("b", "2"); ok {
		t.Fatal("unset cell reported ok")
	}
	if _, ok := g.Get("zzz", "1"); ok {
		t.Fatal("unknown series reported ok")
	}
	var buf bytes.Buffer
	if err := g.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"title", "1.500", "2.500", "9.000", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := g.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.HasPrefix(csv, "x,a,b\n") {
		t.Errorf("CSV header: %q", csv)
	}
	if !strings.Contains(csv, "1,1.5,9") || !strings.Contains(csv, "2,2.5,") {
		t.Errorf("CSV rows: %q", csv)
	}
	if got := g.series; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Series: %v", got)
	}
}

// TestGridNegativeValues: a negative value is data, not an unset cell — a
// headline improvement is negative whenever DLOOP is the slower scheme.
func TestGridNegativeValues(t *testing.T) {
	g := NewGrid("title", "x", "y", []string{"1", "2"})
	g.Set("vs DFTL", "1", -12.5)
	g.Set("vs DFTL", "2", -1)
	if v, ok := g.Get("vs DFTL", "1"); !ok || v != -12.5 {
		t.Fatalf("Get: %v %v, want -12.5 true", v, ok)
	}
	if v, ok := g.Get("vs DFTL", "2"); !ok || v != -1 {
		t.Fatalf("Get: %v %v, want -1 true", v, ok)
	}
	var buf bytes.Buffer
	if err := g.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "-12.500") || !strings.Contains(out, "-1.000") {
		t.Errorf("Render dropped a negative value:\n%s", out)
	}
	buf.Reset()
	if err := g.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if csv := buf.String(); csv != "x,vs DFTL\n1,-12.5\n2,-1\n" {
		t.Errorf("CSV: %q", csv)
	}
}

func TestGridSetPanicsOnUnknownX(t *testing.T) {
	g := NewGrid("t", "x", "y", []string{"1"})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g.Set("a", "nope", 1)
}

func TestRunSingle(t *testing.T) {
	opt := quickOptions()
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	res, err := Run(cfg, p, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 500 || res.MeanRespMs <= 0 {
		t.Fatalf("result: %+v", res)
	}
}

// TestRunDeterministic is the regression gate for the hot-path rewrites: two
// runs with the same configuration, profile, and seed must produce an
// identical Result, down to every counter and the per-plane op vector.
func TestRunDeterministic(t *testing.T) {
	opt := quickOptions()
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	a, err := Run(cfg, p, 1500, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, p, 1500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (cfg, profile, seed) produced different results:\n%+v\n%+v", a, b)
	}
}

// TestRunAllBoundedPool exercises the worker pool: more jobs than workers,
// every cell filled, and an injected failure surfacing as the returned error.
func TestRunAllBoundedPool(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 300
	opt.Workers = 2
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	var jobs []job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, job{key: fmt.Sprintf("j%d", i), cfg: cfg, profile: p})
	}
	results, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}

	bad := cfg
	bad.FTL = "NOPE"
	jobs = append(jobs, job{key: "bad", cfg: bad, profile: p})
	if _, err := runAll(jobs, opt); err == nil {
		t.Fatal("runAll swallowed the failing job's error")
	}
}

func TestFig9QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	opt := quickOptions()
	mrt, sdrpp, err := Fig9(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Every trace/FTL cell filled for every page size.
	for _, p := range workload.All() {
		for _, scheme := range ssd.Schemes() {
			for _, x := range mrt.XVals {
				if _, ok := mrt.Get(seriesName(p.Name, scheme), x); !ok {
					t.Errorf("missing MRT cell %s/%s@%s", p.Name, scheme, x)
				}
				if _, ok := sdrpp.Get(seriesName(p.Name, scheme), x); !ok {
					t.Errorf("missing SDRPP cell %s/%s@%s", p.Name, scheme, x)
				}
			}
		}
	}
	// Paper shape: DLOOP at or below DFTL and FAST on the write-dominant
	// Financial1 at the 2 KB reference point.
	d, _ := mrt.Get("Financial1/DLOOP", "2")
	f, _ := mrt.Get("Financial1/DFTL", "2")
	fa, _ := mrt.Get("Financial1/FAST", "2")
	if d > f || d > fa {
		t.Errorf("Financial1@2KB: DLOOP %.3f should not exceed DFTL %.3f or FAST %.3f", d, f, fa)
	}
	// SDRPP: DLOOP spreads load most evenly.
	ds, _ := sdrpp.Get("Financial1/DLOOP", "2")
	fs, _ := sdrpp.Get("Financial1/DFTL", "2")
	if ds >= fs {
		t.Errorf("SDRPP: DLOOP %.2f should be below DFTL %.2f", ds, fs)
	}
}

func TestFig8SkipsOversizedFootprints(t *testing.T) {
	// At full scale, a 3.4 GB TPC-C footprint must be skipped on nothing
	// (all capacities fit), but a hypothetical 5 GB one would skip 4 GB.
	cfg, _ := configFor(4, 2, 0.03, ssd.SchemeDLOOP, Options{Scale: 1})
	big := workload.TPCC()
	big.FootprintBytes = 5 << 30
	if footprintFits(cfg, big) {
		t.Fatal("5 GB footprint reported as fitting 4 GB")
	}
	if !footprintFits(cfg, workload.TPCC()) {
		t.Fatal("3.4 GB footprint reported as not fitting 4 GB")
	}
}

func TestHeadlineComputation(t *testing.T) {
	mrt := NewGrid("t", "GB", "ms", []string{"4"})
	for _, p := range workload.All() {
		mrt.Set(seriesName(p.Name, ssd.SchemeDLOOP), "4", 1)
		mrt.Set(seriesName(p.Name, ssd.SchemeDFTL), "4", 2)
		mrt.Set(seriesName(p.Name, ssd.SchemeFAST), "4", 10)
	}
	h := Headline(mrt)
	if v, ok := h.Get("vs DFTL", "4"); !ok || v != 50 {
		t.Fatalf("vs DFTL: %v %v, want 50%%", v, ok)
	}
	if v, ok := h.Get("vs FAST", "4"); !ok || v != 90 {
		t.Fatalf("vs FAST: %v %v, want 90%%", v, ok)
	}
}

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	opt := quickOptions()
	g, err := AblationCopyback(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Both variants present at the smallest capacity.
	if _, ok := g.Get("DLOOP copy-back", "4"); !ok {
		t.Error("missing copy-back cell")
	}
	if _, ok := g.Get("DLOOP external", "4"); !ok {
		t.Error("missing external cell")
	}
}

func TestParityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	opt := quickOptions()
	pg, err := ParityReport(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pg.Get("GC moves", "Financial1"); !ok {
		t.Error("parity report missing Financial1")
	}
}

// TestGCPolicyStudyQuick exercises the E9 victim-policy sweep axis: every
// (scheme, policy) cell must fill for all three schemes, the default cells
// must match a plain run of the same configuration, and distinct policies
// must be selectable per scheme.
func TestGCPolicyStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	opt := quickOptions()
	mrt, moves, err := GCPolicyStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{ssd.SchemeDLOOP, ssd.SchemeDFTL, ssd.SchemeFAST} {
		for _, pol := range GCPolicies() {
			x := gcPolicyLabel(pol)
			if _, ok := mrt.Get(scheme, x); !ok {
				t.Errorf("mrt grid missing %s @ %s", scheme, x)
			}
			if _, ok := moves.Get(scheme, x); !ok {
				t.Errorf("moves grid missing %s @ %s", scheme, x)
			}
		}
	}
	// The default column must be bit-identical to a run without GCPolicy set.
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	res, err := Run(cfg, p, opt.Requests, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := mrt.Get(ssd.SchemeDLOOP, "default"); got != res.MeanRespMs {
		t.Errorf("default cell %v differs from plain run %v", got, res.MeanRespMs)
	}
}

// TestRunAllPoolSizeBitIdentical runs the same small sweep on a one-worker
// and a two-worker pool; every cell's Result must be bit-identical, whichever
// worker picks it up.
func TestRunAllPoolSizeBitIdentical(t *testing.T) {
	opt := quickOptions()
	opt.Requests = 600
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	var jobs []job
	for i, p := range workload.All()[:3] {
		jobs = append(jobs, job{key: fmt.Sprintf("cell%d", i), cfg: cfg, profile: scaleProfile(p, opt.Scale)})
	}
	opt.Workers = 1
	one, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 2
	two, err := runAll(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(two, one) {
		t.Fatalf("two-worker sweep diverged from one worker:\none %+v\ntwo %+v", one, two)
	}
}

// TestOptionsWorkerDerivation pins the Workers default: one worker per CPU.
func TestOptionsWorkerDerivation(t *testing.T) {
	o := Options{}
	o.setDefaults()
	if want := runtime.NumCPU(); o.Workers != want {
		t.Fatalf("default Workers = %d, want %d", o.Workers, want)
	}
}
