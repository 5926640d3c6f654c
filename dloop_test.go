package dloop_test

import (
	"bytes"
	"strings"
	"testing"

	"dloop"
)

func TestFacadeSimulate(t *testing.T) {
	geo, err := dloop.ScaledGeometryFor(4, 2, 0.03, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p := dloop.Financial1().ScaleFootprint(0.02)
	for _, scheme := range dloop.Schemes() {
		cfg := dloop.Config{FTL: scheme, Geometry: &geo, CMTEntries: 128}
		res, err := dloop.Simulate(cfg, p, 2000, 1)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.FTL != scheme || res.Requests != 2000 || res.MeanRespMs <= 0 {
			t.Fatalf("%s: bad result %+v", scheme, res)
		}
	}
}

func TestFacadeManualDrive(t *testing.T) {
	geo, err := dloop.ScaledGeometryFor(4, 2, 0.03, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := dloop.New(dloop.Config{FTL: dloop.SchemeDLOOP, Geometry: &geo})
	if err != nil {
		t.Fatal(err)
	}
	if err := ssd.PreconditionBytes(16 << 20); err != nil {
		t.Fatal(err)
	}
	rt, err := ssd.Serve(dloop.Request{LBN: 0, Sectors: 8, Op: dloop.OpWrite})
	if err != nil {
		t.Fatal(err)
	}
	if rt <= 0 {
		t.Fatal("write cost no time")
	}
	if got := ssd.Result().Requests; got != 1 {
		t.Fatalf("Requests = %d", got)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(dloop.Workloads()) != 5 {
		t.Fatal("want 5 workloads")
	}
	for _, name := range []string{"Financial1", "Financial2", "TPC-C", "Exchange", "Build"} {
		if _, ok := dloop.WorkloadByName(name); !ok {
			t.Errorf("missing workload %s", name)
		}
	}
	reqs, err := dloop.GenerateTrace(dloop.TPCC().ScaleFootprint(0.01), 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 100 {
		t.Fatalf("generated %d", len(reqs))
	}
}

func TestFacadeGeometry(t *testing.T) {
	g, err := dloop.GeometryFor(8, 2, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if g.Planes() != 32 {
		t.Fatalf("8 GB should have 32 planes, got %d", g.Planes())
	}
	tm := dloop.DefaultTiming()
	if tm.CopyBack().Microseconds() != 225 {
		t.Fatalf("copy-back %v µs, want 225", tm.CopyBack().Microseconds())
	}
}

func TestFacadeRecover(t *testing.T) {
	geo, err := dloop.ScaledGeometryFor(4, 2, 0.03, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dloop.New(dloop.Config{FTL: dloop.SchemeDLOOP, Geometry: &geo, CMTEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PreconditionBytes(16 << 20); err != nil {
		t.Fatal(err)
	}
	r, err := dloop.Recover(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Serve(dloop.Request{LBN: 0, Sectors: 4, Op: dloop.OpRead}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	opt := dloop.Options{Requests: 800, Scale: 0.02, Seed: 3, Workers: 2}
	mrt, sdrpp, err := dloop.Fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	if mrt == nil || sdrpp == nil || len(gridSeries(t, mrt)) == 0 {
		t.Fatal("empty Fig10 grids")
	}
	g, err := dloop.StripingStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if s := gridSeries(t, g); len(s) != 4 {
		t.Fatalf("striping study series: %v", s)
	}
}

// gridSeries returns a grid's series names, read from its CSV header.
func gridSeries(t *testing.T, g *dloop.Grid) []string {
	t.Helper()
	var b bytes.Buffer
	if err := g.CSV(&b); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(b.String(), "\n")
	return strings.Split(header, ",")[1:]
}
