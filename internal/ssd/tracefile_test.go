package ssd

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dloop/internal/trace"
	"dloop/internal/workload"
)

// TestTraceFileReplaysStream checks the property a trace-file run rests on
// (tracegen then dloopsim -tracefile, and a bench workload that parses its
// stream from a file): a generated Build stream written as a DiskSim file
// with trace.WriteAll and loaded with trace.OpenArena is the arena
// workload.MaterializeArena builds, request for request, and a DFTL
// controller replaying either returns the same Result.
func TestTraceFileReplaysStream(t *testing.T) {
	const n, seed = 30000, 42
	geo, err := ScaledGeometryFor(4, 2, 0.03, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CapacityGB: 4, PageSizeKB: 2, FTL: SchemeDFTL, Geometry: &geo}
	exported, err := ExportedBytes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Build()
	p = p.ScaleFootprint(0.9 * float64(exported) / float64(p.FootprintBytes))

	g, err := workload.NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "build.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteAll(f, trace.FormatDiskSim, workload.NewLimitReader(g, n)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.OpenArena(path, trace.FormatDiskSim)
	if err != nil {
		t.Fatal(err)
	}
	synthetic, err := workload.MaterializeArena(p, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != n || synthetic.Len() != n {
		t.Fatalf("%d requests loaded, %d materialized; want %d", loaded.Len(), synthetic.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got, want := loaded.At(i), synthetic.At(i); got != want {
			t.Fatalf("request %d: %+v from the file, %+v generated", i, got, want)
		}
	}

	run := func(a *trace.Arena) Result {
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.PreconditionBytes(p.FootprintBytes); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(a.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(synthetic)
	if want.GCRuns == 0 || want.GCExternalMoves == 0 {
		t.Fatalf("no external GC moves (%d runs): the replay does not reach the collector", want.GCRuns)
	}
	if got := run(loaded); !reflect.DeepEqual(got, want) {
		t.Fatalf("Result from the file %+v, generated %+v", got, want)
	}
}
